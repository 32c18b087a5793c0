//go:build race

package httpapi

// raceEnabled reports whether the race detector is compiled in. The
// allocation gate keys off it: under the detector sync.Pool drops a share
// of what is put back, on purpose, so allocation counts stop repeating.
const raceEnabled = true
