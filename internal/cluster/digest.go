package cluster

import (
	"sync"
	"time"

	"xrank/internal/obs"
)

// latencyDigest keeps a bounded ring of recent winning-attempt
// latencies and answers quantile queries over it. The coordinator
// derives its hedge delay from the p99 of this ring, so the hedge
// threshold tracks the cluster's actual tail instead of a guess.
type latencyDigest struct {
	mu   sync.Mutex
	ring []time.Duration
	next int
	full bool
}

// digestSize bounds the ring; 512 samples is enough for a stable p99
// while staying cheap to copy and sort on read.
const digestSize = 512

// digestMinSamples gates quantile answers: below it the tail estimate
// is noise and callers should use their fallback delay.
const digestMinSamples = 16

func newLatencyDigest() *latencyDigest {
	return &latencyDigest{ring: make([]time.Duration, digestSize)}
}

func (d *latencyDigest) observe(v time.Duration) {
	d.mu.Lock()
	d.ring[d.next] = v
	d.next++
	if d.next == len(d.ring) {
		d.next, d.full = 0, true
	}
	d.mu.Unlock()
}

// quantile returns the q-quantile of the recorded samples, or ok=false
// while fewer than digestMinSamples have been observed.
func (d *latencyDigest) quantile(q float64) (time.Duration, bool) {
	d.mu.Lock()
	n := d.next
	if d.full {
		n = len(d.ring)
	}
	if n < digestMinSamples {
		d.mu.Unlock()
		return 0, false
	}
	// Percentile sorts outside the lock, so observers never wait on it.
	samples := append([]time.Duration(nil), d.ring[:n]...)
	d.mu.Unlock()
	return obs.Percentile(samples, q), true
}
