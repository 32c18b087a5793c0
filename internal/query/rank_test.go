package query

import (
	"math"
	"math/rand"
	"testing"
)

// proximityRef is the plain smallest-window sweep Proximity replaced —
// every state evaluated, one head advanced per step — kept as the
// reference the optimized sweep must match exactly.
func proximityRef(perKeyword [][]uint32) float64 {
	n := len(perKeyword)
	if n == 0 {
		return 0
	}
	for _, ps := range perKeyword {
		if len(ps) == 0 {
			return 0
		}
	}
	if n == 1 {
		return 1
	}
	idx := make([]int, n)
	best := ^uint32(0)
	for {
		lo, hi := uint32(^uint32(0)), uint32(0)
		loK := 0
		for k := 0; k < n; k++ {
			p := perKeyword[k][idx[k]]
			if p < lo {
				lo, loK = p, k
			}
			if p > hi {
				hi = p
			}
		}
		if w := hi - lo + 1; w < best {
			best = w
		}
		idx[loK]++
		if idx[loK] >= len(perKeyword[loK]) {
			break
		}
	}
	if best < uint32(n) {
		best = uint32(n)
	}
	return float64(n) / float64(best)
}

// listsFromBytes turns fuzz input into 1-10 ascending posLists: each byte
// appends to keyword b%n a position b>>4 past that keyword's last, so
// zero steps give duplicates within a list and equal values across lists.
func listsFromBytes(data []byte) [][]uint32 {
	if len(data) == 0 {
		return nil
	}
	n := 1 + int(data[0])%10
	lists := make([][]uint32, n)
	last := make([]uint32, n)
	for _, b := range data[1:] {
		k := int(b) % n
		last[k] += uint32(b >> 4)
		lists[k] = append(lists[k], last[k])
	}
	return lists
}

func checkProximity(t *testing.T, lists [][]uint32) {
	t.Helper()
	if got, want := Proximity(lists), proximityRef(lists); got != want {
		t.Fatalf("Proximity(%v) = %v, reference %v", lists, got, want)
	}
}

// TestProximityMatchesReference compares the sweep with proximityRef,
// exactly, on the shapes its shortcuts target — duplicates, long runs of
// one keyword, windows that reach n early or never — and on random lists
// for every keyword count from 1 to 10 (past the inline index buffer).
func TestProximityMatchesReference(t *testing.T) {
	run := make([]uint32, 300)
	for i := range run {
		run[i] = uint32(i)
	}
	for _, lists := range [][][]uint32{
		{{4, 4, 4}, {4}},
		{{1, 1, 2}, {2, 2}, {9}},
		{run, {1000}},
		{{1000}, run},
		{run, {150}, run},
		{{0}, {math.MaxUint32}},
		{{0, math.MaxUint32}, {math.MaxUint32}},
		{{5, 6, 7, 8, 9, 10}, {20, 21, 22}, {11, 12, 13}},
		{{1, 2, 3, 100, 101, 102}, {50, 51, 103}},
	} {
		checkProximity(t, lists)
	}
	r := rand.New(rand.NewSource(3))
	for n := 1; n <= 10; n++ {
		for trial := 0; trial < 300; trial++ {
			lists := make([][]uint32, n)
			for k := range lists {
				p := uint32(r.Intn(20))
				for j := 0; j < 1+r.Intn(40); j++ {
					lists[k] = append(lists[k], p)
					if r.Intn(4) == 0 {
						p += uint32(r.Intn(60)) // long gaps make long runs
					} else {
						p += uint32(r.Intn(3))
					}
				}
			}
			checkProximity(t, lists)
		}
	}
}

func FuzzProximity(f *testing.F) {
	f.Add([]byte{1, 0x10, 0x21, 0x00, 0x31})
	f.Add([]byte{9, 0x12, 0x05, 0xF3, 0x00, 0x00, 0x41, 0x77})
	f.Add([]byte{2, 0x10, 0x10, 0x10, 0x10, 0x11})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkProximity(t, listsFromBytes(data))
	})
}

// sinkScore keeps benchmarked results live.
var sinkScore float64

// BenchmarkProximity is the window sweep on a locorr-shaped document
// root: three keywords, each a run of six positions per record in
// alternating records, 100 records each.
func BenchmarkProximity(b *testing.B) {
	const n, records, repeat = 3, 100, 6
	lists := make([][]uint32, n)
	for rec := 0; rec < n*records; rec++ {
		k := rec % n
		for j := 0; j < repeat; j++ {
			lists[k] = append(lists[k], uint32(rec*40+j))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkScore = Proximity(lists)
	}
}
