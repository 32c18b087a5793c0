package query

import (
	"fmt"
	"testing"

	"xrank/internal/index"
	"xrank/internal/storage"
)

// locorrQueries are Figure 11's queries over perfgen: the first k members
// of low-correlation group g, for k in {2, 3, 4}. Each member is frequent,
// but no record holds two of them, so results are document roots.
func locorrQueries() [][]string {
	var qs [][]string
	for k := 2; k <= 4; k++ {
		q := make([]string, k)
		for i := range q {
			q[i] = fmt.Sprintf("locorr%dk%d", k%3, i)
		}
		qs = append(qs, q)
	}
	return qs
}

// TestDILAllocsIndependentOfListLength is the gate that keeps per-posting
// (and per-result) allocation out of the DIL scan: the same locorr query
// over lists eight times longer must allocate exactly as often. What a
// query does allocate — cursors, the merger, the heap while it fills, the
// decode and arena buffers as they first grow — is a constant.
func TestDILAllocsIndependentOfListLength(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	short := perfSharded(t, 1200, 1, 0).Shard(0)
	long := perfSharded(t, 9600, 1, 0).Shard(0)
	opts := DefaultOptions()
	opts.TopM = 2 // the short corpus has three documents, so three results
	for _, q := range locorrQueries() {
		allocs := func(ix *index.Index) float64 {
			return testing.AllocsPerRun(5, func() {
				if _, err := DIL(ix, q, opts); err != nil {
					t.Fatal(err)
				}
			})
		}
		if a, b := allocs(short), allocs(long); a != b {
			t.Errorf("DIL(%v): %v allocations on the short lists, %v on lists 8x longer", q, a, b)
		}
	}
}

// BenchmarkDILLoCorr is the DIL merge kernel on Figure 11's regime: the
// locorr queries over a 30-document perfgen shard, warm. ns/posting
// divides the time by the postings the cursors decoded (the ExecContext
// count the cost model prices), so it reads as the whole kernel's CPU per
// posting: decode, merge, proximity, heap.
func BenchmarkDILLoCorr(b *testing.B) {
	ix := perfSharded(b, 12000, 1, 0).Shard(0)
	queries := locorrQueries()
	opts := DefaultOptions()
	postings := int64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := opts
		o.Exec = storage.NewExecContext(nil)
		if _, err := DIL(ix, queries[i%len(queries)], o); err != nil {
			b.Fatal(err)
		}
		postings += o.Exec.Stats().Postings
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(postings), "ns/posting")
}
