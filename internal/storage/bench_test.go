package storage

import (
	"path/filepath"
	"testing"
)

// The buffer-pool micro-benchmarks behind the serving cost model
// (DefaultCostModel): what a hit and a miss cost when the page file sits
// in the OS page cache, and what a probe pays after a long scan.

const benchPoolPages = 128

func newBenchPool(b *testing.B, filePages int) *BufferPool {
	b.Helper()
	pf, err := CreatePageFileFS(nil, filepath.Join(b.TempDir(), "bench.pages"))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { pf.Close() })
	page := make([]byte, PageSize)
	for i := 0; i < filePages; i++ {
		if _, err := pf.AppendPage(page); err != nil {
			b.Fatal(err)
		}
	}
	return NewBufferPool(pf, benchPoolPages)
}

func benchGet(b *testing.B, get func(*ExecContext, PageID) (*Frame, error), ec *ExecContext, id PageID) {
	fr, err := get(ec, id)
	if err != nil {
		b.Fatal(err)
	}
	fr.Release()
}

// BenchmarkPoolGetHit is one pin and release of a resident page under a
// query's execution context: CostModel.CacheHit.
func BenchmarkPoolGetHit(b *testing.B) {
	bp := newBenchPool(b, benchPoolPages)
	ec := NewExecContext(nil)
	for id := PageID(0); id < benchPoolPages; id++ {
		benchGet(b, bp.GetExec, ec, id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGet(b, bp.GetExec, ec, PageID(i%benchPoolPages))
	}
}

// BenchmarkPoolGetMiss cycles through a file four times the pool, so
// every Get evicts a frame and reads 8 KiB from the OS page cache:
// CostModel.RandRead and SeqRead.
func BenchmarkPoolGetMiss(b *testing.B) {
	const filePages = 4 * benchPoolPages
	bp := newBenchPool(b, filePages)
	ec := NewExecContext(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGet(b, bp.GetExec, ec, PageID(i%filePages))
	}
}

// BenchmarkPoolGetScanThenProbe is one iteration of the loop that used to
// hold HDIL on the DIL path: a scan five times the pool, then 32 probes
// of a working set that was resident before it. With scan-resistant
// replacement the probes are hits; misses/op reports how many were not.
func BenchmarkPoolGetScanThenProbe(b *testing.B) {
	const probeSet, scanPages = 32, 5 * benchPoolPages
	bp := newBenchPool(b, probeSet+scanPages)
	ec := NewExecContext(nil)
	for id := PageID(0); id < probeSet; id++ {
		benchGet(b, bp.GetExec, ec, id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var misses int64
	for i := 0; i < b.N; i++ {
		for id := PageID(probeSet); id < probeSet+scanPages; id++ {
			benchGet(b, bp.GetScanExec, ec, id)
		}
		before := ec.Stats().Reads
		for id := PageID(0); id < probeSet; id++ {
			benchGet(b, bp.GetExec, ec, id)
		}
		misses += ec.Stats().Reads - before
	}
	b.ReportMetric(float64(misses)/float64(b.N), "misses/op")
}

// TestStartSpanUntracedAllocs is the gate on tracing's cost when nobody
// traces: every query opens spans (HDIL's rounds, the DIL merge), so with
// no recorder installed, or on a nil context, StartSpan and the end
// function it returns must not allocate.
func TestStartSpanUntracedAllocs(t *testing.T) {
	var nilEC *ExecContext
	for name, ec := range map[string]*ExecContext{"nil": nilEC, "unrecorded": NewExecContext(nil)} {
		if a := testing.AllocsPerRun(100, func() { ec.StartSpan("hdil.rounds")() }); a != 0 {
			t.Errorf("%s context: StartSpan and its end allocated %v times", name, a)
		}
	}
}

// BenchmarkStartSpanUntraced is one span opened and closed on a query
// context with no recorder installed: the price of an annotation in code
// that runs untraced.
func BenchmarkStartSpanUntraced(b *testing.B) {
	ec := NewExecContext(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ec.StartSpan("hdil.rounds")()
	}
}
