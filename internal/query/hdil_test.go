package query

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"xrank/internal/datagen/perfgen"
	"xrank/internal/elemrank"
	"xrank/internal/index"
	"xrank/internal/storage"
	"xrank/internal/xmldoc"
)

// perfSharded builds the Figure 10/11 corpus (perfgen: every record plants
// one complete high-correlation keyword group in one element) as a
// sharded index opened with poolPages-page buffer pools.
func perfSharded(tb testing.TB, blocks, shards, poolPages int) *index.Sharded {
	tb.Helper()
	c := xmldoc.NewCollection()
	for _, d := range perfgen.Generate(perfgen.Params{Seed: 7, Blocks: blocks}) {
		if _, err := c.AddXML(d.Name, strings.NewReader(d.XML), nil); err != nil {
			tb.Fatal(err)
		}
	}
	g, _ := elemrank.BuildGraph(c)
	res, err := elemrank.Compute(g, elemrank.DefaultParams())
	if err != nil || !res.Converged {
		tb.Fatalf("elemrank: %v", err)
	}
	dir := tb.TempDir()
	if _, err := index.BuildSharded(c, res.Scores, dir, index.BuildOptions{}, shards); err != nil {
		tb.Fatal(err)
	}
	sh, err := index.OpenSharded(dir, index.OpenOptions{PoolPages: poolPages})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { sh.Close() })
	return sh
}

// hicorrQueries are the planted groups × k ∈ {2,3,4}, members in phrase
// order (adjacent in every record, so proximity is 1).
func hicorrQueries() [][]string {
	var qs [][]string
	for g := 0; g < 3; g++ {
		for k := 2; k <= 4; k++ {
			q := make([]string, k)
			for i := range q {
				q[i] = fmt.Sprintf("hicorr%dk%d", g, i)
			}
			qs = append(qs, q)
		}
	}
	return qs
}

// TestHDILStaysRankedOnHighCorrelation is Figure 10's regime on the layout
// the engine serves (2 shards, block postings) with buffer pools smaller
// than one keyword's DIL list, each HDIL query preceded by a forced DIL
// scan of the same lists through the same pools. Priced by the serving
// model no shard may leave the threshold path, and the threshold stop
// must skip blocks; priced by the paper's disk from a cold pool every
// query's switch decision must be the one recorded at the commit before
// the serving model existed (lists this short are below Figure 10's
// DIL/RDIL crossover on that disk — E8 — so they all switch).
func TestHDILStaysRankedOnHighCorrelation(t *testing.T) {
	const poolPages = 8
	sh := perfSharded(t, 40000, 2, poolPages)
	for s, ix := range sh.Shards() {
		if pages := ix.DILListBytes("hicorr0k0") / storage.PageSize; pages <= poolPages {
			t.Fatalf("shard %d: a %d-page list does not overflow the %d-page pool", s, pages, poolPages)
		}
	}
	opts := DefaultOptions()
	queries := hicorrQueries()

	for round := 0; round < 3; round++ {
		for _, q := range queries {
			want, err := dilSharded(sh, q, opts) // the scan that used to evict the probe pages
			if err != nil {
				t.Fatal(err)
			}
			o := opts
			o.Exec = storage.NewExecContext(nil)
			got, trace, err := HDILSharded(sh, q, o, 0, storage.DefaultCostModel())
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, fmt.Sprintf("round %d HDIL(%v)", round, q), got, want, 0)
			if trace.SwitchedToDIL {
				t.Errorf("round %d %v: switched to DIL (%s after %d entries) under the serving model",
					round, q, trace.SwitchReason, trace.RankedEntriesRead)
			}
			if st := o.Exec.Stats(); st.BlocksSkipped == 0 {
				t.Errorf("round %d %v: the threshold stop skipped no block (%d decoded)", round, q, st.BlocksDecoded)
			}
		}
	}

	const golden = "111111111" // one digit per query of hicorrQueries: 1 = switched
	var decisions strings.Builder
	for _, q := range queries {
		if err := sh.ColdCache(); err != nil {
			t.Fatal(err)
		}
		_, trace, err := HDILSharded(sh, q, opts, 0, storage.PaperDiskCostModel())
		if err != nil {
			t.Fatal(err)
		}
		if trace.SwitchedToDIL {
			decisions.WriteByte('1')
		} else {
			decisions.WriteByte('0')
		}
	}
	if decisions.String() != golden {
		t.Errorf("paper-disk cold-cache switch decisions %s, recorded %s", decisions.String(), golden)
	}
}

// benchSources opens the ranked sources of q on shard ix the way HDIL
// does, with every cursor positioned on its first entry.
func benchSources(b *testing.B, ix *index.Index, ec *storage.ExecContext, q []string) []*rankedSource {
	b.Helper()
	sources := make([]*rankedSource, len(q))
	for i, kw := range q {
		cur, ok := ix.HDILRankCursorExec(ec, kw)
		if !ok {
			b.Fatalf("no rank list for %q", kw)
		}
		prober, _ := ix.ProberExec(ec, kw)
		s := &postingStream{cur: cur}
		if err := s.advance(); err != nil {
			b.Fatal(err)
		}
		sources[i] = &rankedSource{stream: s, prober: prober, lastRank: math.Inf(1)}
	}
	return sources
}

// BenchmarkTAStep is one threshold-algorithm step — consume a rank-list
// entry, probe the other lists for the deepest common ancestor, evaluate
// it — on high-correlation keywords, warm. allocs/op is what the step
// keeps (a seen key; a result while the heap fills), not what it touches.
func BenchmarkTAStep(b *testing.B) {
	sh := perfSharded(b, 12000, 1, 0)
	ix := sh.Shard(0)
	q := hicorrQueries()[1] // k = 3
	opts := DefaultOptions()
	if err := opts.fill(); err != nil {
		b.Fatal(err)
	}
	opts.Exec = storage.NewExecContext(nil)
	var ta *taState
	restart := func() {
		if ta != nil {
			for _, s := range ta.sources {
				s.stream.close()
			}
		}
		ta = newTAState(opts, benchSources(b, ix, opts.Exec, q))
	}
	restart()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := ta.step(i % len(q))
		if err != nil {
			b.Fatal(err)
		}
		if !ok { // rank prefix used up: start over on fresh cursors
			b.StopTimer()
			restart()
			b.StartTimer()
		}
	}
}

// BenchmarkHDILHighCorr is one whole HDIL query per shard layout of the
// benchmark spine (2 shards, block postings, default pools) under the
// serving model: open, threshold rounds, stop.
func BenchmarkHDILHighCorr(b *testing.B) {
	sh := perfSharded(b, 12000, 2, 0)
	queries := hicorrQueries()
	opts := DefaultOptions()
	cm := storage.DefaultCostModel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := opts
		o.Exec = storage.NewExecContext(nil)
		_, trace, err := HDILSharded(sh, queries[i%len(queries)], o, 1, cm)
		if err != nil {
			b.Fatal(err)
		}
		if trace.SwitchedToDIL {
			b.Fatalf("%v switched to DIL", queries[i%len(queries)])
		}
	}
}
