package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"xrank"
)

// The bench package's own tests run everything at miniature scale — they
// assert that the harness produces the right table structure and that the
// robust qualitative shapes hold even when tiny. The recorded large-scale
// numbers live in EXPERIMENTS.md.

func buildSmall(t *testing.T) *Engines {
	t.Helper()
	es, err := BuildAll(t.TempDir(), 0.15, 7)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(es.Close)
	return es
}

func TestE1E2Tables(t *testing.T) {
	es := buildSmall(t)
	t1 := E1ElemRank(es)
	if len(t1.Rows) != 2 {
		t.Fatalf("E1 rows = %d", len(t1.Rows))
	}
	for _, r := range t1.Rows {
		if r[5] != "true" {
			t.Errorf("ElemRank did not converge: %v", r)
		}
	}
	t2 := E2Space(es)
	if len(t2.Rows) != 5 {
		t.Fatalf("E2 rows = %d", len(t2.Rows))
	}
	var buf bytes.Buffer
	t2.Render(&buf)
	out := buf.String()
	for _, want := range []string{"Naive-ID", "DIL", "RDIL", "HDIL", "MB"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
	// Table 1's shape: the naive lists repeat every entry at every
	// ancestor, so they outweigh DIL and their closure outnumbers the
	// direct postings.
	for _, c := range []struct {
		name  string
		info  *xrank.BuildInfo
		naive *Baseline
	}{{"dblp", es.DBLPInfo, es.DBLPNaive}, {"xmark", es.XMarkInfo, es.XMarkNaive}} {
		if c.info.Sizes.DILList == 0 || c.naive.Sizes.NaiveIDList < c.info.Sizes.DILList {
			t.Errorf("%s: naive list %d bytes, DIL %d", c.name, c.naive.Sizes.NaiveIDList, c.info.Sizes.DILList)
		}
		if c.naive.Sizes.Meta.NaiveEntries <= c.info.Sizes.Meta.DeweyEntries {
			t.Errorf("%s: naive closure %d entries should exceed the %d direct postings",
				c.name, c.naive.Sizes.Meta.NaiveEntries, c.info.Sizes.Meta.DeweyEntries)
		}
	}
}

func TestPerfFiguresShape(t *testing.T) {
	if testing.Short() {
		t.Skip("perf corpus build is slow")
	}
	dir := t.TempDir()
	e, info, err := BuildPerfEngine(dir+"/perf", 12000, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if info.NumElements < 20000 {
		t.Fatalf("perf corpus too small: %+v", info)
	}
	naive, err := BuildPerfBaseline(dir+"/naive", 12000, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer naive.Close()
	f10, err := E3Fig10(e, naive, "test", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(f10.Rows) != 4 || len(f10.Header) != 11 || f10.Header[1] != "Naive-ID sim" {
		t.Fatalf("fig10 rows = %d, header = %v", len(f10.Rows), f10.Header)
	}
	f11, err := E4Fig11(e, "test", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(f11.Rows) != 4 {
		t.Fatalf("fig11 rows = %d", len(f11.Rows))
	}
	top, err := E5TopM(e, "test")
	if err != nil {
		t.Fatal(err)
	}
	if len(top.Rows) != 5 {
		t.Fatalf("E5 rows = %d", len(top.Rows))
	}
	// Robust shape at any scale: the ranked strategies read far fewer
	// pages than DIL on correlated keywords...
	dil, err := MeasureQueries(e, xrank.AlgoDIL, HighCorrQueries(2, perfGroups), 10)
	if err != nil {
		t.Fatal(err)
	}
	rdil, err := MeasureQueries(e, xrank.AlgoRDIL, HighCorrQueries(2, perfGroups), 10)
	if err != nil {
		t.Fatal(err)
	}
	if rdil.Reads >= dil.Reads {
		t.Errorf("high correlation: RDIL reads (%d) should be below DIL reads (%d)", rdil.Reads, dil.Reads)
	}
	// ...and far more on uncorrelated ones.
	dilLo, err := MeasureQueries(e, xrank.AlgoDIL, LowCorrQueries(2, perfGroups), 10)
	if err != nil {
		t.Fatal(err)
	}
	rdilLo, err := MeasureQueries(e, xrank.AlgoRDIL, LowCorrQueries(2, perfGroups), 10)
	if err != nil {
		t.Fatal(err)
	}
	if rdilLo.Reads <= dilLo.Reads {
		t.Errorf("low correlation: RDIL reads (%d) should exceed DIL reads (%d)", rdilLo.Reads, dilLo.Reads)
	}
}

func TestQualityAnecdotes(t *testing.T) {
	es := buildSmall(t)
	tables, err := E6Quality(es)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("E6 tables = %d", len(tables))
	}
	for _, tb := range tables {
		if strings.Contains(tb.Comment, "UNEXPECTED") {
			t.Errorf("%s: %s", tb.Title, tb.Comment)
		}
		if len(tb.Rows) == 0 {
			t.Errorf("%s returned no results", tb.Title)
		}
	}
}

func TestAblations(t *testing.T) {
	es := buildSmall(t)
	tv, err := E7AblationVariants(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(tv.Rows) != 4 {
		t.Fatalf("E7a rows = %d", len(tv.Rows))
	}
	// The final variant trivially overlaps itself fully.
	if tv.Rows[0][2] != "20/20" {
		t.Errorf("final variant self-overlap = %s", tv.Rows[0][2])
	}
	td, err := E7AblationDecay(es.XMark)
	if err != nil {
		t.Fatal(err)
	}
	if len(td.Rows) != 4 {
		t.Fatalf("E7b rows = %d", len(td.Rows))
	}
	tp, err := E7AblationProximity(es.DBLP)
	if err != nil {
		t.Fatal(err)
	}
	if len(tp.Rows) != 2 {
		t.Fatalf("E7c rows = %d", len(tp.Rows))
	}
}

func TestDsAblation(t *testing.T) {
	tb, err := E7AblationDs(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("E7d rows = %d", len(tb.Rows))
	}
	// Convergence must hold for every setting, and iteration counts must
	// stay in the same ballpark (the paper's claim).
	var lo, hi int
	for i, r := range tb.Rows {
		if r[4] != "true" {
			t.Errorf("setting %v did not converge", r)
		}
		var it int
		fmt.Sscanf(r[3], "%d", &it)
		if i == 0 || it < lo {
			lo = it
		}
		if it > hi {
			hi = it
		}
	}
	if hi > 6*lo {
		t.Errorf("convergence varies too widely: %d..%d iterations", lo, hi)
	}
}

func TestWarmCache(t *testing.T) {
	if testing.Short() {
		t.Skip("perf corpus build is slow")
	}
	dir := t.TempDir()
	e, _, err := BuildPerfEngine(dir+"/perf", 9000, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tb, err := E9WarmCache(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("E9 rows = %d", len(tb.Rows))
	}
	// Warm device reads must be (near) zero for every algorithm.
	for _, r := range tb.Rows {
		var warm int64
		fmt.Sscanf(r[4], "%d", &warm)
		var cold int64
		fmt.Sscanf(r[2], "%d", &cold)
		if warm > cold/4 {
			t.Errorf("%s: warm reads %d not far below cold %d", r[0], warm, cold)
		}
	}
}

func TestShardExperimentShape(t *testing.T) {
	dir := t.TempDir()
	tb, rep, err := E10Shard(dir, []int{1, 2, 4}, 4, 0.08, 7, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 || len(rep.Runs) != 3 {
		t.Fatalf("E10 rows = %d, runs = %d", len(tb.Rows), len(rep.Runs))
	}
	base := rep.Runs[0]
	if base.Shards != 1 || base.AvgLatencyMicros <= 0 || base.AvgResults == 0 {
		t.Fatalf("bad baseline run: %+v", base)
	}
	// Shard pruning may only shrink the page accesses; growth is bounded
	// by boundary rounding (each shard's list is a whole number of pages,
	// at most keywords extra partial pages per shard).
	for _, r := range rep.Runs[1:] {
		if r.AvgReads > base.AvgReads+int64(rep.Keywords*r.Shards) {
			t.Errorf("%d shards: %d avg reads, baseline %d", r.Shards, r.AvgReads, base.AvgReads)
		}
	}
	// The JSON artifact must round-trip.
	path := dir + "/BENCH_shard.json"
	if err := rep.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back ShardReport
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Corpus != "xmark" || len(back.Runs) != 3 {
		t.Errorf("round-tripped report = %+v", back)
	}
}

func TestQueryGenerators(t *testing.T) {
	qs := HighCorrQueries(3, 2)
	if len(qs) != 2 || len(qs[0]) != 3 || qs[0][0] != "hicorr0k0" {
		t.Errorf("HighCorrQueries = %v", qs)
	}
	lo := LowCorrQueries(9, 1) // k clamped to markerWidth
	if len(lo[0]) != markerWidth {
		t.Errorf("k not clamped: %v", lo)
	}
}
