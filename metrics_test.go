package xrank

import (
	"errors"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"xrank/internal/obs"
)

// engineSpans are the sequential top-level stages every query records;
// they must account for (nearly) the whole wall time.
var engineSpans = []string{"tokenize", "execute", "materialize"}

func TestQueryStatsTracePerAlgorithm(t *testing.T) {
	e := buildEngine(t, nil)
	cases := []struct {
		name string
		opts SearchOptions
		want string // a span name prefix the algorithm must record
	}{
		{"DIL", SearchOptions{Algorithm: AlgoDIL}, "dil."},
		{"RDIL", SearchOptions{Algorithm: AlgoRDIL}, "rdil."},
		{"HDIL", SearchOptions{Algorithm: AlgoHDIL}, "hdil."},
		{"Disjunctive", SearchOptions{Disjunctive: true}, "disj."},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, stats, err := e.SearchDetailed("xql language", tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			sums := obs.SumByName(stats.Trace)
			for _, s := range engineSpans {
				if _, ok := sums[s]; !ok {
					t.Errorf("trace missing engine span %q: %v", s, spanNames(stats.Trace))
				}
			}
			found := false
			for name := range sums {
				if strings.HasPrefix(name, tc.want) {
					found = true
				}
			}
			if !found {
				t.Errorf("trace has no %q* span: %v", tc.want, spanNames(stats.Trace))
			}
			// The sequential engine stages must account for the query's
			// wall time (setup outside them is microseconds; the slack
			// absorbs timer noise).
			staged := sums["tokenize"] + sums["execute"] + sums["materialize"]
			if staged > stats.WallTime {
				t.Errorf("engine spans sum to %v > wall time %v", staged, stats.WallTime)
			}
			if stats.WallTime-staged > 50*time.Millisecond {
				t.Errorf("engine spans sum to %v, wall time %v: unaccounted gap too large", staged, stats.WallTime)
			}
		})
	}
}

func TestQueryStatsTraceSharded(t *testing.T) {
	e := NewEngine(&Config{Shards: 2})
	for _, name := range []string{"a", "b", "c"} {
		if err := e.AddXML(name, strings.NewReader(proceedings)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Build(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })

	_, stats, err := e.SearchDetailed("xql language", SearchOptions{Algorithm: AlgoDIL})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Shards != 2 {
		t.Fatalf("shards = %d", stats.Shards)
	}
	sums := obs.SumByName(stats.Trace)
	shardSpans := 0
	for name := range sums {
		if strings.HasPrefix(name, "shard") && strings.HasSuffix(name, ".exec") {
			shardSpans++
		}
	}
	if shardSpans != 2 {
		t.Errorf("per-shard spans = %d, want 2: %v", shardSpans, spanNames(stats.Trace))
	}
	if _, ok := sums["merge.topk"]; !ok {
		t.Errorf("trace missing merge.topk: %v", spanNames(stats.Trace))
	}
}

func TestEngineMetricsAndSlowLog(t *testing.T) {
	e := buildEngine(t, nil)
	e.SlowLog().SetThreshold(0) // log every query

	if _, _, err := e.SearchDetailed("xql language", SearchOptions{Algorithm: AlgoDIL, ColdCache: true}); err != nil {
		t.Fatal(err)
	}
	if snap := e.QueryLatency("DIL"); snap.Count != 1 {
		t.Errorf("DIL latency count = %d, want 1", snap.Count)
	}
	// A budget of one page read cannot satisfy a cold-cache RDIL query
	// (its B+-tree probes alone need more); the failure must land in the
	// error counter, not the latency histogram.
	_, _, err := e.SearchDetailed("xql language", SearchOptions{Algorithm: AlgoRDIL, ColdCache: true, MaxPageReads: 1})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("budget query err = %v", err)
	}
	if snap := e.QueryLatency("RDIL"); snap.Count != 0 {
		t.Errorf("RDIL latency count after failure = %d, want 0", snap.Count)
	}

	var b strings.Builder
	if err := e.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`xrank_queries_total{algo="DIL"} 1`,
		`xrank_queries_total{algo="RDIL"} 1`,
		`xrank_query_errors_total{algo="RDIL"} 1`,
		`xrank_query_latency_seconds_count{algo="DIL"} 1`,
		`xrank_query_stage_seconds_count{stage="execute"} 2`,
		"xrank_index_shards 1",
		"xrank_inflight_queries 0",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The cold-cache query did real device reads; both must show up.
	if !strings.Contains(out, "xrank_page_reads_total ") || strings.Contains(out, "xrank_page_reads_total 0\n") {
		t.Errorf("xrank_page_reads_total missing or zero:\n%s", out)
	}

	entries := e.SlowLog().Entries()
	if len(entries) != 2 {
		t.Fatalf("slowlog entries = %d, want 2", len(entries))
	}
	// Entries are newest-first: the failed budget query, then the clean one.
	if entries[0].Err == "" || entries[0].Algorithm != "RDIL" {
		t.Errorf("failed-query slowlog entry = %+v", entries[0])
	}
	if entries[1].Err != "" || entries[1].Algorithm != "DIL" {
		t.Errorf("clean-query slowlog entry = %+v", entries[1])
	}
	for _, en := range entries {
		if en.Query != "xql language" || en.Shards != 1 {
			t.Errorf("slowlog entry = %+v", en)
		}
	}
	if len(entries[1].Spans) == 0 {
		t.Errorf("slowlog entry carries no spans")
	}
	if e.SlowLog().Total() != 2 {
		t.Errorf("slowlog total = %d", e.SlowLog().Total())
	}
}

func TestSlowLogThresholdConfig(t *testing.T) {
	e := buildEngine(t, &Config{SlowQueryMillis: -1})
	if _, _, err := e.SearchDetailed("xql language", SearchOptions{}); err != nil {
		t.Fatal(err)
	}
	if n := len(e.SlowLog().Entries()); n != 0 {
		t.Errorf("disabled slow log recorded %d entries", n)
	}
}

func spanNames(spans []obs.Span) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.Name
	}
	return out
}

// TestReadmeMetricsTable fails when a metric family registered by the
// engine (metrics.go) or the HTTP layer (internal/httpapi) is missing
// from the README's tables: each name must appear in backticks in a
// table row. Names are read from the registering sources' string
// literals, so series registered lazily (on first error, first stage,
// first switch reason) are covered too.
func TestReadmeMetricsTable(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	tick := regexp.MustCompile("`(xrank_[a-z0-9_]+)`")
	for _, line := range strings.Split(string(readme), "\n") {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		for _, m := range tick.FindAllStringSubmatch(line, -1) {
			documented[m[1]] = true
		}
	}
	name := regexp.MustCompile(`"(xrank_[a-z0-9_]+)"`)
	registered := 0
	for _, src := range []string{"metrics.go", "internal/httpapi/httpapi.go"} {
		code, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range name.FindAllStringSubmatch(string(code), -1) {
			registered++
			if !documented[m[1]] {
				t.Errorf("%s registers %s, which no README table lists", src, m[1])
			}
		}
	}
	if registered < 30 {
		t.Fatalf("found only %d registered names: has registration moved?", registered)
	}
}
