package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"xrank"
	"xrank/internal/cache"
)

// Golden-file tests pin the HTTP API's response shapes. Timing-dependent
// fields (wall times, span durations, I/O counts, histogram buckets) are
// normalized before comparison; everything else — field names, result
// sets, deterministic counters — must match byte-for-byte.
//
// Regenerate with: go test ./cmd/xrank -run TestGolden -update

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (regenerate with -update): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// volatileNumKeys are JSON fields whose values depend on wall-clock
// timing or cache state; they are zeroed before golden comparison.
// "bytes" (result-cache occupancy) is deterministic for a fixed corpus
// but tracks every snippet byte, which would make unrelated corpus edits
// churn the golden.
var volatileNumKeys = map[string]bool{
	"wall_us": true, "wall_ns": true, "dur_ns": true,
	"io_reads": true, "cache_hits": true, "seq_reads": true, "rand_reads": true,
	"bytes": true,
}

// volatileStrKeys are timestamp-valued fields, replaced by "T".
var volatileStrKeys = map[string]bool{"time": true, "start": true}

func scrubJSON(v interface{}) interface{} {
	switch x := v.(type) {
	case map[string]interface{}:
		for k, val := range x {
			switch {
			case volatileNumKeys[k]:
				x[k] = 0
			case volatileStrKeys[k]:
				x[k] = "T"
			default:
				x[k] = scrubJSON(val)
			}
		}
		return x
	case []interface{}:
		for i := range x {
			x[i] = scrubJSON(x[i])
		}
		return x
	}
	return v
}

// normalizeJSON re-encodes a JSON body with volatile fields scrubbed and
// keys in sorted order, so golden files are stable and readable.
func normalizeJSON(t *testing.T, body []byte) []byte {
	t.Helper()
	var v interface{}
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	out, err := json.MarshalIndent(scrubJSON(v), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// Histogram bucket/sum values and I/O counters in the exposition depend
// on timing and cache state; their values become X. Series names,
// labels, and the deterministic counters stay exact.
var metricsVolatile = []*regexp.Regexp{
	regexp.MustCompile(`^(xrank_\w+_bucket\{[^}]*\}) \d+$`),
	regexp.MustCompile(`^(xrank_\w+_sum(\{[^}]*\})?) [0-9.eE+-]+$`),
	regexp.MustCompile(`^(xrank_(?:page_reads|seq_reads|rand_reads|cache_hits)_total) \d+$`),
	regexp.MustCompile(`^(xrank_cache_result_bytes) \d+$`),
}

func normalizeMetrics(body []byte) []byte {
	lines := bytes.Split(body, []byte("\n"))
	for i, line := range lines {
		for _, re := range metricsVolatile {
			if m := re.FindSubmatch(line); m != nil {
				lines[i] = append(append([]byte{}, m[1]...), []byte(" X")...)
				break
			}
		}
	}
	return bytes.Join(lines, []byte("\n"))
}

func get(t *testing.T, mux http.Handler, url string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
	return rec
}

// TestGoldenAPI drives one deterministic request sequence against a
// fresh engine and pins every observability endpoint's response.
func TestGoldenAPI(t *testing.T) {
	e := newTestEngine(t)
	e.SlowLog().SetThreshold(0) // log every query
	e.ConfigureResultCache(1 << 20)
	e.SetCoalesceQueries(true)
	mux := newMux(e, muxOptions{Metrics: true, Admission: cache.NewAdmission(4, 8)})

	// 1. A budget of one device read cannot satisfy a cold RDIL query
	//    (B+-tree probes alone need more): deterministic 503. This must
	//    run first, while the buffer pools are still empty.
	if rec := get(t, mux, "/api/search?q=xql+language&algo=rdil&budget=1"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("budget query: status %d, want 503: %s", rec.Code, rec.Body)
	}

	// 2. Invalid requests: 400 before any query runs.
	for _, bad := range []string{
		"/api/search",
		"/api/search?q=xql&budget=0",
		"/api/search?q=xql&timeout_ms=no",
		"/api/slowlog?limit=0",
	} {
		if rec := get(t, mux, bad); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", bad, rec.Code)
		}
	}

	// 3. A clean DIL query: the /api/search shape.
	rec := get(t, mux, "/api/search?q=xql+language&m=5&algo=dil")
	if rec.Code != 200 {
		t.Fatalf("search: status %d: %s", rec.Code, rec.Body)
	}
	checkGolden(t, "search.golden", normalizeJSON(t, rec.Body.Bytes()))

	// 4. Shard I/O shape.
	rec = get(t, mux, "/api/shards")
	if rec.Code != 200 {
		t.Fatalf("shards: status %d", rec.Code)
	}
	checkGolden(t, "shards.golden", normalizeJSON(t, rec.Body.Bytes()))

	// 5. The slow log holds both queries (newest first): the failed
	//    budget probe and the clean search, each with its span trace.
	rec = get(t, mux, "/api/slowlog")
	if rec.Code != 200 {
		t.Fatalf("slowlog: status %d", rec.Code)
	}
	checkGolden(t, "slowlog.golden", normalizeJSON(t, rec.Body.Bytes()))

	// 6. The full Prometheus exposition after the sequence.
	rec = get(t, mux, "/metrics")
	if rec.Code != 200 {
		t.Fatalf("metrics: status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("metrics content type = %q", ct)
	}
	checkGolden(t, "metrics.golden", normalizeMetrics(rec.Body.Bytes()))

	// 7. The exact query from step 3 again: a result-cache hit, marked in
	//    the response and, since the threshold is zero, in the slow log.
	rec = get(t, mux, "/api/search?q=xql+language&m=5&algo=dil")
	if rec.Code != 200 {
		t.Fatalf("cached search: status %d: %s", rec.Code, rec.Body)
	}
	checkGolden(t, "search_cached.golden", normalizeJSON(t, rec.Body.Bytes()))
	if rec = get(t, mux, "/api/slowlog?limit=1"); !bytes.Contains(rec.Body.Bytes(), []byte(`"cached":true`)) {
		t.Errorf("slow log's newest entry is not marked cached: %s", rec.Body)
	}

	// 8. Cache and admission introspection after the whole sequence.
	rec = get(t, mux, "/api/cache")
	if rec.Code != 200 {
		t.Fatalf("cache stats: status %d", rec.Code)
	}
	checkGolden(t, "cache.golden", normalizeJSON(t, rec.Body.Bytes()))

	// 9. A saturated admission controller with no queue sheds
	//    deterministically: 429, Retry-After, JSON body.
	adm := cache.NewAdmission(1, -1)
	if err := adm.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer adm.Release()
	busy := newMux(e, muxOptions{Admission: adm})
	rec = get(t, busy, "/api/search?q=xql")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("shed request: status %d, want 429: %s", rec.Code, rec.Body)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "1" {
		t.Errorf("shed request Retry-After = %q, want \"1\"", ra)
	}
	checkGolden(t, "shed.golden", normalizeJSON(t, rec.Body.Bytes()))
}

// TestMuxOptions checks that the opt-in endpoints stay off by default.
func TestMuxOptions(t *testing.T) {
	e := newTestEngine(t)
	plain := newMux(e, muxOptions{})
	if rec := get(t, plain, "/metrics"); rec.Code != http.StatusNotFound {
		t.Errorf("metrics off: status %d, want 404", rec.Code)
	}
	if rec := get(t, plain, "/debug/pprof/"); rec.Code != http.StatusNotFound {
		t.Errorf("pprof off: status %d, want 404", rec.Code)
	}
	withPprof := newMux(e, muxOptions{Pprof: true})
	if rec := get(t, withPprof, "/debug/pprof/"); rec.Code != 200 {
		t.Errorf("pprof on: status %d, want 200", rec.Code)
	}
}

// TestSearchErrorStatus pins the error→HTTP-status mapping, including
// the 504 path a live request can only hit flakily (the query would
// have to lose a race with its own deadline).
func TestSearchErrorStatus(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{context.DeadlineExceeded, http.StatusGatewayTimeout},
		{fmt.Errorf("wrap: %w", context.DeadlineExceeded), http.StatusGatewayTimeout},
		{context.Canceled, http.StatusServiceUnavailable},
		{xrank.ErrBudgetExceeded, http.StatusServiceUnavailable},
		{fmt.Errorf("storage: %w (limit 1)", xrank.ErrBudgetExceeded), http.StatusServiceUnavailable},
		{fmt.Errorf("%w: %q", xrank.ErrNoKeywords, "!!!"), http.StatusBadRequest},
		{errors.New("boom"), http.StatusInternalServerError},
	}
	for _, tc := range cases {
		if got := searchErrorStatus(tc.err); got != tc.want {
			t.Errorf("searchErrorStatus(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}
