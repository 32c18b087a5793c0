package main

import (
	"bufio"
	"encoding/json"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestMetricsUnderConcurrentQueries runs the serve-time access pattern
// end to end: 16 goroutines issue queries through /api/search while
// others scrape /metrics and read /api/slowlog. Run under -race this
// exercises the whole query → registry → exposition path; afterwards
// the global counters must equal the sums of the per-query stats the
// search responses reported — every query counted exactly once, no
// bleed between concurrent queries.
func TestMetricsUnderConcurrentQueries(t *testing.T) {
	e := newTestEngine(t)
	e.SlowLog().SetThreshold(0) // log every query
	mux := newMux(e, muxOptions{Metrics: true})

	const (
		queryGoroutines = 16
		perGoroutine    = 25
	)
	urls := []string{
		"/api/search?q=xql+language&algo=dil",
		"/api/search?q=xml+search&algo=rdil",
		"/api/search?q=xml+systems&algo=hdil",
	}

	var (
		wantQueries = int64(queryGoroutines * perGoroutine)
		gotReads    atomic.Int64 // summed from per-query responses
		gotHits     atomic.Int64
	)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if rec := get(t, mux, "/metrics"); rec.Code != 200 {
					t.Errorf("metrics scrape: status %d", rec.Code)
					return
				}
				if rec := get(t, mux, "/api/slowlog?limit=10"); rec.Code != 200 {
					t.Errorf("slowlog read: status %d", rec.Code)
					return
				}
			}
		}()
	}

	var writers sync.WaitGroup
	for g := 0; g < queryGoroutines; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < perGoroutine; i++ {
				rec := get(t, mux, urls[(g+i)%len(urls)])
				if rec.Code != 200 {
					t.Errorf("query: status %d: %s", rec.Code, rec.Body)
					return
				}
				var resp struct {
					IOReads   int64 `json:"io_reads"`
					CacheHits int64 `json:"cache_hits"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Error(err)
					return
				}
				gotReads.Add(resp.IOReads)
				gotHits.Add(resp.CacheHits)
			}
		}(g)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if t.Failed() {
		return
	}

	// A final scrape: global totals vs the per-query sums.
	rec := get(t, mux, "/metrics")
	if rec.Code != 200 {
		t.Fatalf("final scrape: status %d", rec.Code)
	}
	series := parseExposition(t, rec.Body.String())
	checks := []struct {
		name string
		want int64
	}{
		{"xrank_queries_total", wantQueries},
		{"xrank_query_latency_seconds_count", wantQueries},
		{"xrank_page_reads_total", gotReads.Load()},
		{"xrank_cache_hits_total", gotHits.Load()},
		{"xrank_query_errors_total", 0},
		{"xrank_inflight_queries", 0},
		{"xrank_slow_queries_total", wantQueries},
	}
	for _, c := range checks {
		if got := series[c.name]; got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
	if got := e.SlowLog().Total(); got != wantQueries {
		t.Errorf("slowlog total = %d, want %d", got, wantQueries)
	}
}

// parseExposition sums every sample of each metric family (folding the
// per-label series of e.g. xrank_queries_total into one total).
// Histogram bucket samples are skipped so _count sums stay meaningful.
func parseExposition(t *testing.T, text string) map[string]int64 {
	t.Helper()
	out := map[string]int64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") || strings.Contains(line, "_bucket{") {
			continue
		}
		name, rest, _ := strings.Cut(line, " ")
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(rest, 64)
		if err != nil {
			t.Fatalf("bad exposition line %q: %v", line, err)
		}
		out[name] += int64(v)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
