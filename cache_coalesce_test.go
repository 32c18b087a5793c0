package xrank

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Engine-level coalescing under the race detector: a stampede of
// identical queries must resolve into few executions whose result every
// caller shares, with per-request accounting intact. The cache is off so
// every round starts a fresh flight; the deterministic exactly-once and
// waiter-cancellation contracts live in internal/cache's unit tests —
// this exercises the full engine path (flight context, I/O attribution,
// metrics) concurrently.
func TestEngineCoalesceRace(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	e := NewEngine(&Config{IndexDir: t.TempDir(), CoalesceQueries: true})
	for n := 0; n < 30; n++ {
		if err := e.AddXML(fmt.Sprintf("doc%02d", n), strings.NewReader(diffDoc(rng, n))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Build(); err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const rounds, callers = 4, 16
	opts := SearchOptions{Algorithm: AlgoDIL, TopM: 25}
	requests := 0
	for round := 0; round < rounds; round++ {
		q := diffQueries[round%len(diffQueries)]
		var (
			start   sync.WaitGroup
			done    sync.WaitGroup
			mu      sync.Mutex
			results [][]SearchResult
			stats   []*QueryStats
		)
		start.Add(1)
		for i := 0; i < callers; i++ {
			done.Add(1)
			go func() {
				defer done.Done()
				start.Wait()
				rs, st, err := e.SearchContext(context.Background(), q, opts)
				if err != nil {
					t.Errorf("round %d: %v", round, err)
					return
				}
				mu.Lock()
				results = append(results, rs)
				stats = append(stats, st)
				mu.Unlock()
			}()
		}
		start.Done()
		done.Wait()
		requests += callers
		if len(results) != callers {
			t.Fatalf("round %d: %d successes", round, len(results))
		}
		executions := 0
		for _, st := range stats {
			if st.Cached {
				t.Fatalf("round %d: cached result with the cache disabled", round)
			}
			if !st.Coalesced {
				executions++
				continue
			}
			// A coalesced caller did no I/O of its own.
			if st.IO.Reads != 0 || st.IO.CacheHits != 0 {
				t.Fatalf("round %d: coalesced caller attributed I/O: %+v", round, st.IO)
			}
		}
		if executions < 1 {
			t.Fatalf("round %d: no caller executed", round)
		}
		// Every caller shares one result set, element for element.
		for i := 1; i < len(results); i++ {
			if len(results[i]) != len(results[0]) {
				t.Fatalf("round %d: caller %d got %d results, caller 0 got %d",
					round, i, len(results[i]), len(results[0]))
			}
			for j := range results[i] {
				if results[i][j] != results[0][j] {
					t.Fatalf("round %d: caller %d result %d differs", round, i, j)
				}
			}
		}
	}

	// Per-request accounting: with no abandoned callers, every request —
	// executed or coalesced — recorded exactly one query.
	total := e.Metrics().Counter(metricQueries, helpQueries, "algo", "DIL").Value()
	if total != int64(requests) {
		t.Fatalf("queries_total = %d, want %d (one per request)", total, requests)
	}

	// A waiter whose context dies mid-stampede either shares the flight's
	// result (it resolved first) or gets its own ctx error — never a
	// partial result, never a crash. Run it a few times under -race.
	for i := 0; i < 4; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		for j := 0; j < 4; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, _, err := e.SearchContext(context.Background(), "alpha beta gamma", opts); err != nil {
					t.Errorf("survivor: %v", err)
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rs, _, err := e.SearchContext(ctx, "alpha beta gamma", opts)
			if err == nil && rs == nil {
				t.Error("cancelled caller: nil results without error")
			}
			if err != nil && err != context.Canceled && !strings.Contains(err.Error(), "context canceled") {
				t.Errorf("cancelled caller: unexpected error %v", err)
			}
		}()
		time.Sleep(time.Duration(i) * 100 * time.Microsecond)
		cancel()
		wg.Wait()
	}
}

// TestCloseDuringQueries closes an engine while coalesced and uncoalesced
// queries are in flight. Close waits for the executing ones; every query
// either succeeds or fails with ErrClosed, and none indexes the cleared
// segment set. Run it under -race with a high -count.
func TestCloseDuringQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	e := NewEngine(&Config{IndexDir: t.TempDir(), CoalesceQueries: true})
	for n := 0; n < 12; n++ {
		if err := e.AddXML(fmt.Sprintf("doc%02d", n), strings.NewReader(diffDoc(rng, n))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Build(); err != nil {
		t.Fatal(err)
	}

	const callers = 8
	var (
		wg        sync.WaitGroup
		succeeded atomic.Int64
	)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			opts := SearchOptions{Algorithm: AlgoDIL, TopM: 10}
			if i%2 == 1 {
				// A page-read budget keeps a query out of coalescing.
				opts.MaxPageReads = 1 << 30
			}
			for k := 0; ; k++ {
				_, _, err := e.SearchContext(context.Background(), diffQueries[k%len(diffQueries)], opts)
				if errors.Is(err, ErrClosed) {
					return
				}
				if err != nil {
					t.Errorf("caller %d: %v", i, err)
					return
				}
				succeeded.Add(1)
			}
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); succeeded.Load() < callers && time.Now().Before(deadline); {
		time.Sleep(100 * time.Microsecond)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// TestCacheStaleNeverServed pins the invalidation protocol directly:
// DeleteDoc evicts exactly the cached entries whose results mention the
// victim (unrelated hot entries keep hitting), a fresh execution
// repopulates the cache, and ColdCache still invalidates everything via
// the generation bump.
func TestCacheStaleNeverServed(t *testing.T) {
	pool := make(map[string]string)
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 6; n++ {
		pool[fmt.Sprintf("doc%02d", n)] = diffDoc(rng, n)
	}
	e := NewEngine(&Config{IndexDir: t.TempDir(), CacheBytes: 1 << 20})
	for n := 0; n < 6; n++ {
		name := fmt.Sprintf("doc%02d", n)
		if err := e.AddXML(name, strings.NewReader(pool[name])); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Build(); err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	search := func(tag, q string) ([]SearchResult, *QueryStats) {
		t.Helper()
		rs, st, err := e.SearchDetailed(q, SearchOptions{TopM: 10})
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		return rs, st
	}
	// uniqN occurs only in docN, so "uniq1" results mention exactly doc01
	// and "uniq2" exactly doc02.
	if _, st := search("cold victim", "uniq1"); st.Cached {
		t.Fatal("first query served from an empty cache")
	}
	if _, st := search("warm victim", "uniq1"); !st.Cached {
		t.Fatal("repeat query missed the cache")
	}
	search("warm unrelated", "uniq2")
	if _, st := search("warm unrelated", "uniq2"); !st.Cached {
		t.Fatal("repeat unrelated query missed the cache")
	}
	if err := e.DeleteDoc("doc01"); err != nil {
		t.Fatal(err)
	}
	rs, st := search("post-delete victim", "uniq1")
	if st.Cached {
		t.Fatal("stale result served across DeleteDoc of its only document")
	}
	if len(rs) != 0 {
		t.Fatalf("deleted document still surfaced: %+v", rs)
	}
	if _, st := search("post-delete unrelated", "uniq2"); !st.Cached {
		t.Fatal("DeleteDoc of doc01 evicted the unrelated doc02 entry")
	}
	if _, st := search("rewarm victim", "uniq1"); !st.Cached {
		t.Fatal("post-delete result was not re-cached")
	}
	if err := e.ColdCache(); err != nil {
		t.Fatal(err)
	}
	if _, st := search("post-coldcache", "uniq2"); st.Cached {
		t.Fatal("stale result served across ColdCache")
	}
	if st := e.CacheStats(); st.Stale < 1 {
		t.Fatalf("expected >= 1 stale drop, got %+v", st)
	}
	if st := e.CacheStats(); st.Evictions < 1 {
		t.Fatalf("expected >= 1 per-document eviction, got %+v", st)
	}
}
