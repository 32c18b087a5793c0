package xrank

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestConcurrentSearches exercises the engine under parallel queries (run
// with -race): buffer pools pin/unpin concurrently, cursors are
// independent, and DeleteDoc may interleave with queries.
func TestConcurrentSearches(t *testing.T) {
	e := NewEngine(nil)
	for d := 0; d < 8; d++ {
		var b strings.Builder
		b.WriteString("<proc>")
		for i := 0; i < 40; i++ {
			fmt.Fprintf(&b, "<rec><t>shared topic item w%d common words</t></rec>", i%13)
		}
		b.WriteString("</proc>")
		if err := e.AddXML(fmt.Sprintf("doc%d", d), strings.NewReader(b.String())); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Build(); err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	queries := []string{"shared topic", "common words", "item w3", "topic common", "w5"}
	algos := []Algorithm{AlgoDIL, AlgoRDIL, AlgoHDIL}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				q := queries[(g+i)%len(queries)]
				a := algos[(g*7+i)%len(algos)]
				if _, _, err := e.SearchDetailed(q, SearchOptions{TopM: 5, Algorithm: a}); err != nil {
					errs <- fmt.Errorf("goroutine %d: %v on %q: %w", g, a, q, err)
					return
				}
			}
		}(g)
	}
	// Interleave a tombstone while queries run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := e.DeleteDoc("doc7"); err != nil {
			errs <- err
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// After the dust settles, doc7 must be gone from results.
	rs, _, err := e.SearchDetailed("shared topic", SearchOptions{TopM: 100})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.Doc == "doc7" {
			t.Errorf("tombstoned doc7 still in results")
		}
	}
}

// buildConcurrencyCorpus builds an engine over docs documents of recs
// records each, all sharing a small vocabulary so every query's inverted
// lists span multiple pages.
func buildConcurrencyCorpus(t *testing.T, docs, recs int) *Engine {
	return buildConcurrencyCorpusCfg(t, nil, docs, recs)
}

func buildConcurrencyCorpusCfg(t *testing.T, cfg *Config, docs, recs int) *Engine {
	t.Helper()
	e := NewEngine(cfg)
	for d := 0; d < docs; d++ {
		if err := e.AddXML(fmt.Sprintf("doc%d", d), strings.NewReader(concurrencyDoc(recs))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Build(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// concurrencyDoc is one document of the concurrency corpus: recs records
// that all hold "alpha beta gamma".
func concurrencyDoc(recs int) string {
	var b strings.Builder
	b.WriteString("<proc>")
	for i := 0; i < recs; i++ {
		fmt.Fprintf(&b, "<rec><t>alpha beta filler%d gamma shared topic w%d</t></rec>", i%31, i%13)
	}
	b.WriteString("</proc>")
	return b.String()
}

// TestConcurrentSearchContextAttribution runs many SearchContext queries
// in parallel (run with -race) and checks that each query's QueryStats.IO
// is attributed to exactly that query: its page-access total (device
// reads + buffer-pool hits) equals the total the same query performs
// solo, its read classification is internally consistent, and the
// engine's IOStats totals equal the sum of the per-query ones.
func TestConcurrentSearchContextAttribution(t *testing.T) {
	e := buildConcurrencyCorpus(t, 8, 60)

	type combo struct {
		q    string
		algo Algorithm
	}
	combos := []combo{
		{"alpha beta", AlgoDIL},
		{"shared topic", AlgoDIL},
		{"alpha gamma", AlgoRDIL},
		{"beta topic", AlgoRDIL},
		{"gamma shared", AlgoDIL},
	}
	// Solo baselines: the page-access sequence of DIL/RDIL is
	// deterministic, so accesses (reads + hits) are independent of cache
	// state and of concurrency — only the read/hit split may move.
	type baseline struct {
		accesses int64
		ids      []string
	}
	base := make(map[string]baseline)
	for _, c := range combos {
		rs, stats, err := e.SearchContext(context.Background(), c.q, SearchOptions{TopM: 5, Algorithm: c.algo})
		if err != nil {
			t.Fatalf("solo %v %q: %v", c.algo, c.q, err)
		}
		ids := make([]string, len(rs))
		for i, r := range rs {
			ids[i] = r.DeweyID
		}
		base[c.q+"/"+c.algo.String()] = baseline{accesses: stats.IO.Reads + stats.IO.CacheHits, ids: ids}
		if stats.IO.Reads+stats.IO.CacheHits == 0 {
			t.Fatalf("solo %v %q touched no pages", c.algo, c.q)
		}
	}

	before := e.IOStats()
	var totalReads, totalHits int64
	var wg sync.WaitGroup
	errs := make(chan error, 256)
	const goroutines, iters = 8, 12
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var reads, hits int64
			for i := 0; i < iters; i++ {
				c := combos[(g*5+i)%len(combos)]
				rs, stats, err := e.SearchContext(context.Background(), c.q, SearchOptions{TopM: 5, Algorithm: c.algo})
				if err != nil {
					errs <- fmt.Errorf("goroutine %d: %v %q: %w", g, c.algo, c.q, err)
					return
				}
				b := base[c.q+"/"+c.algo.String()]
				if got := stats.IO.Reads + stats.IO.CacheHits; got != b.accesses {
					errs <- fmt.Errorf("goroutine %d: %v %q touched %d pages concurrently, %d solo (cross-query bleed)",
						g, c.algo, c.q, got, b.accesses)
					return
				}
				if stats.IO.Reads != stats.IO.SeqReads+stats.IO.RandReads {
					errs <- fmt.Errorf("goroutine %d: inconsistent classification %+v", g, stats.IO)
					return
				}
				if len(rs) != len(b.ids) {
					errs <- fmt.Errorf("goroutine %d: %v %q returned %d results, want %d", g, c.algo, c.q, len(rs), len(b.ids))
					return
				}
				for j := range rs {
					if rs[j].DeweyID != b.ids[j] {
						errs <- fmt.Errorf("goroutine %d: %v %q result %d = %s, want %s", g, c.algo, c.q, j, rs[j].DeweyID, b.ids[j])
						return
					}
				}
				reads += stats.IO.Reads
				hits += stats.IO.CacheHits
			}
			atomic.AddInt64(&totalReads, reads)
			atomic.AddInt64(&totalHits, hits)
		}(g)
	}
	// A ninth, cancelled query must return promptly with a context error
	// while the others keep running undisturbed.
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, _, err := e.SearchContext(ctx, "alpha beta", SearchOptions{TopM: 5, Algorithm: AlgoDIL})
		if !errors.Is(err, context.Canceled) {
			errs <- fmt.Errorf("pre-cancelled query err = %v, want context.Canceled", err)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	diff := e.IOStats().Sub(before)
	if diff.Reads != totalReads || diff.CacheHits != totalHits {
		t.Errorf("global counters (%d reads, %d hits) != sum of per-query stats (%d reads, %d hits)",
			diff.Reads, diff.CacheHits, totalReads, totalHits)
	}
}

// countdownCtx is a context whose deadline "expires" after a fixed number
// of Err checks, making mid-merge expiry deterministic for tests. Only
// Err is consulted by the execution context, so Done never closing is
// irrelevant here.
type countdownCtx struct {
	context.Context
	remaining int64
}

func (c *countdownCtx) Err() error {
	if atomic.AddInt64(&c.remaining, -1) < 0 {
		return context.DeadlineExceeded
	}
	return nil
}

// TestSearchContextCancellation checks that a deadline-expired context
// aborts a DIL merge with context.DeadlineExceeded — both before the
// first page access and, via a countdown context, in the middle of a
// large merge.
func TestSearchContextCancellation(t *testing.T) {
	e := buildConcurrencyCorpus(t, 12, 600)
	opts := SearchOptions{TopM: 10, Algorithm: AlgoDIL, ColdCache: true}

	// The merge must be large enough that 10 accesses are mid-merge.
	_, stats, err := e.SearchContext(context.Background(), "alpha beta gamma", opts)
	if err != nil {
		t.Fatal(err)
	}
	accesses := stats.IO.Reads + stats.IO.CacheHits
	if accesses <= 20 {
		t.Fatalf("corpus too small for a mid-merge test: %d page accesses", accesses)
	}

	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	defer cancel()
	if _, _, err := e.SearchContext(expired, "alpha beta gamma", opts); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("expired deadline err = %v, want context.DeadlineExceeded", err)
	}

	mid := &countdownCtx{Context: context.Background(), remaining: 10}
	if _, _, err := e.SearchContext(mid, "alpha beta gamma", opts); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("mid-merge expiry err = %v, want context.DeadlineExceeded", err)
	}
}

// TestShardedCancellationFanout checks that cancellation fans out to
// every partition worker of a partitioned index: a countdown context that
// expires mid-merge must abort the whole query with
// context.DeadlineExceeded, and every worker — including ones blocked
// mid-merge on other partitions — must release its pinned pages. The pin
// check is ColdCache: BufferPool.Reset refuses to drop a pool while any
// page is pinned, so a successful ColdCache right after the aborted
// query proves no partition leaked a pin. It runs on one segment and on
// a stale base beside a fresh delta (Build, then AddDocs), where the
// executor fans out over both segments' shards at once. Run under -race
// (the CI matrix covers this package).
func TestShardedCancellationFanout(t *testing.T) {
	const shards = 5
	for _, tc := range []struct {
		name  string
		delta int // documents AddDocs adds after Build; 0 keeps one segment
	}{
		{"one segment", 0},
		{"stale base and fresh delta", 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := buildConcurrencyCorpusCfg(t, &Config{Shards: shards}, 20, 600)
			wantSegs := 1
			if tc.delta > 0 {
				batch := make(map[string]io.Reader, tc.delta)
				for d := 0; d < tc.delta; d++ {
					batch[fmt.Sprintf("delta%d", d)] = strings.NewReader(concurrencyDoc(600))
				}
				if err := e.AddDocs(batch); err != nil {
					t.Fatal(err)
				}
				wantSegs = 2
				if segs := e.Segments(); len(segs) != 2 || !segs[0].Stale || segs[1].Stale {
					t.Fatalf("segments after AddDocs = %+v, want a stale base and a fresh delta", segs)
				}
			}
			checkCancellationFanout(t, e, shards, wantSegs)
		})
	}
}

func checkCancellationFanout(t *testing.T, e *Engine, shards, segments int) {
	opts := SearchOptions{TopM: 10, Algorithm: AlgoDIL, ColdCache: true}

	// Establish that the sharded merge is large enough that 12 page
	// accesses land mid-merge, and that the fan-out actually happened.
	rs, stats, err := e.SearchContext(context.Background(), "alpha beta gamma", opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Shards != shards || stats.Segments != segments {
		t.Fatalf("query fanned out over %d shards of %d segments, want %d of %d", stats.Shards, stats.Segments, shards, segments)
	}
	if len(rs) == 0 {
		t.Fatal("sharded corpus query returned no results")
	}
	accesses := stats.IO.Reads + stats.IO.CacheHits
	if accesses <= 2*12 {
		t.Fatalf("corpus too small for a mid-merge test: %d page accesses", accesses)
	}

	for _, algo := range []Algorithm{AlgoDIL, AlgoRDIL, AlgoHDIL} {
		mid := &countdownCtx{Context: context.Background(), remaining: 12}
		if _, _, err := e.SearchContext(mid, "alpha beta gamma", SearchOptions{
			TopM: 10, Algorithm: algo, ColdCache: true,
		}); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%v: mid-merge expiry err = %v, want context.DeadlineExceeded", algo, err)
		}
		// Every partition worker must have unpinned its pages on the
		// abort path; Reset would fail otherwise.
		if err := e.ColdCache(); err != nil {
			t.Fatalf("%v: ColdCache after aborted sharded query: %v (a partition worker leaked a pinned page)", algo, err)
		}
	}

	// The family-wide budget must also fan out: the partitions draw
	// device reads from one shared pool and abort together.
	_, _, err = e.SearchContext(context.Background(), "alpha beta gamma", SearchOptions{
		TopM: 10, Algorithm: AlgoDIL, ColdCache: true, MaxPageReads: 3,
	})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("sharded tiny budget err = %v, want ErrBudgetExceeded", err)
	}
	if err := e.ColdCache(); err != nil {
		t.Fatalf("ColdCache after budget abort: %v", err)
	}

	// And the engine must still be healthy: the same query completes with
	// the same results.
	rs2, stats2, err := e.SearchContext(context.Background(), "alpha beta gamma", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs2) != len(rs) {
		t.Fatalf("follow-up query returned %d results, want %d", len(rs2), len(rs))
	}
	for i := range rs {
		if rs2[i].DeweyID != rs[i].DeweyID {
			t.Fatalf("follow-up result %d = %s, want %s", i, rs2[i].DeweyID, rs[i].DeweyID)
		}
	}
	if got := stats2.IO.Reads + stats2.IO.CacheHits; got != accesses {
		t.Errorf("follow-up query touched %d pages, want %d (cross-query state leaked)", got, accesses)
	}
}

// TestSearchContextBudget checks that exceeding MaxPageReads aborts the
// query with ErrBudgetExceeded, and that a sufficient budget does not.
func TestSearchContextBudget(t *testing.T) {
	e := buildConcurrencyCorpus(t, 6, 120)
	opts := SearchOptions{TopM: 10, Algorithm: AlgoDIL, ColdCache: true, MaxPageReads: 2}
	_, _, err := e.SearchContext(context.Background(), "alpha beta gamma", opts)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("tiny budget err = %v, want ErrBudgetExceeded", err)
	}
	opts.MaxPageReads = 1 << 20
	if _, _, err := e.SearchContext(context.Background(), "alpha beta gamma", opts); err != nil {
		t.Fatalf("ample budget err = %v", err)
	}
}
