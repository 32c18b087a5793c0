package bench

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"xrank"
)

// The result-cache experiment (E11, an extension beyond the paper): a
// Zipfian stream of conjunctive queries against one engine with the
// result cache and coalescing enabled, swept over the stream's skew. The
// skewed head of the distribution turns into cache hits after its first
// appearance, so the hit ratio tracks the skew; the headline number is
// the hot/cold latency ratio — a hit copies a cached result set, a cold
// (uncached) execution runs the full sharded DIL merge. Results are
// serialized to BENCH_cache.json for CI trend tracking.

// CacheBenchRun is the measurement of one Zipf skew setting.
type CacheBenchRun struct {
	ZipfS           float64 `json:"zipf_s"`
	Requests        int     `json:"requests"`
	Hits            int64   `json:"hits"`
	HitRatio        float64 `json:"hit_ratio"`
	AvgHitMicros    int64   `json:"avg_hit_micros"`
	AvgMissMicros   int64   `json:"avg_miss_micros"`
	BytesResident   int64   `json:"bytes_resident"`
	EntriesResident int     `json:"entries_resident"`
}

// CacheBenchReport is the JSON artifact (BENCH_cache.json) of E11.
type CacheBenchReport struct {
	Corpus     string `json:"corpus"`
	Docs       int    `json:"docs"`
	Elements   int    `json:"elements"`
	Shards     int    `json:"shards"`
	Workers    int    `json:"workers"`
	TopM       int    `json:"top_m"`
	CacheBytes int64  `json:"cache_bytes"`
	Pool       int    `json:"distinct_queries"`

	Runs []CacheBenchRun `json:"runs"`

	// The hot/cold headline at top-k: ColdMicros is the mean wall time of
	// repeated executions with the cache disabled, HotMicros the mean
	// wall time of cache hits on the same queries, HotSpeedup their
	// ratio (the acceptance floor for this experiment is 5x).
	ColdMicros int64   `json:"cold_micros"`
	HotMicros  int64   `json:"hot_micros"`
	HotSpeedup float64 `json:"hot_speedup"`
}

// WriteJSON writes the report to path, indented.
func (r *CacheBenchReport) WriteJSON(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// cacheBenchPool builds the distinct-query population: adjacent-rank
// pairs from the corpus's shared Zipf vocabulary (w0 is the most
// frequent word), so low pool indices are long-list queries and the
// whole pool is guaranteed non-empty on the XMark-shaped corpus.
func cacheBenchPool(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("w%d w%d", i, i+1)
	}
	return out
}

// E11Cache builds the XMark-shaped corpus once and measures the result
// cache two ways: the Zipf-skew sweep (hit ratio and per-class latency
// under realistic mixed traffic) and the hot/cold repeated-query
// headline at top-m.
func E11Cache(baseDir string, docs int, scale float64, seed int64, topM int) (*Table, *CacheBenchReport, error) {
	const (
		cacheBytes = 8 << 20
		poolSize   = 32
		requests   = 400
		shards     = 4
	)
	e := xrank.NewEngine(&xrank.Config{
		IndexDir:        baseDir,
		Shards:          shards,
		CacheBytes:      cacheBytes,
		CoalesceQueries: true,
	})
	for d, x := range shardCorpus(docs, scale, seed) {
		if err := e.AddXML(fmt.Sprintf("xmark%02d", d), strings.NewReader(x)); err != nil {
			return nil, nil, err
		}
	}
	info, err := e.Build()
	if err != nil {
		return nil, nil, err
	}
	defer e.Close()

	pool := cacheBenchPool(poolSize)
	rep := &CacheBenchReport{
		Corpus:     "xmark",
		Docs:       docs,
		Elements:   info.NumElements,
		Shards:     shards,
		Workers:    runtime.GOMAXPROCS(0),
		TopM:       topM,
		CacheBytes: cacheBytes,
		Pool:       poolSize,
	}
	t := &Table{
		Title:  fmt.Sprintf("E11 (extension): result cache on a Zipfian query mix, %d distinct queries, top-%d", poolSize, topM),
		Header: []string{"zipf s", "requests", "hit ratio", "avg hit", "avg miss"},
		Comment: "One engine, result cache + coalescing on. Each row replays a fresh Zipfian request\n" +
			"stream over the same query pool against an emptied cache: the more skewed the stream,\n" +
			"the more of it is absorbed by whole-result reuse. A hit costs a key build and a copy;\n" +
			"a miss runs the full sharded merge.",
	}

	// Warm the OS page cache and buffer pools once so the sweep measures
	// merge work against cache work, not first-touch I/O.
	for _, q := range pool {
		if _, _, err := e.SearchDetailed(q, xrank.SearchOptions{TopM: topM, Algorithm: xrank.AlgoDIL}); err != nil {
			return nil, nil, fmt.Errorf("bench: cache warmup %q: %w", q, err)
		}
	}

	for _, s := range []float64{1.07, 1.5, 2.5} {
		// A fresh cache per row: ratios describe this stream only.
		e.ConfigureResultCache(cacheBytes)
		rng := rand.New(rand.NewSource(seed + int64(s*100)))
		zipf := rand.NewZipf(rng, s, 1, poolSize-1)
		run := CacheBenchRun{ZipfS: s, Requests: requests}
		var hitWall, missWall time.Duration
		var misses int64
		for i := 0; i < requests; i++ {
			q := pool[zipf.Uint64()]
			_, stats, err := e.SearchDetailed(q, xrank.SearchOptions{TopM: topM, Algorithm: xrank.AlgoDIL})
			if err != nil {
				return nil, nil, fmt.Errorf("bench: cache sweep s=%.2f %q: %w", s, q, err)
			}
			if stats.Cached {
				run.Hits++
				hitWall += stats.WallTime
			} else {
				misses++
				missWall += stats.WallTime
			}
		}
		run.HitRatio = float64(run.Hits) / float64(requests)
		if run.Hits > 0 {
			run.AvgHitMicros = hitWall.Microseconds() / run.Hits
		}
		if misses > 0 {
			run.AvgMissMicros = missWall.Microseconds() / misses
		}
		cs := e.CacheStats()
		run.BytesResident = cs.Bytes
		run.EntriesResident = cs.Entries
		rep.Runs = append(rep.Runs, run)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f", s),
			fmt.Sprintf("%d", requests),
			fmt.Sprintf("%.1f%%", 100*run.HitRatio),
			fmt.Sprintf("%dµs", run.AvgHitMicros),
			fmt.Sprintf("%dµs", run.AvgMissMicros),
		})
	}

	// The hot/cold headline. Cold: the cache disabled outright, so every
	// repetition runs the full merge with warm buffer pools — the honest
	// baseline (an opts.ColdCache run would also pay first-touch I/O and
	// flatter the cache). Hot: one priming pass, then pure hits.
	const headQueries, coldReps, hotReps = 8, 5, 50
	e.ConfigureResultCache(0)
	var coldWall time.Duration
	for _, q := range pool[:headQueries] {
		for r := 0; r < coldReps; r++ {
			_, stats, err := e.SearchDetailed(q, xrank.SearchOptions{TopM: topM, Algorithm: xrank.AlgoDIL})
			if err != nil {
				return nil, nil, fmt.Errorf("bench: cold %q: %w", q, err)
			}
			if stats.Cached {
				return nil, nil, fmt.Errorf("bench: cold rep of %q was served from a disabled cache", q)
			}
			coldWall += stats.WallTime
		}
	}
	e.ConfigureResultCache(cacheBytes)
	var hotWall time.Duration
	for _, q := range pool[:headQueries] {
		if _, _, err := e.SearchDetailed(q, xrank.SearchOptions{TopM: topM, Algorithm: xrank.AlgoDIL}); err != nil {
			return nil, nil, fmt.Errorf("bench: prime %q: %w", q, err)
		}
		for r := 0; r < hotReps; r++ {
			_, stats, err := e.SearchDetailed(q, xrank.SearchOptions{TopM: topM, Algorithm: xrank.AlgoDIL})
			if err != nil {
				return nil, nil, fmt.Errorf("bench: hot %q: %w", q, err)
			}
			if !stats.Cached {
				return nil, nil, fmt.Errorf("bench: hot rep of %q missed the cache", q)
			}
			hotWall += stats.WallTime
		}
	}
	rep.ColdMicros = coldWall.Microseconds() / (headQueries * coldReps)
	rep.HotMicros = hotWall.Microseconds() / (headQueries * hotReps)
	if rep.HotMicros < 1 {
		rep.HotMicros = 1
	}
	rep.HotSpeedup = float64(rep.ColdMicros) / float64(rep.HotMicros)
	t.Rows = append(t.Rows, []string{"hot/cold", fmt.Sprintf("%dq×%d", headQueries, hotReps),
		fmt.Sprintf("%.0fx", rep.HotSpeedup),
		fmt.Sprintf("%dµs", rep.HotMicros),
		fmt.Sprintf("%dµs", rep.ColdMicros)})
	return t, rep, nil
}
