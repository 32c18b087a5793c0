package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"xrank"
	"xrank/internal/datagen/xmark"
)

// The shard-scaling experiment (E10, an extension beyond the paper): the
// same XMark-generator corpus indexed at several shard counts, the same
// conjunctive queries run against each, comparing per-query latency and
// sequential throughput. Document sharding helps conjunctive queries two
// ways: the per-shard merges run in parallel under the worker pool, and
// — independent of core count — a shard missing any conjunctive keyword
// is pruned outright (its DIL merge exits before scanning a page). The
// workload here is the classic selective conjunction: one rare keyword
// (a marker planted in only the first two documents) paired with one
// frequent vocabulary word. The 1-shard baseline scans the frequent
// word's full inverted list; a sharded index scans it only in the shards
// that also hold the rare keyword. Results are serialized to
// BENCH_shard.json for CI trend tracking.

// ShardRun is the measurement at one shard count. Latency figures come
// from the engine's own query-latency histogram (the interval between
// two snapshots around the measured reps), not from harness-side timers:
// the harness measures exactly what /metrics reports.
type ShardRun struct {
	Shards           int     `json:"shards"`
	BuildMillis      int64   `json:"build_millis"`
	AvgLatencyMicros int64   `json:"avg_latency_micros"` // histogram interval mean over all measured reps
	P50LatencyMicros int64   `json:"p50_latency_micros"` // histogram interval median (bucket-interpolated)
	QueriesPerSec    float64 `json:"queries_per_sec"`    // sequential: interval count / interval sum
	AvgReads         int64   `json:"avg_reads"`          // device page reads per query (shard-count invariant)
	AvgResults       float64 `json:"avg_results"`
}

// ShardReport is the JSON artifact (BENCH_shard.json) of the experiment.
type ShardReport struct {
	Corpus   string     `json:"corpus"`
	Docs     int        `json:"docs"`
	Elements int        `json:"elements"`
	Workers  int        `json:"workers"` // GOMAXPROCS at run time
	Keywords int        `json:"keywords"`
	Queries  int        `json:"queries"`
	Reps     int        `json:"reps"`
	TopM     int        `json:"top_m"`
	Runs     []ShardRun `json:"runs"`
	// Speedup is baseline latency / best multi-shard latency (>1 means
	// sharding won); BestShards is the count that achieved it.
	Speedup    float64 `json:"speedup"`
	BestShards int     `json:"best_shards"`
}

// WriteJSON writes the report to path, indented.
func (r *ShardReport) WriteJSON(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// markerDocs is how many of the shard corpus's documents plant the
// marker groups; keeping it below the document count makes the marker
// keywords rare — the selective half of the benchmark's conjunctions.
const markerDocs = 2

// shardCorpus generates docs XMark-shaped documents (the generator's
// single deep document, instantiated per seed) so the document-hash
// partitioner has real spread. Only the first markerDocs documents plant
// the marker groups; the shared Zipf vocabulary (w0, w1, ...) spans all
// of them.
func shardCorpus(docs int, scale float64, seed int64) []string {
	if scale <= 0 {
		scale = 1.0
	}
	out := make([]string, docs)
	for d := 0; d < docs; d++ {
		p := xmark.Params{
			Seed:           seed + int64(d),
			Items:          int(300 * scale),
			People:         int(180 * scale),
			OpenAuctions:   int(200 * scale),
			ClosedAuctions: int(120 * scale),
			Categories:     int(20 * scale),
		}
		if d < markerDocs {
			p.CorrelationGroups = markerGroups
			p.CorrelationWidth = markerWidth
			p.PlantRate = 0.25
		}
		out[d] = xmark.Generate(p)
	}
	return out
}

// shardQueries pairs each marker group's first keyword (rare: planted in
// markerDocs documents) with a frequent vocabulary word — the selective
// conjunctions the experiment measures.
func shardQueries() [][]string {
	out := make([][]string, 0, markerGroups)
	for g := 0; g < markerGroups; g++ {
		out = append(out, []string{fmt.Sprintf("hicorr%dk0", g), fmt.Sprintf("w%d", g)})
	}
	return out
}

// E10Shard builds the XMark-generator corpus at every shard count in
// counts (which should include 1, the baseline) and measures the same
// conjunctive queries against each. reps repetitions are run per query;
// the reported latency is the mean and median of the engine's own
// query-latency histogram over the measured interval.
func E10Shard(baseDir string, counts []int, docs int, scale float64, seed int64, topM int) (*Table, *ShardReport, error) {
	xmls := shardCorpus(docs, scale, seed)
	queries := shardQueries()
	const reps = 3

	rep := &ShardReport{
		Corpus:   "xmark",
		Docs:     docs,
		Workers:  runtime.GOMAXPROCS(0),
		Keywords: len(queries[0]),
		Queries:  len(queries),
		Reps:     reps,
		TopM:     topM,
	}
	t := &Table{
		Title:  fmt.Sprintf("E10 (extension): shard scaling, XMark-shape ×%d docs, rare+frequent conjunctions, top-%d", docs, topM),
		Header: []string{"shards", "avg latency", "p50 latency", "queries/s", "reads", "results"},
		Comment: "Same corpus, same queries, same ranking at every shard count (the differential harness\n" +
			"guards that). Shards missing the rare keyword are pruned before scanning a page, so both\n" +
			"reads and latency fall as shards isolate the frequent word's list; the per-shard merges\n" +
			"additionally run in parallel when cores allow.",
	}

	for _, sc := range counts {
		dir := fmt.Sprintf("%s/shard%d", baseDir, sc)
		e := xrank.NewEngine(&xrank.Config{IndexDir: dir, Shards: sc})
		for d, x := range xmls {
			if err := e.AddXML(fmt.Sprintf("xmark%02d", d), strings.NewReader(x)); err != nil {
				return nil, nil, err
			}
		}
		t0 := time.Now()
		info, err := e.Build()
		if err != nil {
			return nil, nil, err
		}
		run := ShardRun{Shards: sc, BuildMillis: time.Since(t0).Milliseconds()}
		rep.Elements = info.NumElements

		// One unmeasured warmup pass: faults the postfiles into the OS
		// page cache and lets the post-build heap settle, so the measured
		// reps compare merge work, not build aftermath.
		for _, q := range queries {
			if _, _, err := e.SearchDetailed(strings.Join(q, " "), xrank.SearchOptions{
				TopM: topM, Algorithm: xrank.AlgoDIL, ColdCache: true,
			}); err != nil {
				e.Close()
				return nil, nil, fmt.Errorf("bench: shard%d warmup %v: %w", sc, q, err)
			}
		}
		runtime.GC()

		// The measured interval is the diff of the engine's query-latency
		// histogram around the reps: the warmup pass above is excluded,
		// and the numbers are exactly what the engine's /metrics reports.
		before := e.QueryLatency(xrank.AlgoDIL.String())
		var reads int64
		var results float64
		for _, q := range queries {
			for r := 0; r < reps; r++ {
				rs, stats, err := e.SearchDetailed(strings.Join(q, " "), xrank.SearchOptions{
					TopM:      topM,
					Algorithm: xrank.AlgoDIL,
					ColdCache: true,
				})
				if err != nil {
					e.Close()
					return nil, nil, fmt.Errorf("bench: shard%d %v: %w", sc, q, err)
				}
				if r == 0 {
					reads += stats.IO.Reads
					results += float64(len(rs))
				}
			}
		}
		interval := e.QueryLatency(xrank.AlgoDIL.String()).Sub(before)
		e.Close()

		n := len(queries)
		if want := int64(n * reps); interval.Count != want {
			return nil, nil, fmt.Errorf("bench: shard%d histogram interval holds %d observations, want %d", sc, interval.Count, want)
		}
		run.AvgLatencyMicros = int64(interval.Mean() * 1e6)
		run.P50LatencyMicros = int64(interval.Quantile(0.5) * 1e6)
		if interval.Sum > 0 {
			run.QueriesPerSec = float64(interval.Count) / interval.Sum
		}
		run.AvgReads = reads / int64(n)
		run.AvgResults = results / float64(n)
		rep.Runs = append(rep.Runs, run)

		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", sc),
			fmt.Sprintf("%.2fms", float64(run.AvgLatencyMicros)/1000),
			fmt.Sprintf("%.2fms", float64(run.P50LatencyMicros)/1000),
			fmt.Sprintf("%.0f", run.QueriesPerSec),
			fmt.Sprintf("%d", run.AvgReads),
			fmt.Sprintf("%.1f", run.AvgResults),
		})
	}

	// Speedup: the 1-shard baseline against the best multi-shard run.
	var base int64
	for _, r := range rep.Runs {
		if r.Shards == 1 {
			base = r.AvgLatencyMicros
		}
	}
	for _, r := range rep.Runs {
		if r.Shards > 1 && base > 0 && r.AvgLatencyMicros > 0 {
			if s := float64(base) / float64(r.AvgLatencyMicros); s > rep.Speedup {
				rep.Speedup = s
				rep.BestShards = r.Shards
			}
		}
	}
	return t, rep, nil
}
