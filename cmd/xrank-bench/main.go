// Command xrank-bench regenerates the paper's evaluation tables and
// figures (see DESIGN.md for the experiment index):
//
//	xrank-bench -exp all                       # everything
//	xrank-bench -exp space                     # Table 1
//	xrank-bench -exp fig10,fig11 -perfblocks 400000
//	xrank-bench -exp crossover -sweep 50000,200000,800000
//
// Experiments: elemrank (E1), space (E2), fig10 (E3), fig11 (E4),
// topm (E5), quality (E6), ablation (E7a-d), crossover (E8), warm (E9),
// shard (E10, also written to -shardjson for CI trend tracking), cache
// (E11, the result-cache hit-ratio/hot-cold experiment, written to
// -cachejson), ingest (E12, incremental segment-ingestion throughput vs
// a full rebuild, written to -ingestjson), suggest (E15, autosuggest
// latency and trie memory vs dictionary size plus ingest throughput over
// the committed abstracts fixture, written to -suggestjson).
//
// E1/E2/E6/E7 run on the DBLP-shaped and XMark-shaped corpora; E3/E4/E5
// run on the long-list performance corpus (see internal/datagen/perfgen),
// and E8 sweeps that corpus's size to expose the DIL/RDIL crossover.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"xrank"
	"xrank/internal/bench"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "comma-separated experiments: elemrank,space,fig10,fig11,topm,quality,ablation,crossover or 'all'")
		scale      = flag.Float64("scale", 1.0, "DBLP/XMark corpus scale factor")
		perfBlocks = flag.Int("perfblocks", 200000, "performance-corpus size (records) for fig10/fig11/topm")
		sweep      = flag.String("sweep", "25000,100000,400000", "comma-separated block counts for the crossover sweep")
		seed       = flag.Int64("seed", 42, "generation seed")
		topM       = flag.Int("m", 10, "desired number of results per query")
		dir        = flag.String("dir", "", "workspace directory (default: a temp dir, removed afterwards)")

		shardCounts = flag.String("shardcounts", "1,2,4,8", "comma-separated shard counts for the shard experiment")
		shardDocs   = flag.Int("sharddocs", 8, "XMark-shaped documents in the shard-experiment corpus")
		shardScale  = flag.Float64("shardscale", 4.0, "shard-experiment corpus scale factor")
		shardJSON   = flag.String("shardjson", "BENCH_shard.json", "where the shard experiment writes its JSON report (empty: skip)")
		baseline    = flag.String("baseline", "", "committed BENCH_shard.json to guard against (empty: no guard); exits 2 and emits a GitHub warning annotation on a >25% median-latency regression")

		cacheDocs  = flag.Int("cachedocs", 6, "XMark-shaped documents in the cache-experiment corpus")
		cacheScale = flag.Float64("cachescale", 2.0, "cache-experiment corpus scale factor")
		cacheJSON  = flag.String("cachejson", "BENCH_cache.json", "where the cache experiment writes its JSON report (empty: skip)")

		ingestDocs    = flag.Int("ingestdocs", 4, "XMark-shaped documents in the ingest-experiment initial build")
		ingestBatches = flag.Int("ingestbatches", 6, "AddDocs batches the ingest experiment flushes")
		ingestBatch   = flag.Int("ingestbatch", 2, "documents per ingest batch")
		ingestScale   = flag.Float64("ingestscale", 2.0, "ingest-experiment corpus scale factor")
		ingestJSON    = flag.String("ingestjson", "BENCH_ingest.json", "where the ingest experiment writes its JSON report (empty: skip)")

		suggestSizes   = flag.String("suggestsizes", "1000,10000,50000", "comma-separated dictionary sizes for the suggest experiment")
		suggestK       = flag.Int("suggestk", 8, "completions per suggest query")
		suggestFixture = flag.String("suggestfixture", "internal/ingest/testdata/abstracts.xml", "committed abstracts fixture the suggest experiment ingests (empty: skip the fixture section)")
		suggestJSON    = flag.String("suggestjson", "BENCH_suggest.json", "where the suggest experiment writes its JSON report (empty: skip)")
	)
	flag.Parse()

	want := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(e)] = true
	}
	if want["all"] {
		for _, e := range []string{"elemrank", "space", "fig10", "fig11", "topm", "quality", "ablation", "crossover", "warm", "shard", "cache", "ingest", "suggest"} {
			want[e] = true
		}
	}

	ws := *dir
	if ws == "" {
		td, err := os.MkdirTemp("", "xrank-bench-*")
		if err != nil {
			fail(err)
		}
		defer os.RemoveAll(td)
		ws = td
	}

	needDatasets := want["elemrank"] || want["space"] || want["quality"] || want["ablation"]
	needPerf := want["fig10"] || want["fig11"] || want["topm"] || want["warm"]

	var es *bench.Engines
	if needDatasets {
		fmt.Printf("building DBLP/XMark corpora (scale %.2f, seed %d)...\n", *scale, *seed)
		t0 := time.Now()
		var err error
		es, err = bench.BuildAll(ws, *scale, *seed)
		if err != nil {
			fail(err)
		}
		defer es.Close()
		fmt.Printf("built: DBLP-shape %d docs / %d elements, XMark-shape %d elements (%.1fs)\n",
			es.DBLPInfo.NumDocs, es.DBLPInfo.NumElements, es.XMarkInfo.NumElements, time.Since(t0).Seconds())
	}

	var perf *xrank.Engine
	if needPerf {
		fmt.Printf("building performance corpus (%d blocks)...\n", *perfBlocks)
		t0 := time.Now()
		var info *xrank.BuildInfo
		var err error
		perf, info, err = bench.BuildPerfEngine(ws+"/perf", *perfBlocks, *seed)
		if err != nil {
			fail(err)
		}
		defer perf.Close()
		fmt.Printf("built: perf corpus %d docs / %d elements, DIL %0.1fMB (%.1fs)\n",
			info.NumDocs, info.NumElements, float64(info.Sizes.DILList)/(1<<20), time.Since(t0).Seconds())
	}

	if want["elemrank"] {
		bench.E1ElemRank(es).Render(os.Stdout)
	}
	if want["space"] {
		bench.E2Space(es).Render(os.Stdout)
	}
	if want["fig10"] {
		naive, err := bench.BuildPerfBaseline(ws+"/perf-naive", *perfBlocks, *seed)
		if err != nil {
			fail(err)
		}
		defer naive.Close()
		t, err := bench.E3Fig10(perf, naive, "perf corpus", *topM)
		if err != nil {
			fail(err)
		}
		t.Render(os.Stdout)
	}
	if want["fig11"] {
		t, err := bench.E4Fig11(perf, "perf corpus", *topM)
		if err != nil {
			fail(err)
		}
		t.Render(os.Stdout)
	}
	if want["topm"] {
		t, err := bench.E5TopM(perf, "perf corpus")
		if err != nil {
			fail(err)
		}
		t.Render(os.Stdout)
	}
	if want["quality"] {
		ts, err := bench.E6Quality(es)
		if err != nil {
			fail(err)
		}
		for _, t := range ts {
			t.Render(os.Stdout)
		}
	}
	if want["ablation"] {
		t, err := bench.E7AblationVariants(*seed)
		if err != nil {
			fail(err)
		}
		t.Render(os.Stdout)
		t, err = bench.E7AblationDecay(es.XMark)
		if err != nil {
			fail(err)
		}
		t.Render(os.Stdout)
		t, err = bench.E7AblationProximity(es.DBLP)
		if err != nil {
			fail(err)
		}
		t.Render(os.Stdout)
		t, err = bench.E7AblationDs(*seed)
		if err != nil {
			fail(err)
		}
		t.Render(os.Stdout)
	}
	if want["warm"] {
		t, err := bench.E9WarmCache(perf)
		if err != nil {
			fail(err)
		}
		t.Render(os.Stdout)
	}
	if want["crossover"] {
		var blocks []int
		for _, s := range strings.Split(*sweep, ",") {
			var n int
			if _, err := fmt.Sscanf(strings.TrimSpace(s), "%d", &n); err != nil {
				fail(fmt.Errorf("bad -sweep value %q: %v", s, err))
			}
			blocks = append(blocks, n)
		}
		t, err := bench.E8Crossover(ws, blocks, *seed)
		if err != nil {
			fail(err)
		}
		t.Render(os.Stdout)
	}
	if want["shard"] {
		counts, err := parseInts(*shardCounts)
		if err != nil {
			fail(fmt.Errorf("bad -shardcounts: %v", err))
		}
		t, rep, err := bench.E10Shard(ws+"/shardexp", counts, *shardDocs, *shardScale, *seed, *topM)
		if err != nil {
			fail(err)
		}
		t.Render(os.Stdout)
		if rep.Speedup > 0 {
			fmt.Printf("shard speedup: %.2fx at %d shards over the 1-shard baseline (%d workers)\n",
				rep.Speedup, rep.BestShards, rep.Workers)
		}
		if *shardJSON != "" {
			if err := rep.WriteJSON(*shardJSON); err != nil {
				fail(err)
			}
			fmt.Printf("wrote %s\n", *shardJSON)
		}
		if *baseline != "" {
			base, err := bench.ReadShardReport(*baseline)
			if err != nil {
				fail(err)
			}
			g, err := bench.CompareShardReports(base, rep)
			if err != nil {
				fail(err)
			}
			fmt.Println("bench guard:", g)
			if g.Regressed {
				// ::warning:: renders as an annotation on the GitHub Actions
				// run; the non-zero exit makes the step itself fail.
				fmt.Printf("::warning title=bench regression::shard-bench %s\n", g)
				os.Exit(2)
			}
		}
	}
	if want["cache"] {
		t, rep, err := bench.E11Cache(ws+"/cacheexp", *cacheDocs, *cacheScale, *seed, *topM)
		if err != nil {
			fail(err)
		}
		t.Render(os.Stdout)
		fmt.Printf("cache hot/cold: %.0fx (hit %dµs vs cold %dµs at top-%d)\n",
			rep.HotSpeedup, rep.HotMicros, rep.ColdMicros, *topM)
		if *cacheJSON != "" {
			if err := rep.WriteJSON(*cacheJSON); err != nil {
				fail(err)
			}
			fmt.Printf("wrote %s\n", *cacheJSON)
		}
	}
	if want["suggest"] {
		sizes, err := parseInts(*suggestSizes)
		if err != nil {
			fail(fmt.Errorf("bad -suggestsizes: %v", err))
		}
		t, rep, err := bench.E15Suggest(ws+"/suggestexp", sizes, *suggestK, *seed, *suggestFixture)
		if err != nil {
			fail(err)
		}
		t.Render(os.Stdout)
		if n := len(rep.Runs); n > 0 {
			last := rep.Runs[n-1]
			fmt.Printf("suggest: %d-term dictionary completes at p50 %dµs / p99 %dµs in %.1fB/term\n",
				last.Terms, last.P50Micros, last.P99Micros, last.BytesPerTerm)
		}
		if rep.FixtureDocs > 0 {
			fmt.Printf("suggest fixture: %d docs ingested at %.0f docs/s; %d-term dictionary p50 %dµs / p99 %dµs\n",
				rep.FixtureDocs, rep.FixtureDocsPerSec, rep.FixtureTerms, rep.FixtureP50Micros, rep.FixtureP99Micros)
		}
		if *suggestJSON != "" {
			if err := rep.WriteJSON(*suggestJSON); err != nil {
				fail(err)
			}
			fmt.Printf("wrote %s\n", *suggestJSON)
		}
	}
	if want["ingest"] {
		t, rep, err := bench.E12Ingest(ws+"/ingestexp", *ingestDocs, *ingestBatches, *ingestBatch, *ingestScale, *seed)
		if err != nil {
			fail(err)
		}
		t.Render(os.Stdout)
		fmt.Printf("ingest: %.1f docs/sec incremental; avg flush %dms vs %dms full rebuild (%.1fx)\n",
			rep.DocsPerSec, rep.AvgAddMillis, rep.RebuildMillis, rep.SpeedupVsRebuild)
		if *ingestJSON != "" {
			if err := rep.WriteJSON(*ingestJSON); err != nil {
				fail(err)
			}
			fmt.Printf("wrote %s\n", *ingestJSON)
		}
	}
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		var n int
		if _, err := fmt.Sscanf(strings.TrimSpace(f), "%d", &n); err != nil {
			return nil, fmt.Errorf("%q: %v", f, err)
		}
		if n < 1 {
			return nil, fmt.Errorf("%q: shard counts must be >= 1", f)
		}
		out = append(out, n)
	}
	return out, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "xrank-bench:", err)
	os.Exit(1)
}
