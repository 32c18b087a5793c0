// Benchmarks regenerating the paper's evaluation artifacts, one per table
// and figure (Guo et al., SIGMOD 2003). Each benchmark emits, via
// b.ReportMetric, the series the corresponding figure plots (simulated
// cold-disk milliseconds and page reads), at a miniature corpus scale so
// `go test -bench=.` stays fast; cmd/xrank-bench runs the same experiments
// at full scale and prints the paper-style tables (see EXPERIMENTS.md).
package xrank_test

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"xrank"
	"xrank/internal/bench"
	"xrank/internal/datagen/dblp"
	"xrank/internal/datagen/xmark"
	"xrank/internal/elemrank"
	"xrank/internal/index"
	"xrank/internal/xmldoc"
)

// TestMain removes the shared benchmark fixtures after the run.
func TestMain(m *testing.M) {
	code := m.Run()
	if fixPerf != nil {
		fixPerf.Close()
	}
	if fixNaive != nil {
		fixNaive.Close()
	}
	if fixDBLP != nil {
		fixDBLP.Close()
	}
	if fixDir != "" {
		os.RemoveAll(fixDir)
	}
	os.Exit(code)
}

// Lazily built shared fixtures (building corpora per-benchmark would drown
// the measurements).
var (
	fixOnce  sync.Once
	fixDir   string
	fixPerf  *xrank.Engine   // long-list performance corpus
	fixNaive *bench.Baseline // its naive baseline index
	fixDBLP  *xrank.Engine
	fixErr   error

	graphOnce  sync.Once
	graphDBLP  *elemrank.Graph
	graphXMark *elemrank.Graph
	graphErr   error
)

func perfEngines(b *testing.B) (*xrank.Engine, *xrank.Engine) {
	b.Helper()
	fixOnce.Do(func() {
		fixDir, fixErr = os.MkdirTemp("", "xrank-benchfix-*")
		if fixErr != nil {
			return
		}
		fixPerf, _, fixErr = bench.BuildPerfEngine(fixDir+"/perf", 24000, 42)
		if fixErr != nil {
			return
		}
		fixNaive, fixErr = bench.BuildPerfBaseline(fixDir+"/perf-naive", 24000, 42)
		if fixErr != nil {
			return
		}
		fixDBLP, _, fixErr = bench.BuildEngine(bench.CorpusSpec{Name: "dblp", Scale: 0.3, Seed: 42}, fixDir+"/dblp")
	})
	if fixErr != nil {
		b.Fatal(fixErr)
	}
	return fixPerf, fixDBLP
}

func graphs(b *testing.B) (*elemrank.Graph, *elemrank.Graph) {
	b.Helper()
	graphOnce.Do(func() {
		build := func(docs map[string]string) (*elemrank.Graph, error) {
			c := xmldoc.NewCollection()
			names := make([]string, 0, len(docs))
			for n := range docs {
				names = append(names, n)
			}
			// Deterministic insertion order.
			for i := range names {
				for j := i + 1; j < len(names); j++ {
					if names[j] < names[i] {
						names[i], names[j] = names[j], names[i]
					}
				}
			}
			for _, n := range names {
				if _, err := c.AddXML(n, strings.NewReader(docs[n]), nil); err != nil {
					return nil, err
				}
			}
			g, _ := elemrank.BuildGraph(c)
			return g, nil
		}
		dd := map[string]string{}
		for _, d := range dblp.Generate(dblp.Params{Seed: 1, Docs: 10, PapersPerDoc: 80}) {
			dd[d.Name] = d.XML
		}
		graphDBLP, graphErr = build(dd)
		if graphErr != nil {
			return
		}
		graphXMark, graphErr = build(map[string]string{
			"xmark": xmark.Generate(xmark.Params{Seed: 1, Items: 500, People: 300, OpenAuctions: 250, ClosedAuctions: 150}),
		})
	})
	if graphErr != nil {
		b.Fatal(graphErr)
	}
	return graphDBLP, graphXMark
}

// BenchmarkElemRank regenerates E1 (Section 3.2): the offline ElemRank
// power iteration on both dataset shapes.
func BenchmarkElemRank(b *testing.B) {
	gd, gx := graphs(b)
	for _, c := range []struct {
		name string
		g    *elemrank.Graph
	}{{"DBLP", gd}, {"XMark", gx}} {
		b.Run(c.name, func(b *testing.B) {
			var iters int
			for i := 0; i < b.N; i++ {
				res, err := elemrank.Compute(c.g, elemrank.DefaultParams())
				if err != nil || !res.Converged {
					b.Fatalf("compute: %v converged=%v", err, res.Converged)
				}
				iters = res.Iterations
			}
			b.ReportMetric(float64(iters), "iterations")
			b.ReportMetric(float64(c.g.N), "elements")
		})
	}
}

// BenchmarkElemRankBatch prices the rank step of one AddDocs batch.
// "XMark" is the spine's ingest.mixed shape: an 8-document XMark scale-1
// base plus one batch of 4 scale-0.05 documents, each its own component.
// "DBLP" is a linked corpus: 20 proceedings documents joined by citations
// into one component, plus a batch of one document citing into it, so
// the whole collection is solved again. "components" is the engine's
// step, solving only the components the batch changed and rescaling the
// rest; "global" is the whole-collection BuildGraph + Compute it replaced.
func BenchmarkElemRankBatch(b *testing.B) {
	type doc struct{ name, xml string }
	xmarkDoc := func(seed int64, scale float64) string {
		return xmark.Generate(xmark.Params{Seed: seed, Items: int(300 * scale), People: int(180 * scale),
			OpenAuctions: int(200 * scale), ClosedAuctions: int(120 * scale), Categories: 1 + int(20*scale), VocabSize: 2000})
	}
	var spineBase, spineBatch, dblpBase []doc
	for d := 0; d < 8; d++ {
		spineBase = append(spineBase, doc{fmt.Sprintf("base-%d.xml", d), xmarkDoc(int64(d), 1)})
	}
	for j := 0; j < 4; j++ {
		spineBatch = append(spineBatch, doc{fmt.Sprintf("add-%d.xml", j), xmarkDoc(int64(100+j), 0.05)})
	}
	for _, d := range dblp.Generate(dblp.Params{Seed: 1, Docs: 20, PapersPerDoc: 400}) {
		dblpBase = append(dblpBase, doc{d.Name, d.XML})
	}
	late := fmt.Sprintf(`<proceedings><paper><title>late</title><cite xlink="%s">see</cite><cite xlink="%s">see</cite></paper></proceedings>`,
		dblpBase[0].name, dblpBase[5].name)
	for _, c := range []struct {
		name        string
		base, batch []doc
	}{
		{"XMark", spineBase, spineBatch},
		{"DBLP", dblpBase, []doc{{"late.xml", late}}},
	} {
		b.Run(c.name, func(b *testing.B) {
			base := xmldoc.NewCollection()
			for _, d := range c.base {
				if _, err := base.AddXML(d.name, strings.NewReader(d.xml), nil); err != nil {
					b.Fatal(err)
				}
			}
			col := base.Clone()
			for _, d := range c.batch {
				if _, err := col.AddXML(d.name, strings.NewReader(d.xml), nil); err != nil {
					b.Fatal(err)
				}
			}
			elemRankBatch(b, base, col)
		})
	}
}

func elemRankBatch(b *testing.B, base, col *xmldoc.Collection) {
	p := elemrank.DefaultParams()
	prev, err := elemrank.ComputeComponents(base, p, nil)
	if err != nil {
		b.Fatal(err)
	}
	report := func(b *testing.B, solved int) {
		b.ReportMetric(float64(b.Elapsed().Microseconds())/1000/float64(b.N), "rank-ms/batch")
		b.ReportMetric(float64(solved), "elements-solved/batch")
		b.ReportMetric(float64(col.NumElements()), "elements")
		b.ReportMetric(float64(len(col.Components())), "components")
	}
	b.Run("components", func(b *testing.B) {
		var solved int
		for i := 0; i < b.N; i++ {
			r, err := elemrank.ComputeComponents(col, p, prev.Components)
			if err != nil {
				b.Fatal(err)
			}
			solved = r.ElementsSolved
		}
		report(b, solved)
	})
	b.Run("global", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g, _ := elemrank.BuildGraph(col)
			if _, err := elemrank.Compute(g, p); err != nil {
				b.Fatal(err)
			}
		}
		report(b, col.NumElements())
	})
}

// BenchmarkIndexBuild regenerates E2 (Table 1): building all five index
// variants (the engine's three Dewey lists and the naive baseline index),
// reporting the space shape as bytes-per-variant metrics.
func BenchmarkIndexBuild(b *testing.B) {
	docs := dblp.Generate(dblp.Params{Seed: 1, Docs: 6, PapersPerDoc: 60})
	c := xmldoc.NewCollection()
	for _, d := range docs {
		if _, err := c.AddXML(d.Name, strings.NewReader(d.XML), nil); err != nil {
			b.Fatal(err)
		}
	}
	g, _ := elemrank.BuildGraph(c)
	res, err := elemrank.Compute(g, elemrank.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var stats *index.BuildStats
	var naive *index.NaiveStats
	for i := 0; i < b.N; i++ {
		stats, err = index.Build(c, res.Scores, b.TempDir(), index.BuildOptions{})
		if err != nil {
			b.Fatal(err)
		}
		naive, err = index.BuildNaive(c, res.Scores, b.TempDir(), index.BuildOptions{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(naive.NaiveIDList), "naiveID-bytes")
	b.ReportMetric(float64(stats.DILList), "dil-bytes")
	b.ReportMetric(float64(stats.DILSkip+stats.RDILSkip), "skip-index-bytes")
}

// benchQueries measures one algorithm on one query set, reporting the
// figure's series values.
func benchQueries(b *testing.B, e *xrank.Engine, algo xrank.Algorithm, queries [][]string, topM int) {
	b.Helper()
	benchMeasure(b, func() (bench.Measurement, error) { return bench.MeasureQueries(e, algo, queries, topM) })
}

func benchMeasure(b *testing.B, measure func() (bench.Measurement, error)) {
	b.Helper()
	var m bench.Measurement
	for i := 0; i < b.N; i++ {
		var err error
		m, err = measure()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(m.SimTime.Microseconds())/1000, "simulated-ms")
	b.ReportMetric(float64(m.Reads), "page-reads")
}

// BenchmarkQueryHighCorr regenerates E3 (Figure 10): query cost by
// algorithm and keyword count under high keyword correlation.
func BenchmarkQueryHighCorr(b *testing.B) {
	perf, _ := perfEngines(b)
	for _, algo := range []bench.NaiveAlgo{bench.NaiveID, bench.NaiveRank} {
		for k := 1; k <= 4; k++ {
			b.Run(fmt.Sprintf("%s/k=%d", algo, k), func(b *testing.B) {
				benchMeasure(b, func() (bench.Measurement, error) {
					return bench.MeasureBaseline(fixNaive, algo, bench.HighCorrQueries(k, 3), 10)
				})
			})
		}
	}
	for _, algo := range []xrank.Algorithm{xrank.AlgoDIL, xrank.AlgoRDIL, xrank.AlgoHDIL} {
		for k := 1; k <= 4; k++ {
			b.Run(fmt.Sprintf("%s/k=%d", algo, k), func(b *testing.B) {
				benchQueries(b, perf, algo, bench.HighCorrQueries(k, 3), 10)
			})
		}
	}
}

// BenchmarkQueryLowCorr regenerates E4 (Figure 11): the same sweep under
// low keyword correlation (the paper plots DIL, RDIL and HDIL).
func BenchmarkQueryLowCorr(b *testing.B) {
	perf, _ := perfEngines(b)
	for _, algo := range []xrank.Algorithm{xrank.AlgoDIL, xrank.AlgoRDIL, xrank.AlgoHDIL} {
		for k := 1; k <= 4; k++ {
			b.Run(fmt.Sprintf("%s/k=%d", algo, k), func(b *testing.B) {
				benchQueries(b, perf, algo, bench.LowCorrQueries(k, 3), 10)
			})
		}
	}
}

// BenchmarkQueryTopM regenerates E5 (Section 5.4 / [18]): query cost vs
// the desired number of results m.
func BenchmarkQueryTopM(b *testing.B) {
	perf, _ := perfEngines(b)
	for _, algo := range []xrank.Algorithm{xrank.AlgoDIL, xrank.AlgoRDIL, xrank.AlgoHDIL} {
		for _, m := range []int{5, 10, 20, 40, 80} {
			b.Run(fmt.Sprintf("%s/m=%d", algo, m), func(b *testing.B) {
				benchQueries(b, perf, algo, bench.HighCorrQueries(2, 3), m)
			})
		}
	}
}

// BenchmarkQualityQueries regenerates E6 (Section 5.2): the anecdote
// queries as end-to-end searches (their cost, not their quality — quality
// verdicts are asserted in the bench package tests and printed by
// cmd/xrank-bench).
func BenchmarkQualityQueries(b *testing.B) {
	_, dblpEng := perfEngines(b)
	for _, q := range []string{"gray", "author gray"} {
		b.Run(strings.ReplaceAll(q, " ", "_"), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := dblpEng.SearchDetailed(q, xrank.SearchOptions{TopM: 10}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationVariants regenerates E7a: the cost of each ElemRank
// formula refinement from Section 3.1.
func BenchmarkAblationVariants(b *testing.B) {
	gd, _ := graphs(b)
	for _, v := range []elemrank.Variant{
		elemrank.VariantFinal, elemrank.VariantPageRank,
		elemrank.VariantBidirectional, elemrank.VariantDiscriminated,
	} {
		b.Run(v.String(), func(b *testing.B) {
			p := elemrank.DefaultParams()
			p.Variant = v
			var iters int
			for i := 0; i < b.N; i++ {
				res, err := elemrank.Compute(gd, p)
				if err != nil {
					b.Fatal(err)
				}
				iters = res.Iterations
			}
			b.ReportMetric(float64(iters), "iterations")
		})
	}
}
