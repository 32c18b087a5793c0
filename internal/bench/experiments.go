package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"xrank"
	"xrank/internal/datagen/dblp"
	"xrank/internal/elemrank"
	"xrank/internal/xmldoc"
)

// Engines bundles the two benchmark corpora, each with its naive
// baseline index beside it.
type Engines struct {
	DBLP, XMark           *xrank.Engine
	DBLPInfo, XMarkInfo   *xrank.BuildInfo
	DBLPNaive, XMarkNaive *Baseline
}

// BuildAll builds both corpora and their baselines under baseDir at the
// given scale.
func BuildAll(baseDir string, scale float64, seed int64) (*Engines, error) {
	es := &Engines{}
	for _, c := range []struct {
		name  string
		e     **xrank.Engine
		info  **xrank.BuildInfo
		naive **Baseline
	}{
		{"dblp", &es.DBLP, &es.DBLPInfo, &es.DBLPNaive},
		{"xmark", &es.XMark, &es.XMarkInfo, &es.XMarkNaive},
	} {
		docs, err := corpusDocs(CorpusSpec{Name: c.name, Scale: scale, Seed: seed})
		if err == nil {
			*c.e, *c.info, err = buildEngine(docs, baseDir+"/"+c.name)
		}
		if err == nil {
			*c.naive, err = buildBaseline(docs, baseDir+"/"+c.name+"-naive")
		}
		if err != nil {
			es.Close()
			return nil, err
		}
	}
	return es, nil
}

// Close releases both engines and baselines.
func (es *Engines) Close() {
	for _, e := range []*xrank.Engine{es.DBLP, es.XMark} {
		if e != nil {
			e.Close()
		}
	}
	for _, b := range []*Baseline{es.DBLPNaive, es.XMarkNaive} {
		if b != nil {
			b.Close()
		}
	}
}

// E1ElemRank reproduces the Section 3.2 measurements: ElemRank
// convergence on both datasets (the paper reports convergence within 10
// and 5 minutes on 143MB/113MB; we report iterations and time at harness
// scale — the shape claim is that element-granularity ranking converges in
// tens of iterations and is an offline cost).
func E1ElemRank(es *Engines) *Table {
	t := &Table{
		Title:  "E1 (Section 3.2): ElemRank computation",
		Header: []string{"dataset", "docs", "elements", "links", "iterations", "converged", "time"},
		Comment: "Paper: d1=0.35 d2=0.25 d3=0.25, threshold 2e-5; DBLP(143MB) ~10min, XMark(113MB) ~5min.\n" +
			"Shape to match: converges in a few dozen power iterations, offline, independent of query latency.",
	}
	row := func(name string, e *xrank.Engine, info *xrank.BuildInfo) {
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%d", info.NumDocs),
			fmt.Sprintf("%d", info.NumElements),
			fmt.Sprintf("%d", info.ResolvedLinks),
			fmt.Sprintf("%d", info.ElemRankIterations),
			fmt.Sprintf("%v", info.ElemRankConverged),
			info.ElemRankTime.Round(1e6).String(),
		})
	}
	row("DBLP-shape", es.DBLP, es.DBLPInfo)
	row("XMark-shape", es.XMark, es.XMarkInfo)
	return t
}

// E2Space reproduces Table 1: inverted list and index sizes for the five
// approaches on both datasets, the naive rows from the baselines. The
// index column is the access structure each approach reads besides its
// lists: Naive-Rank's hash index, and for the Dewey approaches the sparse
// per-block skip indexes.
func E2Space(es *Engines) *Table {
	t := &Table{
		Title:  "E2 (Table 1): space requirements",
		Header: []string{"approach", "DBLP inv.list", "DBLP index", "XMARK inv.list", "XMARK index"},
		Comment: "Paper shape: Naive lists ≈1.8× DIL on DBLP and ≈3.4× on XMark (deeper nesting ⇒ more ancestor\n" +
			"replication); RDIL list = DIL list; HDIL list slightly over DIL (rank-ordered prefix).\n" +
			"Deviation: RDIL and HDIL answer their Dewey probes from DIL's skip index over dil.post instead of\n" +
			"the paper's B+-trees, so RDIL has no private list-sized tree; each Dewey row's index is the skip\n" +
			"indexes it reads (DIL: dil.skip; RDIL: + rdil.skip; HDIL: + the rdil.skip refs of its prefix in rdil.post).",
	}
	d, x := es.DBLPInfo.Sizes, es.XMarkInfo.Sizes
	dn, xn := es.DBLPNaive.Sizes, es.XMarkNaive.Sizes
	t.Rows = [][]string{
		{"Naive-ID", mb(dn.NaiveIDList), "N/A", mb(xn.NaiveIDList), "N/A"},
		{"Naive-Rank", mb(dn.NaiveRankList), mb(dn.NaiveIndex), mb(xn.NaiveRankList), mb(xn.NaiveIndex)},
		{"DIL", mb(d.DILList), mb(d.DILSkip), mb(x.DILList), mb(x.DILSkip)},
		{"RDIL", mb(d.RDILList), mb(d.DILSkip + d.RDILSkip), mb(x.RDILList), mb(x.DILSkip + x.RDILSkip)},
		{"HDIL", mb(d.DILList + d.HDILRank), mb(d.DILSkip + d.HDILSkip), mb(x.DILList + x.HDILRank), mb(x.DILSkip + x.HDILSkip)},
	}
	return t
}

var fig11Algos = []xrank.Algorithm{xrank.AlgoDIL, xrank.AlgoRDIL, xrank.AlgoHDIL}

// E3Fig10 reproduces Figure 10: query time vs number of keywords under
// high keyword correlation, on the given engine and its naive baseline.
func E3Fig10(e *xrank.Engine, naive *Baseline, corpus string, topM int) (*Table, error) {
	var series []func(queries [][]string) (Measurement, error)
	for _, a := range []NaiveAlgo{NaiveID, NaiveRank} {
		series = append(series, func(queries [][]string) (Measurement, error) {
			return MeasureBaseline(naive, a, queries, topM)
		})
	}
	return correlationFigure(e, corpus, topM, true, series)
}

// E4Fig11 reproduces Figure 11: query time vs number of keywords under
// low keyword correlation.
func E4Fig11(e *xrank.Engine, corpus string, topM int) (*Table, error) {
	return correlationFigure(e, corpus, topM, false, nil)
}

// correlationFigure measures the Dewey algorithms on e after the given
// series, one column pair (simulated time, page reads) per algorithm.
func correlationFigure(e *xrank.Engine, corpus string, topM int, high bool, series []func(queries [][]string) (Measurement, error)) (*Table, error) {
	title := fmt.Sprintf("E4 (Figure 11): low keyword correlation, %s, top-%d", corpus, topM)
	comment := "Paper shape: RDIL degrades sharply with more keywords (unsuccessful random probes);\n" +
		"DIL stays near-flat (sequential scans); HDIL tracks DIL after switching."
	if high {
		title = fmt.Sprintf("E3 (Figure 10): high keyword correlation, %s, top-%d", corpus, topM)
		comment = "Paper shape: RDIL ≈ HDIL ≪ DIL; Naive-ID worse than DIL and Naive-Rank worse than RDIL\n" +
			"(ancestor entries inflate every scan); HDIL occasionally slightly above both at k=2."
	}
	for _, a := range fig11Algos {
		series = append(series, func(queries [][]string) (Measurement, error) {
			return MeasureQueries(e, a, queries, topM)
		})
	}
	t := &Table{Title: title}
	t.Header = []string{"#keywords"}
	for k := 1; k <= markerWidth; k++ {
		var queries [][]string
		if high {
			queries = HighCorrQueries(k, perfGroups)
		} else {
			queries = LowCorrQueries(k, perfGroups)
		}
		row := []string{fmt.Sprintf("%d", k)}
		for _, measure := range series {
			m, err := measure(queries)
			if err != nil {
				return nil, err
			}
			if k == 1 {
				t.Header = append(t.Header, m.Algo+" sim", m.Algo+" reads")
			}
			label := ms(m.SimTime)
			if m.Switched > 0 {
				label += fmt.Sprintf("(%d→DIL)", m.Switched)
			}
			row = append(row, label, fmt.Sprintf("%d", m.Reads))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Comment = comment
	return t, nil
}

// E5TopM reproduces the Section 5.4 top-m sweep (detailed in the paper's
// technical report [18]): DIL is flat in m, RDIL grows.
func E5TopM(e *xrank.Engine, corpus string) (*Table, error) {
	t := &Table{
		Title:  fmt.Sprintf("E5 (Section 5.4 / [18]): query time vs desired results m, %s, 2 keywords", corpus),
		Header: []string{"m", "DIL sim", "RDIL sim", "HDIL sim"},
		Comment: "Paper shape: DIL constant (always scans whole lists); RDIL/HDIL grow with m\n" +
			"(must scan deeper into the rank-ordered lists before the threshold is met).",
	}
	queries := HighCorrQueries(2, perfGroups)
	for _, m := range []int{5, 10, 20, 40, 80} {
		row := []string{fmt.Sprintf("%d", m)}
		for _, a := range fig11Algos {
			meas, err := MeasureQueries(e, a, queries, m)
			if err != nil {
				return nil, err
			}
			row = append(row, ms(meas.SimTime))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// E6Quality reproduces the Section 5.2 anecdotes. It returns one table
// per query, plus a verdict row describing whether the paper's observation
// holds.
func E6Quality(es *Engines) ([]*Table, error) {
	var out []*Table
	type anecdote struct {
		engine *xrank.Engine
		query  string
		check  func([]xrank.SearchResult) string
	}
	anecdotes := []anecdote{
		{es.DBLP, "gray", func(rs []xrank.SearchResult) string {
			authors, titles := 0, 0
			for _, r := range rs {
				switch r.Tag {
				case "author":
					authors++
				case "title":
					titles++
				}
			}
			return fmt.Sprintf("verdict: %d author elements (cited papers) and %d title elements ('gray codes') in top-%d — paper observed both kinds", authors, titles, len(rs))
		}},
		{es.DBLP, "author gray", func(rs []xrank.SearchResult) string {
			if len(rs) > 0 && rs[0].Tag == "author" {
				return "verdict: top result is an <author> element — title-only matches dropped, as the paper observed (two-dimensional proximity)"
			}
			return "verdict: UNEXPECTED — top result is not an author element"
		}},
		{es.XMark, "stained mirror", func(rs []xrank.SearchResult) string {
			if len(rs) > 0 && strings.Contains(rs[0].Path, "item") {
				return "verdict: top result is the heavily referenced item named 'stained' with 'mirror' in its description, as in the paper"
			}
			return "verdict: UNEXPECTED — planted item not on top"
		}},
	}
	for _, a := range anecdotes {
		rs, _, err := a.engine.SearchDetailed(a.query, xrank.SearchOptions{TopM: 8, Algorithm: xrank.AlgoDIL})
		if err != nil {
			return nil, err
		}
		t := &Table{
			Title:  fmt.Sprintf("E6 (Section 5.2): query %q", a.query),
			Header: []string{"rank", "score", "tag", "path", "doc"},
		}
		for i, r := range rs {
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", i+1),
				fmt.Sprintf("%.3g", r.Score),
				r.Tag,
				truncate(r.Path, 60),
				r.Doc,
			})
		}
		t.Comment = a.check(rs)
		out = append(out, t)
	}
	return out, nil
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

// E7AblationVariants compares the ElemRank formula refinements of
// Section 3.1 on a small DBLP-shaped corpus: overlap of each variant's
// top-20 elements with the final formula's, plus where ranks concentrate.
func E7AblationVariants(seed int64) (*Table, error) {
	docs := dblp.Generate(dblp.Params{Seed: seed, Docs: 8, PapersPerDoc: 60, PlantAnecdotes: true})
	c := xmldoc.NewCollection()
	for _, d := range docs {
		if _, err := c.AddXML(d.Name, strings.NewReader(d.XML), nil); err != nil {
			return nil, err
		}
	}
	g, _ := elemrank.BuildGraph(c)
	variants := []elemrank.Variant{
		elemrank.VariantFinal, elemrank.VariantPageRank,
		elemrank.VariantBidirectional, elemrank.VariantDiscriminated,
	}
	top := func(scores []float64, k int) []int {
		idx := make([]int, len(scores))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
		return idx[:k]
	}
	var finalTop map[int]bool
	t := &Table{
		Title:  "E7a (Section 3.1 ablation): ElemRank formula variants",
		Header: []string{"variant", "iterations", "top-20 overlap with final", "top-1 element"},
		Comment: "The refinement series changes which elements concentrate importance: the PageRank strawman\n" +
			"starves sub-elements of papers with many references; the final formula keeps them ranked.",
	}
	for _, v := range variants {
		p := elemrank.DefaultParams()
		p.Variant = v
		res, err := elemrank.Compute(g, p)
		if err != nil {
			return nil, err
		}
		t20 := top(res.Scores, 20)
		if v == elemrank.VariantFinal {
			finalTop = make(map[int]bool, 20)
			for _, i := range t20 {
				finalTop[i] = true
			}
		}
		overlap := 0
		for _, i := range t20 {
			if finalTop[i] {
				overlap++
			}
		}
		topEl := c.ElementByGlobalIndex(t20[0])
		t.Rows = append(t.Rows, []string{
			v.String(),
			fmt.Sprintf("%d", res.Iterations),
			fmt.Sprintf("%d/20", overlap),
			truncate(xmldoc.Path(topEl), 50),
		})
	}
	return t, nil
}

// E7AblationDecay measures how the decay parameter trades specificity:
// with decay=1 ancestors are not penalized, so shallow results climb the
// ranking; with small decay only deep, specific elements remain on top.
// Run on the deep XMark corpus with frequent vocabulary words, whose
// conjunctive co-occurrences exist at many depths.
func E7AblationDecay(e *xrank.Engine) (*Table, error) {
	t := &Table{
		Title:  "E7b: decay ablation (average result depth, top-10, frequent-word pairs, XMark-shape)",
		Header: []string{"decay", "avg depth", "results"},
		Comment: "Smaller decay penalizes unspecific (shallow) results more, pushing deep, specific\n" +
			"elements up — the result-specificity property of Section 2.3.1.",
	}
	var queries [][]string
	for i := 0; i < 6; i++ {
		queries = append(queries, []string{fmt.Sprintf("w%d", i), fmt.Sprintf("w%d", i+1)})
	}
	for _, decay := range []float64{1.0, 0.75, 0.5, 0.25} {
		var depthSum float64
		var n int
		for _, q := range queries {
			rs, _, err := e.SearchDetailed(strings.Join(q, " "), xrank.SearchOptions{
				TopM: 10, Algorithm: xrank.AlgoDIL, Decay: decay,
			})
			if err != nil {
				return nil, err
			}
			for _, r := range rs {
				depthSum += float64(strings.Count(r.Path, "/"))
				n++
			}
		}
		if n == 0 {
			continue
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f", decay),
			fmt.Sprintf("%.2f", depthSum/float64(n)),
			fmt.Sprintf("%d", n),
		})
	}
	return t, nil
}

// E8Crossover sweeps the inverted-list length (corpus blocks) at fixed
// k=2, m=10, high correlation, exposing the regime boundary the paper's
// Section 4.3/4.4 argument rests on: DIL's sequential scan grows linearly
// with list length while RDIL's probe cost is roughly constant, so RDIL
// overtakes DIL once lists span enough pages.
func E8Crossover(baseDir string, blockCounts []int, seed int64) (*Table, error) {
	t := &Table{
		Title:  "E8: DIL/RDIL crossover vs inverted-list length (2 keywords, high correlation, top-10)",
		Header: []string{"blocks", "list entries", "list pages", "DIL sim", "RDIL sim", "HDIL sim", "DIL reads", "RDIL reads"},
		Comment: "Paper claim (Section 4.3): \"If inverted lists are long ... even the cost of a single scan\n" +
			"can be expensive\" — RDIL wins above the crossover, DIL below it. HDIL should track the winner.",
	}
	for _, blocks := range blockCounts {
		dir := fmt.Sprintf("%s/perf%d", baseDir, blocks)
		e, _, err := BuildPerfEngine(dir, blocks, seed)
		if err != nil {
			return nil, err
		}
		queries := HighCorrQueries(2, perfGroups)
		var meas [3]Measurement
		for i, a := range []xrank.Algorithm{xrank.AlgoDIL, xrank.AlgoRDIL, xrank.AlgoHDIL} {
			m, err := MeasureQueries(e, a, queries, 10)
			if err != nil {
				e.Close()
				return nil, err
			}
			meas[i] = m
		}
		e.Close()
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", blocks),
			fmt.Sprintf("%d", blocks/perfGroups),
			fmt.Sprintf("%d", meas[0].Reads), // DIL reads ≈ total list pages
			ms(meas[0].SimTime),
			ms(meas[1].SimTime),
			ms(meas[2].SimTime),
			fmt.Sprintf("%d", meas[0].Reads),
			fmt.Sprintf("%d", meas[1].Reads),
		})
	}
	return t, nil
}

// E9WarmCache contrasts cold- and warm-cache query costs (the paper's
// main results are cold-cache; warm results are in its technical report
// [18]): with the buffer pools populated, every algorithm collapses to
// near-CPU cost and the ordering differences vanish.
func E9WarmCache(e *xrank.Engine) (*Table, error) {
	t := &Table{
		Title:  "E9 ([18]): cold vs warm cache, 2 keywords, high correlation, top-10",
		Header: []string{"algorithm", "cold sim", "cold reads", "warm sim", "warm device reads"},
		Comment: "Warm runs repeat the identical query without resetting the buffer pools. The ranked\n" +
			"strategies' few-dozen-page working sets fit in the pool and drop to zero device reads;\n" +
			"a DIL scan larger than the pool stays disk-bound even when warm.",
	}
	queries := HighCorrQueries(2, perfGroups)
	for _, a := range fig11Algos {
		cold, err := MeasureQueries(e, a, queries, 10)
		if err != nil {
			return nil, err
		}
		// Warm: run the same queries again without ColdCache.
		var warmSim time.Duration
		var warmReads int64
		for _, q := range queries {
			// Prime.
			if _, _, err := e.SearchDetailed(strings.Join(q, " "), xrank.SearchOptions{TopM: 10, Algorithm: a}); err != nil {
				return nil, err
			}
			_, stats, err := e.SearchDetailed(strings.Join(q, " "), xrank.SearchOptions{TopM: 10, Algorithm: a})
			if err != nil {
				return nil, err
			}
			warmSim += stats.SimulatedTime
			warmReads += stats.IO.Reads
		}
		n := time.Duration(len(queries))
		t.Rows = append(t.Rows, []string{
			a.String(),
			ms(cold.SimTime),
			fmt.Sprintf("%d", cold.Reads),
			ms(warmSim / n),
			fmt.Sprintf("%d", warmReads/int64(len(queries))),
		})
	}
	return t, nil
}

// E7AblationDs varies the navigation probabilities d1/d2/d3, checking the
// paper's Section 3.2 claim that they shift relative weighting but do not
// materially affect convergence time.
func E7AblationDs(seed int64) (*Table, error) {
	docs := dblp.Generate(dblp.Params{Seed: seed, Docs: 8, PapersPerDoc: 60})
	c := xmldoc.NewCollection()
	for _, d := range docs {
		if _, err := c.AddXML(d.Name, strings.NewReader(d.XML), nil); err != nil {
			return nil, err
		}
	}
	g, _ := elemrank.BuildGraph(c)
	t := &Table{
		Title:  "E7d (Section 3.2): ElemRank convergence vs d1/d2/d3",
		Header: []string{"d1", "d2", "d3", "iterations", "converged"},
		Comment: "Paper: \"while it changes the relative weighting of hyperlinks and containment edges,\n" +
			"it does not have a significant effect on algorithm convergence time.\"",
	}
	for _, ds := range [][3]float64{
		{0.35, 0.25, 0.25}, // paper setting
		{0.55, 0.15, 0.15},
		{0.15, 0.45, 0.25},
		{0.15, 0.25, 0.45},
		{0.05, 0.45, 0.45},
	} {
		p := elemrank.DefaultParams()
		p.D1, p.D2, p.D3 = ds[0], ds[1], ds[2]
		res, err := elemrank.Compute(g, p)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f", ds[0]), fmt.Sprintf("%.2f", ds[1]), fmt.Sprintf("%.2f", ds[2]),
			fmt.Sprintf("%d", res.Iterations), fmt.Sprintf("%v", res.Converged),
		})
	}
	return t, nil
}

// E7AblationProximity measures how often disabling the proximity factor
// changes the top result.
func E7AblationProximity(e *xrank.Engine) (*Table, error) {
	t := &Table{
		Title:  "E7c: proximity ablation (top-1 changes when the proximity factor is disabled)",
		Header: []string{"query set", "queries", "top-1 changed"},
	}
	sets := map[string][][]string{
		"high-corr 2kw": HighCorrQueries(2, markerGroups),
		"low-corr 2kw":  LowCorrQueries(2, markerGroups),
	}
	names := make([]string, 0, len(sets))
	for n := range sets {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		queries := sets[name]
		changed := 0
		for _, q := range queries {
			qs := strings.Join(q, " ")
			a, _, err := e.SearchDetailed(qs, xrank.SearchOptions{TopM: 1, Algorithm: xrank.AlgoDIL})
			if err != nil {
				return nil, err
			}
			b, _, err := e.SearchDetailed(qs, xrank.SearchOptions{TopM: 1, Algorithm: xrank.AlgoDIL, ProximityOff: true})
			if err != nil {
				return nil, err
			}
			if len(a) > 0 && len(b) > 0 && a[0].DeweyID != b[0].DeweyID {
				changed++
			}
		}
		t.Rows = append(t.Rows, []string{name, fmt.Sprintf("%d", len(queries)), fmt.Sprintf("%d", changed)})
	}
	return t, nil
}
