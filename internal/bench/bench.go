// Package bench is the experiment harness that regenerates the paper's
// evaluation artifacts (Guo et al., SIGMOD 2003, Sections 3.2 and 5):
// Table 1 (space), Figure 10 (high keyword correlation), Figure 11 (low
// correlation), the ElemRank convergence measurements, the top-m sweep
// described in Section 5.4, the Section 5.2 ranking-quality anecdotes, and
// the ablation of the Section 3.1 formula refinements. The experiment
// index lives in DESIGN.md; cmd/xrank-bench and the root bench_test.go
// both drive this package.
package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"xrank"
	"xrank/internal/datagen/dblp"
	"xrank/internal/datagen/perfgen"
	"xrank/internal/datagen/xmark"
)

// markerGroups is how many high/low correlation marker groups the corpora
// plant; queries draw from them.
const markerGroups = 6

// markerWidth is keywords per marker group (supports up to 4-keyword
// queries, the Figure 10/11 x-axis).
const markerWidth = 4

// CorpusSpec describes one benchmark corpus.
type CorpusSpec struct {
	Name  string  // "dblp" or "xmark"
	Scale float64 // 1.0 = harness default size (a laptop-scale stand-in for the paper's 143MB/113MB datasets)
	Seed  int64
}

// doc is one generated corpus document.
type doc struct{ name, xml string }

// BuildEngine generates the corpus and builds a fully indexed engine in
// dir. The DBLP corpus is many shallow hyperlinked documents; the XMark
// corpus is one deep document (Section 5.1's reasons for choosing them).
func BuildEngine(spec CorpusSpec, dir string) (*xrank.Engine, *xrank.BuildInfo, error) {
	docs, err := corpusDocs(spec)
	if err != nil {
		return nil, nil, err
	}
	return buildEngine(docs, dir)
}

// buildEngine builds an engine with the default Config over docs in dir.
func buildEngine(docs []doc, dir string) (*xrank.Engine, *xrank.BuildInfo, error) {
	e := xrank.NewEngine(&xrank.Config{IndexDir: dir})
	for _, d := range docs {
		if err := e.AddXML(d.name, strings.NewReader(d.xml)); err != nil {
			return nil, nil, err
		}
	}
	info, err := e.Build()
	if err != nil {
		return nil, nil, err
	}
	return e, info, nil
}

// corpusDocs generates spec's corpus.
func corpusDocs(spec CorpusSpec) ([]doc, error) {
	if spec.Scale <= 0 {
		spec.Scale = 1.0
	}
	switch spec.Name {
	case "dblp":
		var docs []doc
		for _, d := range dblp.Generate(dblp.Params{
			Seed:              spec.Seed,
			Docs:              int(30 * spec.Scale),
			PapersPerDoc:      int(120 * spec.Scale),
			CorrelationGroups: markerGroups,
			CorrelationWidth:  markerWidth,
			PlantRate:         0.25,
			PlantAnecdotes:    true,
		}) {
			docs = append(docs, doc{d.Name, d.XML})
		}
		return docs, nil
	case "xmark":
		return []doc{{"xmark", xmark.Generate(xmark.Params{
			Seed:              spec.Seed,
			Items:             int(1200 * spec.Scale),
			People:            int(700 * spec.Scale),
			OpenAuctions:      int(800 * spec.Scale),
			ClosedAuctions:    int(500 * spec.Scale),
			Categories:        int(60 * spec.Scale),
			CorrelationGroups: markerGroups,
			CorrelationWidth:  markerWidth,
			PlantRate:         0.25,
			PlantAnecdotes:    true,
		})}}, nil
	default:
		return nil, fmt.Errorf("bench: unknown corpus %q", spec.Name)
	}
}

// perfGroups is the marker-group count of the performance corpus.
const perfGroups = 3

// BuildPerfEngine generates the long-list performance corpus (see
// perfgen) and builds a fully indexed engine in dir. blocks controls the
// marker inverted-list lengths: each high-correlation keyword occurs in
// blocks/3 elements, each low-correlation keyword in blocks/4.
func BuildPerfEngine(dir string, blocks int, seed int64) (*xrank.Engine, *xrank.BuildInfo, error) {
	return buildEngine(perfDocs(blocks, seed), dir)
}

// BuildPerfBaseline builds the naive baseline index over the corpus
// BuildPerfEngine(_, blocks, seed) indexes, in dir.
func BuildPerfBaseline(dir string, blocks int, seed int64) (*Baseline, error) {
	return buildBaseline(perfDocs(blocks, seed), dir)
}

func perfDocs(blocks int, seed int64) []doc {
	var docs []doc
	for _, d := range perfgen.Generate(perfgen.Params{Seed: seed, Blocks: blocks, Groups: perfGroups, Width: markerWidth}) {
		docs = append(docs, doc{d.Name, d.XML})
	}
	return docs
}

// HighCorrQueries returns count queries of k keywords each, drawn from the
// planted high-correlation marker groups (keywords that co-occur in the
// same element).
func HighCorrQueries(k, count int) [][]string {
	return markerQueries("hicorr", k, count)
}

// LowCorrQueries returns count queries of k keywords each, drawn from the
// low-correlation groups (each keyword frequent, but co-occurring only at
// coarse ancestors).
func LowCorrQueries(k, count int) [][]string {
	return markerQueries("locorr", k, count)
}

func markerQueries(prefix string, k, count int) [][]string {
	if k > markerWidth {
		k = markerWidth
	}
	out := make([][]string, 0, count)
	for g := 0; g < count; g++ {
		q := make([]string, k)
		for i := 0; i < k; i++ {
			q[i] = fmt.Sprintf("%s%dk%d", prefix, g, i)
		}
		out = append(out, q)
	}
	return out
}

// Measurement is the averaged cost of a query batch under one algorithm.
type Measurement struct {
	Algo     string        // the algorithm's label
	SimTime  time.Duration // avg simulated cold-cache disk time (primary metric)
	Reads    int64         // avg device page reads
	Switched int           // HDIL: how many queries switched to DIL
}

// MeasureQueries runs each query cold-cache under algo and averages.
func MeasureQueries(e *xrank.Engine, algo xrank.Algorithm, queries [][]string, topM int) (Measurement, error) {
	return measure(algo.String(), queries, func(q []string) (*xrank.QueryStats, error) {
		_, stats, err := e.SearchDetailed(strings.Join(q, " "), xrank.SearchOptions{
			TopM:      topM,
			Algorithm: algo,
			ColdCache: true,
		})
		return stats, err
	})
}

// measure runs one per query and averages the costs it reports under the
// label algo.
func measure(algo string, queries [][]string, one func(q []string) (*xrank.QueryStats, error)) (Measurement, error) {
	m := Measurement{Algo: algo}
	if len(queries) == 0 {
		return m, fmt.Errorf("bench: no queries")
	}
	var sim time.Duration
	for _, q := range queries {
		stats, err := one(q)
		if err != nil {
			return m, fmt.Errorf("bench: %s %v: %w", algo, q, err)
		}
		sim += stats.SimulatedTime
		m.Reads += stats.IO.Reads
		if stats.SwitchedToDIL {
			m.Switched++
		}
	}
	m.SimTime = sim / time.Duration(len(queries))
	m.Reads /= int64(len(queries))
	return m, nil
}

// Table is a printable experiment result.
type Table struct {
	Title   string
	Header  []string
	Rows    [][]string
	Comment string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(w, "%-*s  ", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	if t.Comment != "" {
		fmt.Fprintf(w, "%s\n", t.Comment)
	}
}

func mb(n int64) string { return fmt.Sprintf("%.2fMB", float64(n)/(1<<20)) }

func ms(d time.Duration) string { return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000) }
