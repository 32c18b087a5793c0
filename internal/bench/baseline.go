package bench

import (
	"context"
	"strings"

	"xrank"
	"xrank/internal/elemrank"
	"xrank/internal/index"
	"xrank/internal/query"
	"xrank/internal/storage"
	"xrank/internal/text"
	"xrank/internal/xmldoc"
)

// Baseline is the paper's naive element-list index over one corpus
// (Naive-ID and Naive-Rank, Section 4.1): the strawman that Table 1 and
// Figure 10 measure the Dewey lists against. No engine builds one; the
// harness builds it beside the engine, over the same documents and the
// engine's default ElemRanks, and queries it under the engine's cold-cache
// protocol so its columns compare with the engine's.
type Baseline struct {
	Sizes index.NaiveStats
	ix    *index.NaiveIndex
}

// NaiveAlgo selects one of the baseline's two query processors.
type NaiveAlgo int

const (
	// NaiveID is the equality merge over element-ID-ordered lists.
	NaiveID NaiveAlgo = iota
	// NaiveRank is the threshold algorithm over rank-ordered lists with a
	// hash index for the random lookups.
	NaiveRank
)

func (a NaiveAlgo) String() string {
	if a == NaiveRank {
		return "Naive-Rank"
	}
	return "Naive-ID"
}

// buildBaseline parses docs into a collection of its own, computes
// ElemRank under the engine's default parameters, and builds and opens the
// naive index in dir. The collection is garbage once the index is on disk.
func buildBaseline(docs []doc, dir string) (*Baseline, error) {
	c := xmldoc.NewCollection()
	for _, d := range docs {
		if _, err := c.AddXML(d.name, strings.NewReader(d.xml), nil); err != nil {
			return nil, err
		}
	}
	g, _ := elemrank.BuildGraph(c)
	res, err := elemrank.Compute(g, elemrank.DefaultParams())
	if err != nil {
		return nil, err
	}
	st, err := index.BuildNaive(c, res.Scores, dir, index.BuildOptions{})
	if err != nil {
		return nil, err
	}
	nx, err := index.OpenNaive(dir, index.OpenOptions{})
	if err != nil {
		return nil, err
	}
	return &Baseline{Sizes: *st, ix: nx}, nil
}

// Close releases the baseline's index files.
func (b *Baseline) Close() error { return b.ix.Close() }

// MeasureBaseline is MeasureQueries for the baseline: each query runs
// cold-cache, under its own execution context, with the engine's default
// query options, and is priced by the paper's disk.
func MeasureBaseline(b *Baseline, algo NaiveAlgo, queries [][]string, topM int) (Measurement, error) {
	run := query.NaiveID
	if algo == NaiveRank {
		run = query.NaiveRank
	}
	return measure(algo.String(), queries, func(q []string) (*xrank.QueryStats, error) {
		if err := b.ix.ColdCache(); err != nil {
			return nil, err
		}
		opts := query.DefaultOptions()
		opts.TopM = topM
		opts.Exec = storage.NewExecContext(context.Background())
		_, err := run(b.ix, text.Tokenize(strings.Join(q, " ")), opts)
		io := opts.Exec.Stats()
		return &xrank.QueryStats{IO: io, SimulatedTime: storage.PaperDiskCostModel().SimulatedTime(io)}, err
	})
}
