package query

// Sharded fixtures over the internal/datagen corpora, and the executor
// bindings the golden and HDIL tests run on them. The engine-level
// history harness (TestHistory in the root package) checks every
// processor against the brute-force specification at shard counts 1, 2
// and 8.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"xrank/internal/datagen/dblp"
	"xrank/internal/datagen/xmark"
	"xrank/internal/elemrank"
	"xrank/internal/index"
	"xrank/internal/xmldoc"
)

// shardedFixture holds one collection indexed at several shard counts.
type shardedFixture struct {
	c       *xmldoc.Collection
	ranks   []float64
	sharded map[int]*index.Sharded
}

func newShardedFixture(t *testing.T, docs []string, opts index.BuildOptions, counts []int) *shardedFixture {
	t.Helper()
	c := xmldoc.NewCollection()
	for i, s := range docs {
		if _, err := c.AddXML(fmt.Sprintf("doc%03d", i), strings.NewReader(s), nil); err != nil {
			t.Fatalf("AddXML doc%03d: %v", i, err)
		}
	}
	g, _ := elemrank.BuildGraph(c)
	res, err := elemrank.Compute(g, elemrank.DefaultParams())
	if err != nil || !res.Converged {
		t.Fatalf("elemrank: %v", err)
	}
	fx := &shardedFixture{c: c, ranks: res.Scores, sharded: make(map[int]*index.Sharded)}
	for _, sc := range counts {
		dir := t.TempDir()
		if _, err := index.BuildSharded(c, res.Scores, dir, opts, sc); err != nil {
			t.Fatalf("BuildSharded(%d): %v", sc, err)
		}
		sh, err := index.OpenSharded(dir, index.OpenOptions{})
		if err != nil {
			t.Fatalf("OpenSharded(%d): %v", sc, err)
		}
		t.Cleanup(func() { sh.Close() })
		fx.sharded[sc] = sh
	}
	return fx
}

// execSharded runs one processor on every shard of sh through the
// executor; dilSharded, rdilSharded and disjunctiveSharded bind it to a
// processor.
func execSharded(sh *index.Sharded, opts Options, run func(ix *index.Index, so Options) ([]Result, error)) ([]Result, error) {
	rs, _, err := Execute(Partitions(sh, false, NewHealth()), opts, func(p Partition, so Options) ([]Result, *HDILTrace, error) {
		rs, err := run(p.Ix, so)
		return rs, nil, err
	})
	return rs, err
}

func dilSharded(sh *index.Sharded, keywords []string, opts Options) ([]Result, error) {
	return execSharded(sh, opts, func(ix *index.Index, so Options) ([]Result, error) { return DIL(ix, keywords, so) })
}

func rdilSharded(sh *index.Sharded, keywords []string, opts Options) ([]Result, error) {
	return execSharded(sh, opts, func(ix *index.Index, so Options) ([]Result, error) { return RDIL(ix, keywords, so) })
}

func disjunctiveSharded(sh *index.Sharded, keywords []string, opts Options) ([]Result, error) {
	return execSharded(sh, opts, func(ix *index.Index, so Options) ([]Result, error) { return Disjunctive(ix, keywords, so) })
}

// datagenCorpus produces a multi-document corpus from the DBLP generator
// (many small documents, so shards get real spread) plus one XMark-shaped
// document for structural depth. The vocabulary is kept small so random
// conjunctive queries actually co-occur.
func datagenCorpus(seed int64) []string {
	var out []string
	for _, d := range dblp.Generate(dblp.Params{
		Seed:         seed,
		Docs:         10,
		PapersPerDoc: 6,
		VocabSize:    150,
	}) {
		out = append(out, d.XML)
	}
	out = append(out, xmark.Generate(xmark.Params{
		Seed:           seed + 1,
		Items:          25,
		People:         15,
		OpenAuctions:   20,
		ClosedAuctions: 12,
		Categories:     6,
		VocabSize:      150,
	}))
	return out
}

// corpusVocab returns the terms occurring in at least two documents and
// at least four times overall — the candidates from which random queries
// are drawn — in deterministic order.
func corpusVocab(c *xmldoc.Collection) []string {
	total := map[string]int{}
	docsWith := map[string]map[int]bool{}
	for di, d := range c.Docs {
		for _, e := range d.Elements {
			for _, tok := range e.Tokens {
				total[tok.Term]++
				m := docsWith[tok.Term]
				if m == nil {
					m = map[int]bool{}
					docsWith[tok.Term] = m
				}
				m[di] = true
			}
		}
	}
	var vocab []string
	for term, n := range total {
		if n >= 4 && len(docsWith[term]) >= 2 {
			vocab = append(vocab, term)
		}
	}
	sort.Strings(vocab)
	return vocab
}

// TestNaiveBaselinesOnDifferentialCorpus checks the standalone naive
// index on the differential corpora: Naive-ID's result set is exactly R0
// (every element containing* all keywords), and Naive-Rank's threshold
// algorithm returns Naive-ID's top-m.
func TestNaiveBaselinesOnDifferentialCorpus(t *testing.T) {
	for seed := int64(0); seed < 2; seed++ {
		fx := newShardedFixture(t, datagenCorpus(seed), index.BuildOptions{}, nil)
		nx := (&fixture{c: fx.c, ranks: fx.ranks}).naive(t)
		vocab := corpusVocab(fx.c)
		r := rand.New(rand.NewSource(seed*31 + 7))
		matched := 0
		for trial := 0; trial < 10; trial++ {
			q := make([]string, 1+r.Intn(3))
			for i := range q {
				q[i] = vocab[r.Intn(len(vocab))]
			}
			name := fmt.Sprintf("seed%d trial%d %v", seed, trial, q)
			r0, err := BruteForceR0(fx.c, q)
			if err != nil {
				t.Fatal(err)
			}
			opts := DefaultOptions()
			opts.TopM = len(r0) + 1
			all, err := NaiveID(nx, q, opts)
			if err != nil {
				t.Fatal(err)
			}
			sameElems(t, name+" NaiveID", all, r0)
			if len(r0) > 0 {
				matched++
			}

			opts.TopM = 8
			want, err := NaiveID(nx, q, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := NaiveRank(nx, q, opts)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, name+" NaiveRank", got, want, 1e-9)
		}
		if matched < 5 {
			t.Errorf("seed %d: only %d of 10 queries had results", seed, matched)
		}
	}
}

// coldCache empties every shard's buffer pools.
func coldCache(t testing.TB, sh *index.Sharded) {
	t.Helper()
	for _, ix := range sh.Shards() {
		if err := ix.ColdCache(); err != nil {
			t.Fatal(err)
		}
	}
}
