package query

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"xrank/internal/dewey"
	"xrank/internal/index"
	"xrank/internal/storage"
	"xrank/internal/xmldoc"
)

// Tests for the paper's extension features: keyword weights
// (Section 2.3.2.2) and disjunctive semantics (Section 2.2).

func TestWeightsMatchBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	fx := newFixture(t, randomCorpus(r, 3), index.BuildOptions{})
	for trial := 0; trial < 8; trial++ {
		q := []string{fmt.Sprintf("v%d", r.Intn(40)), fmt.Sprintf("v%d", (r.Intn(39)+1+r.Intn(1))%40)}
		if q[0] == q[1] {
			continue
		}
		opts := DefaultOptions()
		opts.TopM = 200
		opts.Weights = []float64{0.2 + r.Float64(), 0.2 + r.Float64()}
		want, err := BruteForce(fx.c, fx.ranks, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DIL(fx.ix, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, fmt.Sprintf("weighted DIL(%v)", q), got, want, 1e-9)

		opts.TopM = 5
		wantTop := want
		if len(wantTop) > 5 {
			wantTop = wantTop[:5]
		}
		gotR, err := RDIL(fx.ix, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, fmt.Sprintf("weighted RDIL(%v)", q), gotR, wantTop, 1e-9)
	}
}

func TestWeightsValidation(t *testing.T) {
	fx := newFixture(t, []string{figure1}, index.BuildOptions{})
	opts := DefaultOptions()
	opts.Weights = []float64{1} // wrong arity for 2 keywords
	if _, err := DIL(fx.ix, []string{"xql", "language"}, opts); err == nil {
		t.Errorf("weight arity mismatch should fail")
	}
	opts.Weights = []float64{-1, 1}
	if _, err := DIL(fx.ix, []string{"xql", "language"}, opts); err == nil {
		t.Errorf("negative weight should fail")
	}
	// Zero weight effectively mutes a keyword's contribution but keeps the
	// conjunctive filter.
	opts.Weights = []float64{0, 1}
	rs, err := DIL(fx.ix, []string{"xql", "language"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 {
		t.Errorf("zero-weight query should still return conjunctive results")
	}
}

// TestRankOverrideRejectedByRankedAlgorithms: only the Dewey-ordered
// processors accept Options.Rank. The rank-ordered lists and the naive
// baselines are sorted or scored by their stored ranks, so an override
// would silently break their order.
func TestRankOverrideRejectedByRankedAlgorithms(t *testing.T) {
	fx := newFixture(t, []string{figure1}, index.BuildOptions{})
	opts := DefaultOptions()
	opts.Rank = func(*index.Posting) float64 { return 1 }
	if _, err := RDIL(fx.ix, []string{"xql", "language"}, opts); err == nil {
		t.Errorf("RDIL should reject a rank override")
	}
	if _, _, err := HDIL(fx.ix, []string{"xql", "language"}, opts, storage.DefaultCostModel()); err == nil {
		t.Errorf("HDIL should reject a rank override")
	}
	nx := fx.naive(t)
	if _, err := NaiveRank(nx, []string{"xql", "language"}, opts); err == nil {
		t.Errorf("NaiveRank should reject a rank override")
	}
	if _, err := NaiveID(nx, []string{"xql", "language"}, opts); err == nil {
		t.Errorf("NaiveID should reject a rank override")
	}
}

// disjunctiveReference recomputes the disjunctive semantics directly from
// the collection: every element directly containing at least one keyword,
// scored by the weighted sum of its per-keyword ElemRanks times proximity
// over the present keywords.
func disjunctiveReference(c *xmldoc.Collection, ranks []float64, kws []string, opts Options) []Result {
	var out []Result
	for _, d := range c.Docs {
		for _, e := range d.Elements {
			perKw := make([][]uint32, len(kws))
			present := 0
			for _, tok := range e.Tokens {
				for i, k := range kws {
					if tok.Term == k {
						if len(perKw[i]) == 0 {
							present++
						}
						perKw[i] = append(perKw[i], tok.Pos)
					}
				}
			}
			if present == 0 {
				continue
			}
			score := 0.0
			var prox [][]uint32
			for i := range kws {
				if len(perKw[i]) > 0 {
					score += opts.weight(i) * float64(float32(ranks[d.Base+int(e.Index)]))
					prox = append(prox, perKw[i])
				}
			}
			if opts.UseProximity && len(prox) > 1 {
				score *= Proximity(prox)
			}
			out = append(out, Result{ID: e.DeweyID(), Score: score})
		}
	}
	SortResults(out)
	return out
}

func TestDisjunctiveMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	fx := newFixture(t, randomCorpus(r, 3), index.BuildOptions{})
	for trial := 0; trial < 10; trial++ {
		nk := 1 + r.Intn(3)
		q := make([]string, nk)
		seen := map[string]bool{}
		for i := range q {
			for {
				q[i] = fmt.Sprintf("v%d", r.Intn(40))
				if !seen[q[i]] {
					seen[q[i]] = true
					break
				}
			}
		}
		opts := DefaultOptions()
		opts.TopM = 10000
		want := disjunctiveReference(fx.c, fx.ranks, q, opts)
		got, err := Disjunctive(fx.ix, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("disjunctive(%v): %d results, want %d", q, len(got), len(want))
		}
		for i := range got {
			if !dewey.Equal(got[i].ID, want[i].ID) || math.Abs(got[i].Score-want[i].Score) > 1e-12 {
				t.Fatalf("disjunctive(%v)[%d]: %v/%g, want %v/%g", q, i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
			}
		}
	}
}

func TestDisjunctiveSupersetsConjunctive(t *testing.T) {
	fx := newFixture(t, []string{figure1}, index.BuildOptions{})
	opts := DefaultOptions()
	opts.TopM = 1000
	dis, err := Disjunctive(fx.ix, []string{"xql", "xyleme"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Every element directly containing either keyword appears.
	if len(dis) < 4 {
		t.Fatalf("disjunctive results = %d", len(dis))
	}
	// An absent keyword does not empty the result.
	dis2, err := Disjunctive(fx.ix, []string{"xql", "notinthecorpus"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(dis2) == 0 {
		t.Errorf("disjunctive with one absent keyword should still match")
	}
	// All absent: empty.
	dis3, err := Disjunctive(fx.ix, []string{"nope", "alsonope"}, opts)
	if err != nil || dis3 != nil {
		t.Errorf("all-absent disjunctive = %v, %v", dis3, err)
	}
}
