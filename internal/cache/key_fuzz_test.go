package cache

import (
	"math/rand"
	"strings"
	"testing"
)

// FuzzCacheKey drives the canonicalizer's two contracts from random
// inputs: semantically identical queries (terms permuted, duplicates
// injected, weights kept aligned) must collide on one key, and flipping
// any single option must separate the keys. Every key must also equal
// referenceKey's.
func FuzzCacheKey(f *testing.F) {
	f.Add("xml ranked search", int64(1), 10, 0.75, true, false, false, byte(0))
	f.Add("alpha beta alpha", int64(7), 5, 0.5, false, true, false, byte(1))
	f.Add("a", int64(42), 100, 1.0, true, false, true, byte(2))
	f.Add("päper ünï 統計", int64(3), 25, 0.9, false, false, false, byte(3))
	f.Fuzz(func(t *testing.T, termData string, seed int64, topM int, decay float64, prox, sum, tfidf bool, algoPick byte) {
		if !(decay >= 0 && decay <= 1) {
			t.Skip("decay outside the valid range")
		}
		raw := strings.Fields(termData)
		if len(raw) == 0 || len(raw) > 32 {
			t.Skip("no usable terms")
		}
		// Distinct terms in first-appearance order, each given a weight.
		rng := rand.New(rand.NewSource(seed))
		seen := map[string]bool{}
		var terms []string
		for _, w := range raw {
			if !seen[w] {
				seen[w] = true
				terms = append(terms, w)
			}
		}
		weights := make([]float64, len(terms))
		for i := range weights {
			weights[i] = float64(1 + rng.Intn(3))
		}
		algos := []string{"HDIL", "DIL", "RDIL", "Disjunctive"}
		base := Spec{
			Terms: terms, Weights: weights, Algo: algos[int(algoPick)%len(algos)],
			TopM: topM, Decay: decay, Proximity: prox, SumAgg: sum, TFIDF: tfidf,
		}
		want := base.Key()
		if ref := referenceKey(base); want != ref {
			t.Fatalf("Key drifted from the reference:\n  got %q\n want %q", want, ref)
		}

		// Equivalent variant: permute the (term, weight) pairs — the
		// weight vector follows the new first-appearance order — and
		// re-append random duplicates (which must be ignored).
		perm := rng.Perm(len(terms))
		pterms := make([]string, len(terms))
		pweights := make([]float64, len(terms))
		for i, j := range perm {
			pterms[i] = terms[j]
			pweights[i] = weights[j]
		}
		dupTerms := append([]string(nil), pterms...)
		for i := 0; i < rng.Intn(4); i++ {
			dupTerms = append(dupTerms, pterms[rng.Intn(len(pterms))])
		}
		variant := base
		variant.Terms = dupTerms
		variant.Weights = pweights
		if got := variant.Key(); got != want {
			t.Fatalf("permuted/duplicated query changed key:\n base %q\n  got %q", want, got)
		}
		if ref := referenceKey(variant); ref != want {
			t.Fatalf("reference disagrees on the permuted query:\n  key %q\n  ref %q", want, ref)
		}

		// Distinct options must separate.
		fresh := "\x01new-term"
		for seen[fresh] {
			fresh += "\x01" // guaranteed not already a query term
		}
		mutations := []func(*Spec){
			func(s *Spec) { s.TopM++ },
			func(s *Spec) { s.Proximity = !s.Proximity },
			func(s *Spec) { s.SumAgg = !s.SumAgg },
			func(s *Spec) { s.TFIDF = !s.TFIDF },
			func(s *Spec) { s.Algo = s.Algo + "'" },
			func(s *Spec) { s.Terms = append([]string{fresh}, s.Terms...) },
		}
		for i, mutate := range mutations {
			m := base
			m.Terms = append([]string(nil), base.Terms...)
			m.Weights = append([]float64(nil), base.Weights...)
			mutate(&m)
			if k, ref := m.Key(), referenceKey(m); k != ref {
				t.Fatalf("mutation %d: Key drifted from the reference:\n  got %q\n want %q", i, k, ref)
			}
			if m.Key() == want {
				t.Fatalf("mutation %d did not change the key %q", i, want)
			}
		}
	})
}
