package cache

import (
	"sort"
	"strconv"
	"strings"
	"testing"
)

// referenceKey is Spec.Key as it was written before Key moved to one
// append buffer and a map-free deduplication: a per-call map,
// sort.SliceStable and a strings.Builder. The keys are part of no file
// format, but every cached entry and coalescing flight is found by them,
// so the rewrite must render byte-identical keys (TestKeyMatchesReference,
// FuzzCacheKey).
func referenceKey(s Spec) string {
	type tw struct {
		term   string
		weight float64
	}
	seen := make(map[string]bool, len(s.Terms))
	pairs := make([]tw, 0, len(s.Terms))
	for _, t := range s.Terms {
		if seen[t] {
			continue
		}
		seen[t] = true
		pairs = append(pairs, tw{term: t, weight: 1})
	}
	weighted := false
	if len(s.Weights) == len(pairs) && len(s.Weights) > 0 {
		for i := range pairs {
			pairs[i].weight = s.Weights[i]
			if s.Weights[i] != 1 {
				weighted = true
			}
		}
	} else if len(s.Weights) > 0 {
		weighted = true
		pairs = append(pairs, tw{term: "\x00misaligned", weight: float64(len(s.Weights))})
		for i, w := range s.Weights {
			pairs = append(pairs, tw{term: "\x00w" + strconv.Itoa(i), weight: w})
		}
	}
	sort.SliceStable(pairs, func(i, j int) bool { return pairs[i].term < pairs[j].term })

	var b strings.Builder
	b.WriteString("q1|a=")
	b.WriteString(strconv.Quote(s.Algo))
	b.WriteString("|m=")
	b.WriteString(strconv.Itoa(s.TopM))
	b.WriteString("|d=")
	b.WriteString(strconv.FormatFloat(s.Decay, 'x', -1, 64))
	b.WriteString("|p=")
	b.WriteString(strconv.FormatBool(s.Proximity))
	b.WriteString("|s=")
	b.WriteString(strconv.FormatBool(s.SumAgg))
	b.WriteString("|t=")
	b.WriteString(strconv.FormatBool(s.TFIDF))
	for _, p := range pairs {
		b.WriteString("|k=")
		b.WriteString(strconv.Quote(p.term))
		if weighted {
			b.WriteString(":")
			b.WriteString(strconv.FormatFloat(p.weight, 'x', -1, 64))
		}
	}
	return b.String()
}

// TestKeyMatchesReference pins Key to referenceKey on the shapes the
// fuzzer reaches only by luck: term lists on both sides of the linear
// deduplication bound, misaligned weight vectors, a term spelled like a
// sentinel, and keys longer than Key's stack buffer.
func TestKeyMatchesReference(t *testing.T) {
	many := func(n, distinct int) []string {
		ts := make([]string, n)
		for i := range ts {
			ts[i] = "t" + strconv.Itoa((i*7)%distinct)
		}
		return ts
	}
	long := strings.Repeat("päper-統計-", 40)
	specs := []Spec{
		baseSpec(),
		{},
		{Terms: []string{"b", "a", "b"}, Weights: []float64{2, 1}, Algo: "DIL", TopM: 3, Decay: 0.5},
		{Terms: []string{"b", "a"}, Weights: []float64{2, 1, 4}, Algo: "DIL", TopM: 3},
		{Terms: []string{"\x00w0", "a"}, Weights: []float64{1}, Algo: "HDIL", TopM: 10},
		{Terms: many(linearDedupMax, linearDedupMax), Algo: "RDIL", TopM: 10, Decay: 0.75},
		{Terms: many(linearDedupMax+1, 5), Algo: "RDIL", TopM: 10, Decay: 0.75},
		{Terms: many(64, 40), Weights: make([]float64, 40), Algo: "Disjunctive", TopM: 1000, SumAgg: true, TFIDF: true},
		{Terms: []string{long, "x\"q|k=", long}, Algo: long, TopM: -1, Decay: 1e-300},
	}
	for i, s := range specs {
		if got, want := s.Key(), referenceKey(s); got != want {
			t.Errorf("spec %d: Key\n %q\nreference\n %q", i, got, want)
		}
	}
}

func baseSpec() Spec {
	return Spec{
		Terms:     []string{"xml", "ranked", "search"},
		Algo:      "HDIL",
		TopM:      10,
		Decay:     0.75,
		Proximity: true,
	}
}

func TestKeyTermOrderAndDuplicates(t *testing.T) {
	want := baseSpec().Key()
	equivalent := []Spec{
		{Terms: []string{"search", "xml", "ranked"}, Algo: "HDIL", TopM: 10, Decay: 0.75, Proximity: true},
		{Terms: []string{"ranked", "xml", "xml", "search", "ranked"}, Algo: "HDIL", TopM: 10, Decay: 0.75, Proximity: true},
		{Terms: []string{"xml", "ranked", "search"}, Weights: []float64{1, 1, 1}, Algo: "HDIL", TopM: 10, Decay: 0.75, Proximity: true},
	}
	for i, s := range equivalent {
		if got := s.Key(); got != want {
			t.Errorf("equivalent spec %d: key %q != %q", i, got, want)
		}
	}
}

func TestKeyWeightsFollowTerms(t *testing.T) {
	a := baseSpec()
	a.Weights = []float64{2, 1, 3} // xml=2 ranked=1 search=3
	b := baseSpec()
	b.Terms = []string{"search", "ranked", "xml"}
	b.Weights = []float64{3, 1, 2} // same term→weight mapping
	if a.Key() != b.Key() {
		t.Errorf("reordered weighted query should collide:\n%q\n%q", a.Key(), b.Key())
	}
	c := baseSpec()
	c.Weights = []float64{3, 1, 2} // different mapping
	if a.Key() == c.Key() {
		t.Error("different weight assignment must not collide")
	}
}

func TestKeyDistinctOptionsDiffer(t *testing.T) {
	base := baseSpec()
	mutations := []func(*Spec){
		func(s *Spec) { s.Algo = "DIL" },
		func(s *Spec) { s.Algo = "Disjunctive" },
		func(s *Spec) { s.TopM = 11 },
		func(s *Spec) { s.Decay = 0.5 },
		func(s *Spec) { s.Proximity = false },
		func(s *Spec) { s.SumAgg = true },
		func(s *Spec) { s.TFIDF = true },
		func(s *Spec) { s.Terms = append([]string{"extra"}, s.Terms...) },
		func(s *Spec) { s.Weights = []float64{2, 1, 1} },
		func(s *Spec) { s.Weights = []float64{1, 1} }, // misaligned ≠ unweighted
	}
	seen := map[string]int{base.Key(): -1}
	for i, mutate := range mutations {
		s := baseSpec()
		s.Terms = append([]string(nil), s.Terms...)
		mutate(&s)
		k := s.Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("mutation %d collides with %d: %q", i, prev, k)
		}
		seen[k] = i
	}
}

func TestKeyQuotingIsUnambiguous(t *testing.T) {
	// Terms containing the separators must not forge another spec's key.
	a := Spec{Terms: []string{`x|k="y"`}, Algo: "DIL", TopM: 10, Decay: 0.75}
	b := Spec{Terms: []string{"x", "y"}, Algo: "DIL", TopM: 10, Decay: 0.75}
	if a.Key() == b.Key() {
		t.Errorf("separator-bearing term forged a key: %q", a.Key())
	}
}
