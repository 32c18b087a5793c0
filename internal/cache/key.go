package cache

import (
	"slices"
	"strconv"
	"strings"
)

// Spec is everything that determines a query's result set, in the form
// the engine resolved it (engine-level defaults already applied). Key
// canonicalizes it so that semantically identical queries collide:
//
//   - duplicate terms are redundant under both conjunctive and
//     disjunctive semantics (the processors deduplicate, keeping the
//     first occurrence), so they are dropped;
//   - term order never affects scores — per-keyword contributions are
//     summed and the proximity window is set-based — so terms sort
//     lexicographically, each keeping the weight that was aligned with
//     it (weights pair with distinct terms in order of first
//     appearance, exactly as query.Options.Weights is defined);
//   - an all-ones weight vector means the same as no weights at all.
//
// Every option that can change the result set is encoded unambiguously
// (quoted terms, exact hex floats), so distinct options never collide.
type Spec struct {
	// Terms are the tokenized keywords in query order, duplicates and all.
	Terms []string
	// Weights aligns with the distinct terms in order of first
	// appearance; nil (or all ones) means unweighted. A vector whose
	// length does not match the distinct-term count is encoded verbatim:
	// such a query fails validation anyway, and a malformed spec must
	// still never collide with a well-formed one.
	Weights []float64
	// Algo labels the processor ("DIL", "HDIL", ..., "Disjunctive").
	Algo string
	// TopM is the resolved result count.
	TopM int
	// Decay is the resolved per-level rank decay.
	Decay float64
	// Proximity is the resolved proximity-factor switch.
	Proximity bool
	// SumAgg selects f=sum occurrence aggregation.
	SumAgg bool
	// TFIDF selects tf-idf scoring.
	TFIDF bool
}

// Key renders the canonical cache key. Two Specs produce the same key
// iff they describe the same result computation.
//
// Key runs on every cacheable query, hits included, so it appends into
// one stack buffer and deduplicates small term lists without a map.
func (s Spec) Key() string {
	var pairArr [8]termWeight
	pairs, weighted := s.canonicalTerms(pairArr[:0])
	var keyArr [256]byte
	b := append(keyArr[:0], "q1|a="...)
	b = strconv.AppendQuote(b, s.Algo)
	b = append(b, "|m="...)
	b = strconv.AppendInt(b, int64(s.TopM), 10)
	b = append(b, "|d="...)
	b = strconv.AppendFloat(b, s.Decay, 'x', -1, 64)
	b = append(b, "|p="...)
	b = strconv.AppendBool(b, s.Proximity)
	b = append(b, "|s="...)
	b = strconv.AppendBool(b, s.SumAgg)
	b = append(b, "|t="...)
	b = strconv.AppendBool(b, s.TFIDF)
	for _, p := range pairs {
		b = append(b, "|k="...)
		b = strconv.AppendQuote(b, p.term)
		if weighted {
			b = append(b, ':')
			b = strconv.AppendFloat(b, p.weight, 'x', -1, 64)
		}
	}
	return string(b)
}

// termWeight is one distinct term and the weight aligned with it.
type termWeight struct {
	term   string
	weight float64
}

// linearDedupMax is the term count up to which canonicalTerms finds
// duplicates by scanning the pairs kept so far. Longer lists use a map:
// the terms come from request text, and the scan is quadratic.
const linearDedupMax = 16

// canonicalTerms deduplicates (first occurrence wins, pairing each
// distinct term with its weight) and stably sorts the term/weight pairs
// by term, appending them to pairs. weighted is false when the vector is
// absent or all-ones; a misaligned vector is appended verbatim through
// sentinel terms so it cannot collide with an aligned one.
func (s Spec) canonicalTerms(pairs []termWeight) (_ []termWeight, weighted bool) {
	var seen map[string]bool
	if len(s.Terms) > linearDedupMax {
		seen = make(map[string]bool, len(s.Terms))
	}
	for _, t := range s.Terms {
		if seen != nil {
			if seen[t] {
				continue
			}
			seen[t] = true
		} else if slices.ContainsFunc(pairs, func(p termWeight) bool { return p.term == t }) {
			continue
		}
		pairs = append(pairs, termWeight{term: t, weight: 1})
	}
	if len(s.Weights) == len(pairs) && len(s.Weights) > 0 {
		for i := range pairs {
			pairs[i].weight = s.Weights[i]
			if s.Weights[i] != 1 {
				weighted = true
			}
		}
	} else if len(s.Weights) > 0 {
		// Misaligned vector: keep it distinguishable without pretending
		// it pairs with any term.
		weighted = true
		pairs = append(pairs, termWeight{term: "\x00misaligned", weight: float64(len(s.Weights))})
		for i, w := range s.Weights {
			pairs = append(pairs, termWeight{term: "\x00w" + strconv.Itoa(i), weight: w})
		}
	}
	slices.SortStableFunc(pairs, func(a, b termWeight) int { return strings.Compare(a.term, b.term) })
	return pairs, weighted
}
