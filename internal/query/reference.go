package query

import (
	"sort"

	"xrank/internal/text"
	"xrank/internal/xmldoc"
)

// BruteForce evaluates a conjunctive keyword query directly from the
// Section 2.2 / 2.3 definitions over the in-memory collection, with no
// index. It exists as an executable specification: the index-based
// processors are tested against it. It returns every result (not just
// top-m), sorted by descending score.
//
// ranks holds ElemRank by global element index; scores are computed at
// float32 precision for the per-element rank (as the indexes store them)
// to keep comparisons exact.
func BruteForce(c *xmldoc.Collection, ranks []float64, keywords []string, opts Options) ([]Result, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	kws, err := normalizeKeywords(keywords)
	if err != nil {
		return nil, err
	}
	n := len(kws)
	if err := opts.checkWeights(n); err != nil {
		return nil, err
	}
	kwIdx := make(map[string]int, n)
	for i, k := range kws {
		kwIdx[text.NormalizeTerm(k)] = i
	}

	var results []Result
	for _, d := range c.Docs {
		// R0 membership: contains*(v, ki) for all i, per element.
		containsAll := make([]bool, len(d.Elements))
		var computeContains func(e *xmldoc.Element) []bool
		containsKw := make([][]bool, len(d.Elements))
		computeContains = func(e *xmldoc.Element) []bool {
			has := make([]bool, n)
			for _, tok := range e.Tokens {
				if i, ok := kwIdx[tok.Term]; ok {
					has[i] = true
				}
			}
			for _, ch := range e.Children {
				sub := computeContains(ch)
				for i := range has {
					has[i] = has[i] || sub[i]
				}
			}
			all := true
			for i := range has {
				all = all && has[i]
			}
			containsAll[e.Index] = all
			containsKw[e.Index] = has
			return has
		}
		computeContains(d.Root)

		// For each element, collect relevant occurrences: direct
		// occurrences in descendants reachable without passing through an
		// R0 element strictly below v. An "occurrence" is element-
		// granularity, matching the inverted-list entries the algorithms
		// aggregate (one entry per directly containing element, with its
		// posList).
		for _, v := range d.Elements {
			rel := make([][]occ, n)
			var collect func(u *xmldoc.Element, depth int)
			collect = func(u *xmldoc.Element, depth int) {
				posOf := make(map[int][]uint32, 2)
				for _, tok := range u.Tokens {
					if i, ok := kwIdx[tok.Term]; ok {
						posOf[i] = append(posOf[i], tok.Pos)
					}
				}
				for i, ps := range posOf {
					g := d.Base + int(u.Index)
					rel[i] = append(rel[i], occ{
						rank:  float64(float32(ranks[g])),
						depth: depth,
						pos:   ps,
					})
				}
				for _, ch := range u.Children {
					if containsAll[ch.Index] {
						continue // blocked: the subtree is a more specific result
					}
					collect(ch, depth+1)
				}
			}
			collect(v, 0)
			ok := true
			for i := 0; i < n; i++ {
				if len(rel[i]) == 0 {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			// Per-keyword rank: f over occurrences of base * decay^depth,
			// decayed by repeated multiplication as the stack merge does.
			score := 0.0
			prox := make([][]uint32, n)
			for i := 0; i < n; i++ {
				ri := 0.0
				var ps []uint32
				for _, o := range rel[i] {
					r := o.rank
					for k := 0; k < o.depth; k++ {
						r *= opts.Decay
					}
					ri = opts.Agg.combine(ri, r)
					ps = append(ps, o.pos...)
				}
				score += opts.weight(i) * ri
				sort.Slice(ps, func(a, b int) bool { return ps[a] < ps[b] })
				prox[i] = ps
			}
			if opts.UseProximity && n > 1 {
				score *= Proximity(prox)
			}
			results = append(results, Result{ID: v.DeweyID(), Score: score})
		}
	}
	SortResults(results)
	return results, nil
}

type occ struct {
	rank  float64
	depth int
	pos   []uint32
}

// BruteForceDisjunctive is the executable specification for Disjunctive:
// every element *directly* containing at least one keyword, scored by the
// weighted sum of the element's own (undecayed) per-keyword base ranks
// times the proximity over the keywords present. It returns every result
// sorted by descending score.
func BruteForceDisjunctive(c *xmldoc.Collection, ranks []float64, keywords []string, opts Options) ([]Result, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	kws, err := normalizeKeywords(keywords)
	if err != nil {
		return nil, err
	}
	n := len(kws)
	if err := opts.checkWeights(n); err != nil {
		return nil, err
	}
	kwIdx := make(map[string]int, n)
	for i, k := range kws {
		kwIdx[text.NormalizeTerm(k)] = i
	}

	var results []Result
	for _, d := range c.Docs {
		for _, e := range d.Elements {
			perKw := make([][]uint32, n)
			for _, tok := range e.Tokens {
				if i, ok := kwIdx[tok.Term]; ok {
					perKw[i] = append(perKw[i], tok.Pos)
				}
			}
			score := 0.0
			var prox [][]uint32
			for i := 0; i < n; i++ {
				if len(perKw[i]) == 0 {
					continue
				}
				r := float64(float32(ranks[d.Base+int(e.Index)]))
				score += opts.weight(i) * r
				prox = append(prox, perKw[i])
			}
			if len(prox) == 0 {
				continue
			}
			if opts.UseProximity && len(prox) > 1 {
				score *= Proximity(prox)
			}
			results = append(results, Result{ID: e.DeweyID(), Score: score})
		}
	}
	SortResults(results)
	return results, nil
}

// BruteForceR0 returns the global element indexes of R0 — every element
// that contains* all keywords — which is exactly the (spurious-including)
// result set of the naive approaches. Sorted ascending.
func BruteForceR0(c *xmldoc.Collection, keywords []string) ([]int32, error) {
	kws, err := normalizeKeywords(keywords)
	if err != nil {
		return nil, err
	}
	var out []int32
	for _, d := range c.Docs {
		for _, e := range d.Elements {
			all := true
			for _, k := range kws {
				if !xmldoc.ContainsTerm(e, text.NormalizeTerm(k)) {
					all = false
					break
				}
			}
			if all {
				out = append(out, int32(c.GlobalIndex(e)))
			}
		}
	}
	return out, nil
}
