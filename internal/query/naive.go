package query

import (
	"fmt"
	"math"

	"xrank/internal/index"
)

// The paper's naive baselines (Section 4.1 / 5.1) over the standalone
// naive index (index.BuildNaive). They exist to be measured against the
// Dewey algorithms in the experiment harness, so they take only what
// those experiments need: ElemRank scoring from the stored ranks, with
// keyword weights and proximity.

// naiveOptions fills opts and rejects what the naive lists cannot answer.
func naiveOptions(opts *Options, keywords []string) ([]string, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	if opts.Rank != nil {
		return nil, fmt.Errorf("query: the naive baselines score by their stored ElemRanks only")
	}
	keywords, err := normalizeKeywords(keywords)
	if err != nil {
		return nil, err
	}
	return keywords, opts.checkWeights(len(keywords))
}

// NaiveID evaluates the query against the naive element-granularity
// inverted lists ordered by element ID ("Naive-ID"): a plain n-way
// equality merge join. Because naive lists replicate every ancestor, the
// result set contains every element that contains* all keywords —
// including the spurious ancestors the Dewey algorithms suppress — and
// ranking ignores result specificity (no decay). A result's ID is the
// single-component global element index.
func NaiveID(nx *index.NaiveIndex, keywords []string, opts Options) ([]Result, error) {
	keywords, err := naiveOptions(&opts, keywords)
	if err != nil {
		return nil, err
	}
	n := len(keywords)
	curs := make([]*index.NaiveCursor, n)
	heads := make([]*index.Posting, n)
	for i, kw := range keywords {
		cur, ok := nx.IDCursor(opts.Exec, kw)
		if !ok {
			return nil, nil
		}
		curs[i] = cur
		defer cur.Close()
		p, ok, err := cur.Next()
		if err != nil || !ok {
			return nil, err
		}
		heads[i] = p
	}
	h := newResultHeap(opts.TopM)
	prox := make([][]uint32, n)
	for iter := 0; ; iter++ {
		if iter%cancelCheckInterval == 0 {
			if err := opts.Exec.Err(); err != nil {
				return nil, err
			}
		}
		// Find the largest head; advance all lists to it (equality merge).
		maxElem := heads[0].Elem
		for i := 1; i < n; i++ {
			if heads[i].Elem > maxElem {
				maxElem = heads[i].Elem
			}
		}
		allEqual := true
		for i := 0; i < n; i++ {
			for heads[i].Elem < maxElem {
				p, ok, err := curs[i].Next()
				if err != nil {
					return nil, err
				}
				if !ok {
					return h.sorted(), nil
				}
				heads[i] = p
			}
			if heads[i].Elem != maxElem {
				allEqual = false
			}
		}
		if !allEqual {
			continue
		}
		// Match: every list holds an entry for maxElem.
		score := 0.0
		for i := 0; i < n; i++ {
			score += opts.weight(i) * float64(heads[i].Rank)
			prox[i] = heads[i].Positions
		}
		if opts.UseProximity && n > 1 {
			score *= Proximity(prox)
		}
		h.offer(Result{ID: elemResultID(maxElem), Score: score})
		// Advance all lists past the match.
		for i := 0; i < n; i++ {
			p, ok, err := curs[i].Next()
			if err != nil {
				return nil, err
			}
			if !ok {
				return h.sorted(), nil
			}
			heads[i] = p
		}
	}
}

// elemResultID encodes a naive result (a global element index) as a
// single-component pseudo Dewey ID so both families share the Result
// type.
func elemResultID(elem int32) []uint32 { return []uint32{uint32(elem)} }

// NaiveRank evaluates the query against the rank-ordered naive lists with
// the Threshold Algorithm, using each keyword's hash index for the random
// equality lookups ("Naive-Rank"). Requires AggMax.
func NaiveRank(nx *index.NaiveIndex, keywords []string, opts Options) ([]Result, error) {
	keywords, err := naiveOptions(&opts, keywords)
	if err != nil {
		return nil, err
	}
	if opts.Agg != AggMax {
		return nil, fmt.Errorf("query: NaiveRank requires AggMax for a sound stopping threshold")
	}
	n := len(keywords)
	curs := make([]*index.NaiveCursor, n)
	for i, kw := range keywords {
		cur, ok := nx.RankCursor(opts.Exec, kw)
		if !ok {
			return nil, nil
		}
		curs[i] = cur
		defer cur.Close()
	}
	if n == 1 {
		out := make([]Result, 0, opts.TopM)
		for len(out) < opts.TopM {
			p, ok, err := curs[0].Next()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			out = append(out, Result{ID: elemResultID(p.Elem), Score: opts.weight(0) * float64(p.Rank)})
		}
		SortResults(out)
		return out, nil
	}

	h := newResultHeap(opts.TopM)
	seen := make(map[int32]bool)
	lastRank := make([]float64, n)
	for i := range lastRank {
		lastRank[i] = math.Inf(1)
	}
	prox := make([][]uint32, n)
	lookup := make([]index.Posting, n)
	threshold := func() float64 {
		t := 0.0
		for i, r := range lastRank {
			t += opts.weight(i) * r
		}
		return t
	}
	for {
		if err := opts.Exec.Err(); err != nil {
			return nil, err
		}
		progressed := false
		for i := 0; i < n; i++ {
			p, ok, err := curs[i].Next()
			if err != nil {
				return nil, err
			}
			if !ok {
				// One list fully consumed: standard TA terminates (every
				// remaining candidate was already seen via this list).
				return h.sorted(), nil
			}
			progressed = true
			lastRank[i] = float64(p.Rank)
			if seen[p.Elem] {
				continue
			}
			seen[p.Elem] = true
			score := opts.weight(i) * float64(p.Rank)
			prox[i] = p.Positions
			found := true
			for j := 0; j < n && found; j++ {
				if j == i {
					continue
				}
				ok, err := nx.Lookup(opts.Exec, keywords[j], p.Elem, &lookup[j])
				if err != nil {
					return nil, err
				}
				if !ok {
					found = false
					break
				}
				score += opts.weight(j) * float64(lookup[j].Rank)
				prox[j] = lookup[j].Positions
			}
			if found {
				if opts.UseProximity {
					score *= Proximity(prox)
				}
				h.offer(Result{ID: elemResultID(p.Elem), Score: score})
			}
			if k := h.kthScore(); k >= 0 && k >= threshold() {
				return h.sorted(), nil
			}
		}
		if !progressed {
			return h.sorted(), nil
		}
	}
}
