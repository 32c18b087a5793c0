package query

import (
	"xrank/internal/dewey"
	"xrank/internal/index"
)

// Disjunctive evaluates the query under disjunctive keyword semantics
// (Section 2.2: "elements that contain at least one of the query keywords
// are returned"), combined with XRANK's most-specific-result principle:
// the returned elements are the ones *directly* containing a keyword —
// their ancestors contain the keywords only through them and are
// suppressed exactly as in the conjunctive case.
//
// The score is the weighted sum of the per-keyword ranks of the keywords
// present, times the proximity over those keywords. A single sequential
// merge of the Dewey-ordered lists suffices: entries for the same element
// are adjacent across lists.
func Disjunctive(ix *index.Index, keywords []string, opts Options) ([]Result, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	keywords, err := normalizeKeywords(keywords)
	if err != nil {
		return nil, err
	}
	if err := opts.checkWeights(len(keywords)); err != nil {
		return nil, err
	}
	n := len(keywords)
	streams := make([]*postingStream, 0, n)
	// A cancellation, budget, or I/O error can abandon streams mid-list
	// with pages pinned; close is idempotent, so the drained ones are fine.
	defer func() {
		for _, s := range streams {
			s.close()
		}
	}()
	weights := make([]float64, 0, n)
	endOpen := opts.Exec.StartSpan("disj.open")
	for i, kw := range keywords {
		cur, ok := ix.DILCursorExec(opts.Exec, kw)
		if !ok {
			continue // absent keywords simply contribute nothing
		}
		s := &postingStream{cur: cur}
		streams = append(streams, s)
		weights = append(weights, opts.weight(i))
		if err := s.advance(); err != nil {
			return nil, err
		}
	}
	endOpen()
	if len(streams) == 0 {
		return nil, nil
	}

	h := newResultHeap(opts.TopM)
	// Per-element scratch, reused across the whole merge: the element's ID
	// (heads are invalidated by advance), and the matching keywords'
	// posLists back to back in pos, the k-th ending at ends[k].
	var (
		id   dewey.ID
		pos  []uint32
		ends = make([]int, 0, len(streams))
		prox = make([][]uint32, 0, len(streams))
	)
	// The merge runs until the function returns, so a deferred end covers it.
	defer opts.Exec.StartSpan("disj.merge")()
	for iter := 0; ; iter++ {
		if iter%cancelCheckInterval == 0 {
			if err := opts.Exec.Err(); err != nil {
				return nil, err
			}
		}
		// Smallest head ID across the still-live streams.
		var minID dewey.ID
		for _, s := range streams {
			if s.p != nil && (minID == nil || dewey.Compare(s.p.ID, minID) < 0) {
				minID = s.p.ID
			}
		}
		if minID == nil {
			break
		}
		id = append(id[:0], minID...)
		score := 0.0
		pos, ends = pos[:0], ends[:0]
		for si, s := range streams {
			if s.p == nil || !dewey.Equal(s.p.ID, id) {
				continue
			}
			score += weights[si] * opts.rank(s.p)
			pos = append(pos, s.p.Positions...)
			ends = append(ends, len(pos))
			if err := s.advance(); err != nil {
				return nil, err
			}
		}
		if opts.UseProximity && len(ends) > 1 {
			prox = prox[:0]
			start := 0
			for _, end := range ends {
				prox = append(prox, pos[start:end])
				start = end
			}
			score *= Proximity(prox)
		}
		h.offerCopy(id, score)
	}
	return h.sorted(), nil
}
