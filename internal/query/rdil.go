package query

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"xrank/internal/dewey"
	"xrank/internal/index"
)

// rankedSource is "a rank-ordered entry stream plus a Dewey-ordered probe
// structure" for one keyword — RDIL's full rank-ordered list or HDIL's
// rank prefix, each probed through the term's DIL skip index. The
// threshold loop below is written against this so RDIL and HDIL share it.
type rankedSource struct {
	stream *postingStream
	prober *index.Prober
	// lastRank is the rank of the most recently consumed entry; +Inf until
	// the first entry is read, so the threshold cannot trigger early.
	lastRank float64
}

// taState runs the threshold-algorithm loop of Figure 7 over n ranked
// sources.
type taState struct {
	opts    Options
	sources []*rankedSource
	heap    *resultHeap
	// seen holds the encoded Dewey IDs already evaluated as deepest common
	// ancestors.
	seen        map[string]bool
	entriesRead int
	exhausted   bool // some source ran out of ranked entries

	// Per-query scratch, reused by every step so the loop allocates only
	// for what it keeps (a new seen key, a result entering the heap).
	key    []byte       // encoded Dewey ID for seen lookups
	lcp    dewey.ID     // the candidate ancestor being narrowed
	under  []postingBuf // per source: the postings below the candidate
	merger *merger      // evaluates one candidate over under
}

// taStates recycles threshold-algorithm states across RDIL and HDIL
// queries, so the evaluation scratch — the postings copied below each
// candidate, the merger's stack and arenas, the seen set — reaches its
// working size once rather than growing from empty in every query.
var taStates = sync.Pool{New: func() any {
	return &taState{heap: new(resultHeap), seen: make(map[string]bool), merger: new(merger)}
}}

// newTAState returns a state for one query over sources; release hands it
// back once the query is done with it.
func newTAState(opts Options, sources []*rankedSource) *taState {
	ta := taStates.Get().(*taState)
	ta.opts, ta.sources, ta.entriesRead, ta.exhausted = opts, sources, 0, false
	ta.heap.items, ta.heap.m = ta.heap.items[:0], opts.TopM
	clear(ta.seen)
	ta.under = slices.Grow(ta.under[:0], len(sources))[:len(sources)]
	streams := make([]*postingStream, len(sources))
	for j := range ta.under {
		b := &ta.under[j]
		b.reset()
		b.collect = b.add
		streams[j] = &b.postingStream
	}
	ta.merger.init(streams, opts)
	return ta
}

// release hands the state back for reuse; nothing it returned is
// affected (results are copied out of the heap).
func (ta *taState) release() {
	clear(ta.heap.items)
	ta.opts, ta.sources = Options{}, nil
	ta.merger.init(nil, Options{})
	taStates.Put(ta)
}

// postingBuf holds one keyword's postings below a candidate ancestor,
// copied out of the prober's reused Posting into arenas that survive from
// one evaluation to the next.
type postingBuf struct {
	postingStream
	ids     []uint32
	pos     []uint32
	collect func(p *index.Posting) error // add, bound once
}

func (b *postingBuf) reset() {
	b.posts, b.p, b.next, b.ids, b.pos = b.posts[:0], nil, 0, b.ids[:0], b.pos[:0]
}

// add copies p. An arena that grows mid-evaluation leaves the earlier
// postings pointing into the old array, which stays intact: arenas are
// only ever appended to until the next reset.
func (b *postingBuf) add(p *index.Posting) error {
	i0, p0 := len(b.ids), len(b.pos)
	b.ids = append(b.ids, p.ID...)
	b.pos = append(b.pos, p.Positions...)
	b.posts = append(b.posts, index.Posting{
		ID:        dewey.ID(b.ids[i0:len(b.ids):len(b.ids)]),
		Rank:      p.Rank,
		Positions: b.pos[p0:len(b.pos):len(b.pos)],
	})
	return nil
}

// threshold is the weighted sum of the last ElemRanks consumed per list
// (Figure 7 line 27). Decay and proximity are at most 1, so this
// overestimates any undiscovered result's score.
func (ta *taState) threshold() float64 {
	t := 0.0
	for i, s := range ta.sources {
		t += ta.opts.weight(i) * s.lastRank
	}
	return t
}

// done reports whether the top-m is guaranteed complete (line 28).
func (ta *taState) done() bool {
	k := ta.heap.kthScore()
	return k >= 0 && k >= ta.threshold()
}

// BlockSkipInfo describes one ranked list being abandoned after the
// threshold-algorithm stopping rule fired, for DebugBlockSkip.
type BlockSkipInfo struct {
	// Source is the list's index within the query's keyword sources.
	Source int
	// Cursor is the list's cursor, still positioned where the stop
	// occurred: RemainingBlockRefs reports the blocks about to be
	// skipped, and DecodeBlockMaxRank can audit any of them.
	Cursor *index.ListCursor
	// LastRank is the rank of the last entry consumed from this list;
	// every unread entry (hence every skipped block's true maximum) is
	// bounded by it, because the list is rank-descending.
	LastRank float64
	// Threshold is the weighted sum of all sources' LastRanks — the upper
	// bound on any undiscovered result's score.
	Threshold float64
	// KthScore is the current m-th best score; Threshold <= KthScore is
	// what justified the stop.
	KthScore float64
}

// DebugBlockSkip, when non-nil, is called once per ranked source at every
// threshold-algorithm stop, before the source's remaining blocks are
// skipped. Tests install it to prove pruning soundness: no skipped block
// can contain an entry that would change the top-m. Nil in production.
var DebugBlockSkip func(info BlockSkipInfo)

// finish records the pruning outcome of a threshold-algorithm stop: every
// block still unread in the ranked lists is provably unable to change the
// top-m, so the lists are dropped wholesale — the cursors count the
// unread blocks as skipped without decoding them. Call only when
// done() is true.
func (ta *taState) finish() {
	for i, src := range ta.sources {
		if DebugBlockSkip != nil && src.stream.p != nil {
			DebugBlockSkip(BlockSkipInfo{
				Source:    i,
				Cursor:    src.stream.cur,
				LastRank:  src.lastRank,
				Threshold: ta.threshold(),
				KthScore:  ta.heap.kthScore(),
			})
		}
		src.stream.terminate()
	}
}

// step consumes one entry from source i and evaluates its deepest common
// ancestor across all keywords (Figure 7 lines 10-25). It returns false
// when that source is exhausted.
func (ta *taState) step(i int) (bool, error) {
	// One threshold-loop boundary per step: probes and scans below also
	// check per page, but a step served entirely from cache must still
	// notice cancellation.
	if err := ta.opts.Exec.Err(); err != nil {
		return false, err
	}
	src := ta.sources[i]
	p := src.stream.p
	if p == nil {
		ta.exhausted = true
		return false, nil
	}
	src.lastRank = float64(p.Rank)
	ta.entriesRead++
	// If this entry's own element was already evaluated as a deepest
	// common ancestor, probing is redundant: the lcp derived from an ID
	// that is itself a known lcp is that ID (all lists have entries under
	// it, and no prefix of it is longer). On correlated keywords this
	// skips the probes for every list after the first.
	ta.key = dewey.Append(ta.key[:0], p.ID)
	if ta.seen[string(ta.key)] {
		return true, src.stream.advance()
	}
	// Find the longest prefix of p.ID containing all query keywords
	// (lines 11-16).
	lcp := append(ta.lcp[:0], p.ID...)
	ta.lcp = lcp
	for j := range ta.sources {
		if j == i {
			continue
		}
		n, err := ta.sources[j].prober.ProbeLCP(lcp)
		if err != nil {
			return false, err
		}
		lcp = lcp[:n]
		if len(lcp) == 0 {
			break
		}
	}
	if err := src.stream.advance(); err != nil {
		return false, err
	}
	if len(lcp) == 0 {
		return true, nil
	}
	ta.key = dewey.Append(ta.key[:0], lcp)
	if ta.seen[string(ta.key)] {
		return true, nil
	}
	ta.seen[string(ta.key)] = true
	score, isResult, err := ta.evaluate(lcp)
	if err != nil {
		return false, err
	}
	if isResult && ta.heap.accepts(lcp, score) {
		ta.heap.offer(Result{ID: lcp.Clone(), Score: score})
	}
	return true, nil
}

// evaluate collects the postings below lcp from every keyword's Dewey
// structure and determines whether lcp itself is a result — excluding
// sub-elements that already contain all keywords (Figure 7 lines 17-24) —
// and its overall rank. This reuses the Dewey-stack merge: run it over the
// in-memory posting sets under lcp and keep the emission whose ID is lcp.
func (ta *taState) evaluate(lcp dewey.ID) (float64, bool, error) {
	for j, src := range ta.sources {
		b := &ta.under[j]
		b.reset()
		if err := src.prober.ScanPrefix(lcp, b.collect); err != nil {
			return 0, false, err
		}
		if len(b.posts) == 0 {
			// Probes guaranteed entries under lcp for every list; an empty
			// scan means lcp was only the *probe* lcp for another list.
			return 0, false, nil
		}
		_ = b.advance() // primes the head; an in-memory stream cannot fail
	}
	var score float64
	found := false
	ta.merger.reset()
	err := ta.merger.run(func(id dewey.ID, s float64) {
		if dewey.Equal(id, lcp) {
			score, found = s, true
		}
	})
	return score, found, err
}

// singleKeywordTopM implements the n=1 special case: the first m entries
// of the rank-ordered list are exactly the top-m results (Section 4.3).
func singleKeywordTopM(cur *index.ListCursor, opts Options) ([]Result, error) {
	defer cur.Close()
	w := opts.weight(0)
	out := make([]Result, 0, opts.TopM)
	lastRank := math.Inf(1)
	for len(out) < opts.TopM {
		p, ok, err := cur.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		lastRank = float64(p.Rank)
		out = append(out, Result{ID: p.ID.Clone(), Score: w * float64(p.Rank)})
	}
	if len(out) == opts.TopM {
		// The list is rank-descending, so everything past the cutoff is
		// provably outside the top-m; the cursor counts the unread blocks
		// as skipped without decoding them.
		if DebugBlockSkip != nil {
			DebugBlockSkip(BlockSkipInfo{
				Cursor:    cur,
				LastRank:  lastRank,
				Threshold: w * lastRank,
				KthScore:  out[len(out)-1].Score,
			})
		}
		cur.SkipRemainingBlocks()
	}
	SortResults(out)
	return out, nil
}

// RDIL evaluates the query with the Ranked Dewey Inverted List algorithm
// (Figure 7): rank-ordered lists consumed round-robin, Dewey probes (the
// paper's B+-tree lookups, answered from the DIL skip index) to find
// deepest common ancestors, and the threshold-algorithm stopping rule. Requires AggMax (the threshold bound does not hold for AggSum).
func RDIL(ix *index.Index, keywords []string, opts Options) ([]Result, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	if opts.Agg != AggMax {
		return nil, fmt.Errorf("query: RDIL requires AggMax for a sound stopping threshold")
	}
	if opts.Rank != nil {
		return nil, fmt.Errorf("query: RDIL lists are ordered by their stored ranks; a rank override needs DIL")
	}
	keywords, err := normalizeKeywords(keywords)
	if err != nil {
		return nil, err
	}
	if err := opts.checkWeights(len(keywords)); err != nil {
		return nil, err
	}
	if len(keywords) == 1 {
		cur, ok := ix.RDILRankCursorExec(opts.Exec, keywords[0])
		if !ok {
			return nil, nil
		}
		return singleKeywordTopM(cur, opts)
	}
	sources := make([]*rankedSource, 0, len(keywords))
	// Early termination — and any cancellation, budget, or I/O error,
	// including during this init loop — leaves cursors mid-list with
	// pages pinned.
	defer func() {
		for _, s := range sources {
			s.stream.close()
		}
	}()
	endOpen := opts.Exec.StartSpan("rdil.open")
	for _, kw := range keywords {
		cur, okc := ix.RDILRankCursorExec(opts.Exec, kw)
		if !okc {
			endOpen()
			return nil, nil
		}
		prober, okp := ix.ProberExec(opts.Exec, kw)
		if !okp {
			cur.Close()
			endOpen()
			return nil, nil
		}
		s := &postingStream{cur: cur}
		sources = append(sources, &rankedSource{stream: s, prober: prober, lastRank: math.Inf(1)})
		if err := s.advance(); err != nil {
			return nil, err
		}
	}
	endOpen()
	ta := newTAState(opts, sources)
	defer ta.release()
	endRounds := opts.Exec.StartSpan("rdil.rounds")
	for !ta.exhausted && !ta.done() {
		for i := range sources {
			ok, err := ta.step(i)
			if err != nil {
				return nil, err
			}
			if !ok || ta.done() {
				break
			}
		}
	}
	if ta.done() {
		// Threshold stop: the unread tails (whole blocks) are provably
		// irrelevant to the top-m.
		ta.finish()
	}
	endRounds()
	return ta.heap.sorted(), nil
}
