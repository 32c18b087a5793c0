package query

import (
	"fmt"
	"math"
	"slices"
	"time"

	"xrank/internal/index"
	"xrank/internal/storage"
)

// HDILTrace reports what the adaptive strategy did, for experiments and
// debugging.
type HDILTrace struct {
	// SwitchedToDIL is true when the estimator (or rank-prefix exhaustion)
	// abandoned the ranked strategy.
	SwitchedToDIL bool
	// SwitchReason explains the switch ("estimate", "prefix-exhausted"),
	// empty if no switch happened.
	SwitchReason string
	// RankedEntriesRead counts entries consumed before stopping/switching.
	RankedEntriesRead int
}

// HDIL evaluates the query with the hybrid strategy of Section 4.4: start
// with the RDIL algorithm over the short rank-ordered prefix lists and,
// after every round, predict the rounds d left until the threshold falls
// to k̂ — the heap's m-th score, or its best while it holds fewer than m
// results — from the rank bounds in the prefixes' skip refs, and never
// fewer than the heap needs to fill (stopPredictor). HDIL switches to DIL
// when no such d exists within the prefixes, or when d more rounds at the
// rate so far, d·t/rounds, exceed the a-priori DIL estimate even after
// the ranks of the blocks where the threshold falls have been read. The
// time t already spent is sunk: a switch starts DIL from scratch, so it
// weighs only the ranked work still ahead.
// A rank prefix running out switches too, unless it was its keyword's
// whole list: then, as in RDIL, every candidate has been seen.
//
// The prediction replaces the paper's remaining-time estimate (m−r)·t/r,
// which assumes results clear the threshold at a steady rate. Proximity
// breaks that: keywords that always co-occur a word apart score about ⅔
// of the threshold until it falls, so r stays 0 until the stop.
//
// Both sides are priced by cm over page and posting counts — t from this
// query's own ExecContext stats, the DIL estimate from the keywords' list
// sizes — so the comparison is deterministic and describes whatever
// device cm models: pass storage.DefaultCostModel() when serving from the
// OS page cache, storage.PaperDiskCostModel() for the paper's cold-cache
// protocol.
func HDIL(ix *index.Index, keywords []string, opts Options, cm storage.CostModel) ([]Result, *HDILTrace, error) {
	trace := &HDILTrace{}
	if err := opts.fill(); err != nil {
		return nil, trace, err
	}
	if opts.Agg != AggMax {
		return nil, trace, fmt.Errorf("query: HDIL requires AggMax for a sound stopping threshold")
	}
	if opts.Rank != nil {
		return nil, trace, fmt.Errorf("query: HDIL's ranked lists are ordered by their stored ranks; a rank override needs DIL")
	}
	keywords, err := normalizeKeywords(keywords)
	if err != nil {
		return nil, trace, err
	}
	if err := opts.checkWeights(len(keywords)); err != nil {
		return nil, trace, err
	}
	if opts.Exec == nil {
		// The estimator meters this query's own page and posting counts,
		// which only an ExecContext keeps.
		opts.Exec = storage.NewExecContext(nil)
	}
	if len(keywords) == 1 {
		cur, ok := ix.HDILRankCursorExec(opts.Exec, keywords[0])
		if !ok {
			return nil, trace, nil
		}
		if cur.Count() >= opts.TopM || cur.Count() == ix.DILCount(keywords[0]) {
			res, err := singleKeywordTopM(cur, opts)
			return res, trace, err
		}
		// A rank prefix shorter than m and than its list: fall back to the
		// full list via DIL.
		cur.Close()
		trace.SwitchedToDIL = true
		trace.SwitchReason = "prefix-exhausted"
		opts.Exec.StartSpan("hdil.switch")() // zero-length marker
		res, err := DIL(ix, keywords, opts)
		return res, trace, err
	}

	sources := make([]*rankedSource, 0, len(keywords))
	var sp stopPredictor
	// Early termination — and any cancellation, budget, or I/O error,
	// including during this init loop — leaves cursors mid-list with
	// pages pinned.
	defer func() {
		for _, s := range sources {
			s.stream.close()
		}
	}()
	endOpen := opts.Exec.StartSpan("hdil.open")
	// A-priori DIL cost: one sequential pass over every keyword's full
	// list (Section 4.4.2: "the expected time for DIL is relatively easy
	// to compute a priori ... it mainly depends on ... the size of each
	// query keyword inverted list").
	var dil storage.Stats
	for _, kw := range keywords {
		cur, okc := ix.HDILRankCursorExec(opts.Exec, kw)
		if !okc {
			endOpen()
			return nil, trace, nil
		}
		prober, okp := ix.ProberExec(opts.Exec, kw)
		if !okp {
			cur.Close()
			endOpen()
			return nil, trace, nil
		}
		s := &postingStream{cur: cur}
		sources = append(sources, &rankedSource{stream: s, prober: prober, lastRank: math.Inf(1)})
		sp.whole = append(sp.whole, cur.Count() == ix.DILCount(kw))
		if err := s.advance(); err != nil {
			return nil, trace, err
		}
		dil.SeqReads += ix.DILListBytes(kw)/storage.PageSize + 1
		dil.Postings += int64(ix.DILCount(kw))
	}
	endOpen()
	dilEstimate := cm.SimulatedTime(dil)
	startStats := opts.Exec.Stats()
	ta := newTAState(opts, sources)
	defer ta.release()
	endRounds := opts.Exec.StartSpan("hdil.rounds")
	switchToDIL := func(reason string) ([]Result, *HDILTrace, error) {
		endRounds()
		opts.Exec.StartSpan("hdil.switch")() // zero-length marker
		trace.SwitchedToDIL = true
		trace.SwitchReason = reason
		trace.RankedEntriesRead = ta.entriesRead
		res, err := DIL(ix, keywords, opts)
		return res, trace, err
	}

	for rounds := 1; !ta.done(); rounds++ {
		for i := range sources {
			ok, err := ta.step(i)
			if err != nil {
				return nil, trace, err
			}
			if !ok && !sp.whole[i] {
				// The rank-ordered prefix ran out before the threshold was
				// met; the rest of the list is not rank-ordered in HDIL,
				// so DIL must finish the query.
				return switchToDIL("prefix-exhausted")
			}
			if !ok || ta.done() {
				break
			}
		}
		if ta.exhausted || ta.done() {
			break
		}
		d := sp.rounds(ta, rounds)
		if d == 0 {
			return switchToDIL("estimate")
		}
		t := cm.SimulatedTime(opts.Exec.Stats().Sub(startStats))
		slower := func(d int) bool { return time.Duration(d)*t/time.Duration(rounds) > dilEstimate }
		if slower(d) && !slower(sp.least) {
			// The skip refs bound a block's entries by its first one's
			// rank, so d can overshoot by up to a block: read the ranks
			// of the blocks the threshold crosses k̂ in before giving up.
			if d, err = sp.refine(ta); err != nil {
				return nil, trace, err
			}
		}
		if slower(d) {
			return switchToDIL("estimate")
		}
	}
	// A threshold stop — or a whole list run out, which leaves no
	// candidate unseen, as in RDIL. After a threshold stop the unread
	// rank-prefix tails are provably irrelevant to the top-m.
	if ta.done() {
		ta.finish()
	}
	endRounds()
	trace.RankedEntriesRead = ta.entriesRead
	return ta.heap.sorted(), trace, nil
}

// stopPredictor predicts, at a round boundary, how many more rounds the
// threshold loop needs before it stops. It holds one query's scratch.
type stopPredictor struct {
	whole []bool            // source i's rank prefix is its keyword's whole list
	runs  [][]index.RankRun // source i's unread entries, head first
	run   []int             // the run of source i that round d falls in
	end   []int             // the last round that run covers

	// The last prediction d, made after the given rounds, and what it
	// leaves refine: k̂, the fewest rounds refine can predict, and the
	// rounds [lo, hi) just before the crossing over which no bound
	// changes (lo is 0 when there is nothing to refine); over them source
	// i stays in run lastRun[i], which begins at round lastStart[i].
	d, after, least    int
	k                  float64
	lo, hi             int
	lastRun, lastStart []int
	// exact[i] caches the ranks of source i's prefix entries from entry
	// exactAt[i] on, read by refine.
	exact   [][]float32
	exactAt []int
}

// rounds predicts, after the given number of completed rounds, how many
// more the loop needs: the fewest d for which Σ w_i·r_i(d) ≤ k̂, where k̂
// is the heap's m-th score (its best while it holds fewer than m) and
// r_i(d) bounds the rank of the entry source i consumes d rounds from now:
// the head's own rank, then the MaxRank of the unread block that holds
// the entry, never above an earlier bound. Entries never outrank their
// bounds and a full heap's m-th score never falls, so with the heap full
// the loop stops within d rounds. With n < m results held it cannot stop
// before the heap fills, which at the rate results have come so far takes
// (m−n)·after/n more rounds, so d is at least that. A source whose prefix
// is its whole list stops the loop in the round it runs out; any other
// source running out first, or an empty heap, gives 0: no stop within
// the prefixes. The bounds come from the cursors' skip refs, so the
// prediction does no I/O.
func (sp *stopPredictor) rounds(ta *taState, after int) int {
	sp.d, sp.after, sp.lo = 0, after, 0
	if len(ta.heap.items) == 0 {
		return 0
	}
	k := ta.heap.kthScore()
	if k < 0 {
		for _, r := range ta.heap.items {
			k = max(k, r.Score)
		}
	}
	sp.k = k
	n := len(ta.sources)
	sp.runs = slices.Grow(sp.runs[:0], n)[:n]
	sp.run, sp.end = slices.Grow(sp.run[:0], n)[:n], slices.Grow(sp.end[:0], n)[:n]
	sp.lastRun, sp.lastStart = slices.Grow(sp.lastRun[:0], n)[:n], slices.Grow(sp.lastStart[:0], n)[:n]
	clear(sp.run)
	clear(sp.end)
	for i, src := range ta.sources {
		rs := sp.runs[i][:0]
		if p := src.stream.p; p != nil {
			rs = src.stream.cur.AppendRankRuns(append(rs, index.RankRun{N: 1, MaxRank: p.Rank}))
			sp.end[i] = 1
		}
		for j := 1; j < len(rs); j++ {
			rs[j].MaxRank = min(rs[j].MaxRank, rs[j-1].MaxRank)
		}
		sp.runs[i] = rs
	}
	// Visit only the rounds at which some bound changes.
	for d := 1; ; {
		sum, next := 0.0, math.MaxInt
		for i, rs := range sp.runs {
			for sp.run[i] < len(rs) && sp.end[i] < d {
				if sp.run[i]++; sp.run[i] < len(rs) {
					sp.end[i] += rs[sp.run[i]].N
				}
			}
			if sp.run[i] == len(rs) {
				if sp.whole[i] {
					// Out of entries: every candidate seen.
					sp.d, sp.least, sp.lo = d, d, 0
				}
				return sp.d
			}
			sum += ta.opts.weight(i) * float64(rs[sp.run[i]].MaxRank)
			next = min(next, sp.end[i]+1)
		}
		if sum <= k {
			sp.d, sp.hi = sp.filled(ta, d), d
			sp.least = sp.d
			if sp.lo > 0 {
				sp.least = sp.filled(ta, sp.lo)
			}
			return sp.d
		}
		sp.lo = d
		for i := range sp.runs {
			sp.lastRun[i] = sp.run[i]
			sp.lastStart[i] = sp.end[i] - sp.runs[i][sp.run[i]].N + 1
		}
		d = next
	}
}

// filled raises a threshold crossing d rounds from now to the rounds the
// heap needs to hold m results, at the rate they have come so far.
func (sp *stopPredictor) filled(ta *taState, d int) int {
	if n, m := len(ta.heap.items), ta.heap.m; n < m {
		d = max(d, ((m-n)*sp.after+n-1)/n)
	}
	return d
}

// refine tightens the last prediction of rounds by replacing the bounds
// over its window [lo, hi) with the ranks of the entries there, read from
// at most one block per source (and cached). Before the window the bounds
// exceed k̂, so the first round in it at which the ranks fall to k̂, or
// else hi, is still a round by which Σ w_i·r_i falls to k̂.
func (sp *stopPredictor) refine(ta *taState) (int, error) {
	if sp.lo == 0 {
		return sp.d, nil
	}
	n := len(ta.sources)
	sp.exact = slices.Grow(sp.exact, n)[:n]
	if len(sp.exactAt) < n {
		sp.exactAt = make([]int, n)
	}
	// The entry source i consumes in round d is entry after+d-1 of its
	// prefix: the head is entry after.
	for i, src := range ta.sources {
		j := sp.lastRun[i]
		if j == 0 {
			continue // the head: its bound is its rank
		}
		from := sp.after + sp.lastStart[i] - 1
		if from >= sp.exactAt[i] && from+sp.runs[i][j].N <= sp.exactAt[i]+len(sp.exact[i]) {
			continue
		}
		var err error
		if sp.exact[i], err = src.stream.cur.AppendRunRanks(sp.exact[i][:0], j-1); err != nil {
			return 0, err
		}
		sp.exactAt[i] = from
	}
	for d := sp.lo; d < sp.hi; d++ {
		sum := 0.0
		for i := range ta.sources {
			r := sp.runs[i][0].MaxRank
			if sp.lastRun[i] > 0 {
				r = sp.exact[i][sp.after+d-1-sp.exactAt[i]]
			}
			sum += ta.opts.weight(i) * float64(r)
		}
		if sum <= sp.k {
			return sp.filled(ta, d), nil
		}
	}
	return sp.d, nil
}
