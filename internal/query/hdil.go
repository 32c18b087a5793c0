package query

import (
	"fmt"
	"math"
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

// The switch estimator's two budgets, as divisors of the a-priori DIL
// estimate. With no result above the threshold there is no rate to
// extrapolate, so the ranked strategy gets a fixed allowance: past
// estimate/noProgressShare it switches. With a rate, the extrapolation
// is trusted only once estimate/extrapolateShare has been spent — before
// that the one-time costs of a cold start (first touches of the rank
// lists and the upper levels of the probe structures) dominate t and
// project several times the real total.
const (
	noProgressShare  = 4
	extrapolateShare = 2
)

// HDIL evaluates the query with the hybrid strategy of Section 4.4: start
// with the RDIL algorithm over the short rank-ordered prefix lists, and
// after every round compare the time spent so far t plus the estimated
// remaining time (m-r)*t/r against the a-priori DIL estimate; switch to
// DIL when the ranked strategy looks slower (or when a rank prefix runs
// out). Both sides are priced by cm over page and posting counts — t from
// this query's own ExecContext stats, the DIL estimate from the keywords'
// list sizes — so the comparison is deterministic and describes whatever
// device cm models: pass storage.DefaultCostModel() when serving from
// the OS page cache, storage.PaperDiskCostModel() for the paper's
// cold-cache protocol.
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
		// The estimator meters this query's own page and posting counts;
		// the index-global counters would mix in every concurrent query.
		opts.Exec = storage.NewExecContext(nil)
	}
	if len(keywords) == 1 {
		cur, ok := ix.HDILRankCursorExec(opts.Exec, keywords[0])
		if !ok {
			return nil, trace, nil
		}
		if cur.Count() >= opts.TopM {
			res, err := singleKeywordTopM(cur, opts)
			return res, trace, err
		}
		// Rank prefix shorter than m: fall back to the full list via DIL.
		cur.Close()
		trace.SwitchedToDIL = true
		trace.SwitchReason = "prefix-exhausted"
		opts.Exec.StartSpan("hdil.switch")() // zero-length marker
		res, err := DIL(ix, keywords, opts)
		return res, trace, err
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

	for !ta.done() {
		for i := range sources {
			ok, err := ta.step(i)
			if err != nil {
				return nil, trace, err
			}
			if !ok {
				// The rank-ordered prefix ran out before the threshold was
				// met; the full ranked list does not exist in HDIL, so DIL
				// must finish the query.
				return switchToDIL("prefix-exhausted")
			}
			if ta.done() {
				break
			}
		}
		if ta.done() {
			break
		}
		t := cm.SimulatedTime(opts.Exec.Stats().Sub(startStats))
		if r := time.Duration(ta.resultsAboveThreshold()); r == 0 {
			if t*noProgressShare > dilEstimate {
				return switchToDIL("estimate")
			}
		} else if t*extrapolateShare > dilEstimate && t+t*(time.Duration(opts.TopM)-r)/r > dilEstimate {
			return switchToDIL("estimate")
		}
	}
	// Threshold stop (the loop's only other exits switch to DIL): the
	// unread rank-prefix tails are provably irrelevant to the top-m.
	ta.finish()
	endRounds()
	trace.RankedEntriesRead = ta.entriesRead
	return ta.heap.sorted(), trace, nil
}
