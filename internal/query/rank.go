// Package query implements XRANK's keyword query processors (Guo et al.,
// SIGMOD 2003, Section 4): the single-pass DIL Dewey-stack merge
// (Figure 5), the RDIL threshold algorithm with Dewey probing
// (Figure 7), the adaptive HDIL strategy (Section 4.4.2), and the two
// naive baselines (Section 4.1 / 5.1) over the standalone naive index,
// together with the ranking functions of Section 2.3. Each processor
// evaluates one index; Execute runs one of them on every partition (one
// shard of one live segment) of a query and merges their top-m's once.
package query

import (
	"container/heap"
	"fmt"
	"sort"

	"xrank/internal/dewey"
	"xrank/internal/index"
	"xrank/internal/storage"
)

// Agg selects the aggregation function f over multiple relevant
// occurrences of one keyword (Section 2.3.2.1). The default is max.
type Agg int

const (
	// AggMax takes the best occurrence. It keeps the overall rank monotone
	// in the per-entry ElemRanks, which the RDIL/Naive-Rank threshold
	// bound relies on.
	AggMax Agg = iota
	// AggSum adds occurrences. Supported by DIL and Naive-ID (full-scan
	// algorithms); the threshold algorithms (RDIL, HDIL, Naive-Rank)
	// reject it because their stopping rule would no longer guarantee the
	// top-m.
	AggSum
)

func (a Agg) combine(x, y float64) float64 {
	if a == AggSum {
		return x + y
	}
	if y > x {
		return y
	}
	return x
}

// Options configure query evaluation.
type Options struct {
	// TopM is the number of results to return (m in the paper). Default 10.
	TopM int
	// Decay scales a keyword's rank down per containment level between the
	// occurrence and the result element (Section 2.3.2.1), in (0, 1].
	// Default 0.75.
	Decay float64
	// Agg is the occurrence aggregation function f. Default AggMax.
	Agg Agg
	// UseProximity multiplies the overall rank by the smallest-window
	// keyword proximity (Section 2.3.2.2). When false the proximity factor
	// is the constant 1, the paper's recommendation for highly structured
	// data.
	UseProximity bool
	// Weights optionally assigns per-keyword weights (Section 2.3.2.2:
	// "users may also wish to assign different weights to different
	// keywords"). When non-nil its length must equal the number of
	// distinct keywords; nil means all 1.
	Weights []float64
	// Rank optionally overrides the ElemRank read from each posting. A
	// segmented engine sets it on segments whose baked ranks predate the
	// newest ElemRank computation, substituting the current global value.
	// Only the full-scan Dewey processors (DIL, Disjunctive) accept it:
	// the threshold algorithms traverse rank-ordered lists whose order the
	// override would silently invalidate.
	Rank func(p *index.Posting) float64
	// Exec optionally attaches a per-query execution context. Every
	// algorithm passes it down to its cursors, probers and lookups (so
	// the query's I/O is attributed to exactly this query even under
	// concurrency) and checks it at merge-loop boundaries (so a
	// cancelled, deadline-expired or over-budget query aborts promptly
	// mid-merge). Nil disables per-query control, and the query's I/O is
	// then counted nowhere.
	Exec *storage.ExecContext
	// Report, when non-nil, accumulates degraded-execution facts — which
	// shards were skipped or failed, how many retries ran — and each
	// shard's I/O across every Execute call that shares it. The engine
	// attaches one per query, surfaces it as QueryStats.Degraded and adds
	// its I/O to the engine's per-shard totals.
	Report *ShardReport
}

// DefaultOptions returns the defaults described on Options.
func DefaultOptions() Options {
	return Options{TopM: 10, Decay: 0.75, Agg: AggMax, UseProximity: true}
}

func (o *Options) fill() error {
	if o.TopM <= 0 {
		o.TopM = 10
	}
	if o.Decay == 0 {
		o.Decay = 0.75
	}
	if o.Decay < 0 || o.Decay > 1 {
		return fmt.Errorf("query: decay %v outside (0, 1]", o.Decay)
	}
	for _, w := range o.Weights {
		if w < 0 {
			return fmt.Errorf("query: negative keyword weight %v", w)
		}
	}
	return nil
}

// weight returns the weight of keyword i.
func (o *Options) weight(i int) float64 {
	if o.Weights == nil {
		return 1
	}
	return o.Weights[i]
}

// rank returns a posting's undecayed rank: its stored ElemRank, or the
// Rank override's value when one is set.
func (o *Options) rank(p *index.Posting) float64 {
	if o.Rank != nil {
		return o.Rank(p)
	}
	return float64(p.Rank)
}

// checkWeights validates Weights against the deduplicated keyword count.
func (o *Options) checkWeights(n int) error {
	if o.Weights != nil && len(o.Weights) != n {
		return fmt.Errorf("query: %d weights for %d distinct keywords", len(o.Weights), n)
	}
	return nil
}

// Result is one ranked query result.
type Result struct {
	// ID identifies the result element.
	ID dewey.ID
	// Score is the overall rank R(v, Q) of Section 2.3.2.2.
	Score float64
}

// SortResults orders results by descending score, ties broken by Dewey ID
// for determinism.
func SortResults(rs []Result) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Score != rs[j].Score {
			return rs[i].Score > rs[j].Score
		}
		return dewey.Compare(rs[i].ID, rs[j].ID) < 0
	})
}

// resultHeap keeps the top-m results seen so far (a min-heap on score so
// the weakest kept result is at the root).
type resultHeap struct {
	items []Result
	m     int
}

func newResultHeap(m int) *resultHeap { return &resultHeap{m: m} }

func (h *resultHeap) Len() int { return len(h.items) }
func (h *resultHeap) Less(i, j int) bool {
	if h.items[i].Score != h.items[j].Score {
		return h.items[i].Score < h.items[j].Score
	}
	// Among equal scores evict the larger ID, keeping results stable.
	return dewey.Compare(h.items[i].ID, h.items[j].ID) > 0
}
func (h *resultHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *resultHeap) Push(x interface{}) { h.items = append(h.items, x.(Result)) }
func (h *resultHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}

// accepts reports whether offer would keep a result with this ID and
// score, so a caller holding a borrowed ID clones it only when it counts.
func (h *resultHeap) accepts(id dewey.ID, score float64) bool {
	return len(h.items) < h.m || h.items[0].Score < score ||
		(h.items[0].Score == score && dewey.Compare(h.items[0].ID, id) > 0)
}

// offer inserts a result, evicting the weakest if the heap is full.
func (h *resultHeap) offer(r Result) {
	if len(h.items) < h.m {
		heap.Push(h, r)
		return
	}
	if h.accepts(r.ID, r.Score) {
		h.items[0] = r
		heap.Fix(h, 0)
	}
}

// offerCopy offers a result whose ID the caller is only lending: an
// accepted ID is copied, into the evicted result's array when it fits, so
// a full heap takes new results without allocating.
func (h *resultHeap) offerCopy(id dewey.ID, score float64) {
	if len(h.items) < h.m {
		heap.Push(h, Result{ID: id.Clone(), Score: score})
		return
	}
	if h.accepts(id, score) {
		h.items[0] = Result{ID: append(h.items[0].ID[:0], id...), Score: score}
		heap.Fix(h, 0)
	}
}

// kthScore returns the m-th best score so far, or -1 if fewer than m
// results are held (so any positive threshold keeps the scan going).
func (h *resultHeap) kthScore() float64 {
	if len(h.items) < h.m {
		return -1
	}
	return h.items[0].Score
}

// sorted drains the heap into descending-score order.
func (h *resultHeap) sorted() []Result {
	out := make([]Result, len(h.items))
	copy(out, h.items)
	SortResults(out)
	return out
}

// Proximity computes the keyword proximity p(v, k1..kn): n divided by the
// size of the smallest text window containing at least one relevant
// occurrence of every keyword. It is 1 when the keywords are adjacent and
// tends to 0 as they spread apart; 0 if some keyword has no occurrence.
// Each perKeyword[i] must be ascending (posLists are stored ascending).
func Proximity(perKeyword [][]uint32) float64 {
	n := len(perKeyword)
	if n == 0 {
		return 0
	}
	for _, ps := range perKeyword {
		if len(ps) == 0 {
			return 0
		}
	}
	if n == 1 {
		return 1
	}
	// Classic smallest-window sweep: repeatedly advance the keyword whose
	// current head is smallest; every state covers all keywords, so the
	// window max-min+1 is a candidate, and the smallest candidate is the
	// smallest window. Heads only move forward, so the window's high end
	// only grows and is kept as it goes.
	var inline [8]int
	var idx []int
	if n <= len(inline) {
		idx = inline[:n]
	} else {
		idx = make([]int, n)
	}
	hi := uint32(0)
	for _, ps := range perKeyword {
		hi = max(hi, ps[0])
	}
	best := ^uint32(0)
	for {
		// The smallest head (lo, in list loK) and the next smallest (lo2).
		loK := 0
		lo, lo2 := perKeyword[0][idx[0]], ^uint32(0)
		for k := 1; k < n; k++ {
			if p := perKeyword[k][idx[k]]; p < lo {
				lo, lo2, loK = p, lo, k
			} else if p < lo2 {
				lo2 = p
			}
		}
		// Advancing loK through heads <= lo2 keeps it the smallest and
		// leaves hi alone, so of that run only the last head can give the
		// smallest window: jump to it.
		ps, i := perKeyword[loK], idx[loK]
		for i+1 < len(ps) && ps[i+1] <= lo2 {
			i++
		}
		if w := hi - ps[i] + 1; w < best {
			best = w
			if best <= uint32(n) {
				break // the clamp below makes any smaller window the same
			}
		}
		if i++; i >= len(ps) {
			break
		}
		idx[loK] = i
		hi = max(hi, ps[i])
	}
	if best < uint32(n) {
		// Overlapping positions (the same token counted for two keywords
		// cannot happen, but duplicate positions across keywords can if a
		// token matches both) — clamp so proximity stays <= 1.
		best = uint32(n)
	}
	return float64(n) / float64(best)
}
