package main

import (
	"math"
	"sort"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the ID of the span that caused this one (-1 for the
// request's root). Times are nanoseconds since the run started.
type span struct {
	Name   string `json:"name"`
	Req    uint64 `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// selfTimes returns, for every span of one request, its duration minus the
// part of its interval that its children cover. Children that overlap each
// other (parallel shard workers) are counted once, and a child reaching
// outside its parent is clipped to it.
func selfTimes(spans []span) []int64 {
	type iv struct{ lo, hi int64 }
	children := make(map[int][]iv, len(spans))
	byID := make(map[int]*span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			children[s.Parent] = append(children[s.Parent], iv{lo, hi})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ivs := children[s.ID]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, end int64
		end = math.MinInt64
		for _, v := range ivs {
			if v.hi <= end {
				continue
			}
			covered += v.hi - max(v.lo, end)
			end = v.hi
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// percentile returns the p-th percentile (nearest rank) of ascending
// values, 0 when there are none.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// supportedPercentile returns the highest percentile of the ladder, not
// above want, that still has at least ten of n samples beyond it; a tail
// estimated from fewer is one or two requests' luck. With too few samples
// for any rung it is the median.
func supportedPercentile(n int, want float64) float64 {
	best := 50.0
	for _, p := range []float64{75, 90, 95, 99, 99.9} {
		if p <= want && float64(n)*(100-p)/100 >= 10 {
			best = p
		}
	}
	return best
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// budgetLine is one row of a latency budget: a layer's self time. Rows
// marked info are shown for reading (overlapping shard spans, stage
// breakdowns) and left out of the sum.
type budgetLine struct {
	name string
	us   float64
	info bool
}

// budgetTolerance is how far the attributed self times may fall from the
// traced median before the budget is reported as not adding up.
const budgetTolerance = 0.10

// unattributed returns what the budget's self times leave of the median —
// the explicit last row of every table — and its share of the median.
func unattributed(lines []budgetLine, medianUS float64) (rest, share float64) {
	rest = medianUS
	for _, l := range lines {
		if !l.info {
			rest -= l.us
		}
	}
	if medianUS != 0 {
		share = rest / medianUS
	}
	return rest, share
}
