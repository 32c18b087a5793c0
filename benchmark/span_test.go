package main

import (
	"math"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	// One request: search → tokenize, execute, materialize; execute → two
	// shard workers that run in parallel and overlap, then the merge.
	spans := []span{
		{Name: "xrank.search", ID: 0, Parent: -1, Start: 0, End: 1000},
		{Name: "tokenize", ID: 1, Parent: 0, Start: 10, End: 30},
		{Name: "execute", ID: 2, Parent: 0, Start: 40, End: 900},
		{Name: "shard00.exec", ID: 3, Parent: 2, Start: 50, End: 600},
		{Name: "shard01.exec", ID: 4, Parent: 2, Start: 60, End: 800},
		{Name: "merge.topk", ID: 5, Parent: 2, Start: 810, End: 850},
		{Name: "materialize", ID: 6, Parent: 0, Start: 910, End: 990},
	}
	want := []int64{
		1000 - 20 - 860 - 80, // search: minus its three children
		20,
		860 - (800 - 50) - 40, // execute: the shards' union is 50..800, counted once
		550, 740, 40, 80,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	// Self times of a tree whose children stay inside their parents and do
	// not overlap across levels add up to the root: that is what lets a
	// budget table sum to the request's latency. The parallel shards are
	// the exception — their summed self time exceeds the wall time they
	// cover by exactly their overlap.
	var sum int64
	for _, s := range got {
		sum += s
	}
	overlap := int64(600 - 60)
	if sum-overlap != 1000 {
		t.Errorf("self times sum to %d with %d of overlap, want the root's 1000", sum, overlap)
	}
}

func TestSelfTimesClipsAndIgnoresStrays(t *testing.T) {
	spans := []span{
		{Name: "parent", ID: 0, Parent: -1, Start: 100, End: 200},
		{Name: "early", ID: 1, Parent: 0, Start: 50, End: 120},   // starts before the parent
		{Name: "late", ID: 2, Parent: 0, Start: 190, End: 260},   // ends after it
		{Name: "nested", ID: 3, Parent: 0, Start: 105, End: 115}, // inside early's share
		{Name: "outside", ID: 4, Parent: 0, Start: 300, End: 400},
		{Name: "orphan", ID: 5, Parent: 42, Start: 110, End: 190},
	}
	got := selfTimes(spans)
	if got[0] != 100-20-10 {
		t.Errorf("parent self = %d, want 70", got[0])
	}
	if got[5] != 80 {
		t.Errorf("orphan self = %d, want its own 80", got[5])
	}
}

func TestPercentile(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0, 1}} {
		if got := percentile(vals, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n          int
		want, pick float64
	}{
		{1000, 99, 99}, // exactly ten samples beyond p99
		{999, 99, 95},  // one short: fall to the next rung
		{200, 99, 95},
		{199, 99, 90},
		{40, 99, 75},
		{39, 99, 50},
		{100000, 99, 99}, // never above what was asked for
		{100000, 99.9, 99.9},
		{9999, 99.9, 99},
	} {
		if got := supportedPercentile(c.n, c.want); got != c.pick {
			t.Errorf("supportedPercentile(%d, %g) = %g, want %g", c.n, c.want, got, c.pick)
		}
	}
}

func TestUnattributed(t *testing.T) {
	lines := []budgetLine{
		{name: "transport", us: 30},
		{name: "httpapi", us: 15},
		{name: "xrank", us: 50},
		{name: "shard00.exec", us: 40, info: true}, // overlapping detail: not summed
	}
	rest, share := unattributed(lines, 100)
	if rest != 5 || math.Abs(share-0.05) > 1e-12 {
		t.Errorf("unattributed = %g (%g), want 5 (0.05)", rest, share)
	}
	// Rows that over-explain the median show as a negative remainder, and
	// past the tolerance the table is reported as not adding up.
	rest, share = unattributed(lines, 80)
	if rest != -15 || share > -budgetTolerance {
		t.Errorf("unattributed = %g (%g), want -15 beyond the tolerance", rest, share)
	}
}
