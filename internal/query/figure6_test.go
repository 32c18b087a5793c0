package query

import (
	"math"
	"testing"

	"xrank/internal/dewey"
	"xrank/internal/index"
)

// memStreams wraps in-memory posting lists as primed merge streams.
func memStreams(lists ...[]index.Posting) []*postingStream {
	streams := make([]*postingStream, len(lists))
	for i, posts := range lists {
		streams[i] = &postingStream{posts: posts}
		_ = streams[i].advance() // an in-memory stream cannot fail
	}
	return streams
}

// TestFigure6WalkThrough replays the paper's Section 4.2.2 worked example
// on the exact Figure 4 data: the query 'XQL Ricardo' over the DIL with
//
//	XQL:     5.0.3.0.0 (paper 1's title), 6.0.3.8.3
//	Ricardo: 5.0.3.0.1 (paper 1's first author)
//
// The Dewey stack merges 5.0.3.0.0 and 5.0.3.0.1 into their deepest
// common ancestor 5.0.3.0 — the <paper> element — which is the only
// result: 6.0.3.8.3's subtree never sees 'Ricardo' (Figure 6's states
// (a)-(c)).
func TestFigure6WalkThrough(t *testing.T) {
	const (
		rTitle  = 0.004 // ElemRank of 5.0.3.0.0
		rAuthor = 0.003 // ElemRank of 5.0.3.0.1
		rOther  = 0.009 // ElemRank of 6.0.3.8.3
	)
	xql := []index.Posting{
		{ID: dewey.ID{5, 0, 3, 0, 0}, Rank: rTitle, Positions: []uint32{10}},
		{ID: dewey.ID{6, 0, 3, 8, 3}, Rank: rOther, Positions: []uint32{99}},
	}
	ricardo := []index.Posting{
		{ID: dewey.ID{5, 0, 3, 0, 1}, Rank: rAuthor, Positions: []uint32{14}},
	}
	opts := DefaultOptions()
	opts.TopM = 10
	if err := opts.fill(); err != nil {
		t.Fatal(err)
	}
	m := new(merger)
	m.init(memStreams(xql, ricardo), opts)
	var got []Result
	if err := m.run(func(id dewey.ID, score float64) {
		got = append(got, Result{ID: id.Clone(), Score: score})
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("results = %v, want exactly the paper element 5.0.3.0", got)
	}
	if !dewey.Equal(got[0].ID, dewey.ID{5, 0, 3, 0}) {
		t.Fatalf("result = %v, want 5.0.3.0", got[0].ID)
	}
	// Both occurrences are one containment level below the result, so each
	// keyword rank is scaled by decay once (Section 2.3.2.1), and the
	// proximity window spans positions 10..14 (Section 2.3.2.2). Entry
	// ranks are stored as float32, so the expectation converts through
	// float32 like the index does.
	wantScore := (float64(float32(rTitle))*opts.Decay + float64(float32(rAuthor))*opts.Decay) * (2.0 / 5.0)
	if math.Abs(got[0].Score-wantScore) > 1e-12 {
		t.Errorf("score = %g, want %g", got[0].Score, wantScore)
	}
}

// TestFigure6NoSpuriousAncestors extends the walk-through: entries whose
// deepest common ancestor is a result must not leak their ranks to
// higher ancestors — 5.0.3 (the <proceedings>) gets the ContainsAll flag
// but no posLists, so it is not emitted (Figure 5 lines 19-24).
func TestFigure6NoSpuriousAncestors(t *testing.T) {
	xql := []index.Posting{
		{ID: dewey.ID{5, 0, 3, 0, 0}, Rank: 0.004, Positions: []uint32{10}},
		{ID: dewey.ID{5, 0, 3, 1, 0}, Rank: 0.002, Positions: []uint32{50}},
	}
	ricardo := []index.Posting{
		{ID: dewey.ID{5, 0, 3, 0, 1}, Rank: 0.003, Positions: []uint32{14}},
		{ID: dewey.ID{5, 0, 3, 1, 1}, Rank: 0.001, Positions: []uint32{55}},
	}
	opts := DefaultOptions()
	if err := opts.fill(); err != nil {
		t.Fatal(err)
	}
	m := new(merger)
	m.init(memStreams(xql, ricardo), opts)
	var ids []string
	if err := m.run(func(id dewey.ID, _ float64) {
		ids = append(ids, id.String())
	}); err != nil {
		t.Fatal(err)
	}
	// Two sibling papers are results; their common ancestors are not.
	if len(ids) != 2 || ids[0] != "5.0.3.0" || ids[1] != "5.0.3.1" {
		t.Fatalf("results = %v, want [5.0.3.0 5.0.3.1]", ids)
	}
}
