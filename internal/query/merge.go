package query

import (
	"slices"
	"sync"

	"xrank/internal/dewey"
	"xrank/internal/index"
)

// postingStream is a Dewey-ordered stream of one keyword's postings: a
// disk-backed list cursor, or — with cur nil — an in-memory posting slice
// (RDIL/HDIL's evaluation of the postings below one candidate ancestor).
// The head p stays valid until the stream is advanced; nil means the
// stream is exhausted (or not yet primed by its first advance).
type postingStream struct {
	cur   *index.ListCursor
	p     *index.Posting
	posts []index.Posting // in-memory postings, when cur is nil
	next  int             // index of the in-memory posting after p
}

// advance consumes the current posting.
func (s *postingStream) advance() error {
	if s.cur == nil {
		if s.next < len(s.posts) {
			s.p = &s.posts[s.next]
			s.next++
		} else {
			s.p = nil
		}
		return nil
	}
	p, ok, err := s.cur.Next()
	if err != nil {
		return err
	}
	if !ok {
		s.p = nil
		s.cur.Close()
		return nil
	}
	s.p = p
	return nil
}

// close releases the cursor's pinned page. Safe to call repeatedly, and
// required on every exit path once a cursor stream exists: a cancellation
// or budget error can abandon a stream mid-list with a page still pinned.
func (s *postingStream) close() { s.cur.Close() }

// skipToDoc moves a cursor stream forward until its head posting's
// document is >= doc (or the list ends). The cursor first drops every
// whole block whose document range ends before doc without decoding it;
// the remainder of the current block is stepped through entry by
// entry, so the stream observes exactly the same postings a plain advance
// loop would.
func (s *postingStream) skipToDoc(doc uint32) error {
	if s.p == nil {
		return nil
	}
	s.cur.SkipBlocksBelowDoc(doc)
	for s.p != nil && s.p.ID.Doc() < doc {
		if err := s.advance(); err != nil {
			return err
		}
	}
	return nil
}

// terminate abandons the remainder of a cursor stream's list: the caller
// has proved no further posting from it can contribute to a result.
// The cursor records the dropped blocks as skipped and releases its
// pinned page.
func (s *postingStream) terminate() {
	if s.p == nil {
		return
	}
	s.cur.SkipRemainingBlocks()
	s.p = nil
	s.cur.Close()
}

// merger runs the single-pass Dewey-stack merge of Figure 5 over n
// keyword streams, emitting every element of Result(Q) with its overall
// rank. It is the DIL query processor's engine, and — run over the small
// in-memory posting sets below a candidate ancestor — the result
// evaluator inside RDIL/HDIL.
//
// The stack (Figure 6) is flat: curID holds its Dewey components, and
// level d's per-keyword state is ranks[d*n+i] and starts[d*n+i]. The
// posLists live in one arena per keyword, pos[i]: postings arrive in
// Dewey order, so the positions below the element at level d are exactly
// pos[i][starts[d*n+i]:] while that level is on the stack. A popped
// element that propagates to its parent leaves its positions in place —
// they are already the tail of the parent's segment — and one that does
// not (a result, or an element containing a result) truncates the arena
// back to its start, so nothing is ever copied up the Dewey path.
type merger struct {
	opts    Options
	n       int
	streams []*postingStream

	curID       dewey.ID
	ranks       []float64
	starts      []int
	containsAll []bool // per level: some sub-element contains every keyword
	pos         [][]uint32

	proxBuf [][]uint32
}

// mergerPool recycles DIL's mergers, so the stack and the positions
// arenas reach their working size once per process instead of growing
// from empty in every query.
var mergerPool = sync.Pool{New: func() any { return new(merger) }}

// init readies m for a merge over streams, keeping its buffers.
func (m *merger) init(streams []*postingStream, opts Options) {
	m.opts, m.n, m.streams = opts, len(streams), streams
	m.pos = slices.Grow(m.pos[:0], m.n)[:m.n]
	m.proxBuf = slices.Grow(m.proxBuf[:0], m.n)[:m.n]
	m.reset()
}

// reset readies the merger for another run over the same (refilled)
// streams, keeping its buffers.
func (m *merger) reset() {
	m.curID, m.ranks, m.starts, m.containsAll = m.curID[:0], m.ranks[:0], m.starts[:0], m.containsAll[:0]
	for i := range m.pos {
		m.pos[i] = m.pos[i][:0]
	}
}

// cancelCheckInterval throttles merge-loop cancellation checks: page
// reads already check every page, so the loop-level check only has to
// bound the latency of long fully-cached stretches. Checking every
// iteration would put a mutex acquisition on the per-posting hot path.
const cancelCheckInterval = 64

// run performs the merge, calling emit for every result element in
// post-order (descendants before ancestors within a path). The ID passed
// to emit is the merger's own stack and valid only during the call.
func (m *merger) run(emit func(id dewey.ID, score float64)) error {
	// lastDoc is the document of the most recently consumed posting; the
	// document leapfrog below may only discard postings in documents
	// strictly beyond it (postings in lastDoc itself can still complete
	// the element stack built so far).
	var lastDoc uint32
	lastDocSet := false
	for iter := 0; ; iter++ {
		if iter%cancelCheckInterval == 0 {
			if err := m.opts.Exec.Err(); err != nil {
				return err
			}
		}
		// Pick the stream with the smallest head Dewey ID (Figure 5
		// lines 7-9), also noting the largest head document and whether
		// any stream has run out — the inputs to the document leapfrog.
		var best *index.Posting
		bestIdx := -1
		exhausted := false
		live := 0
		var dmax uint32
		for i, s := range m.streams {
			p := s.p
			if p == nil {
				exhausted = true
				continue
			}
			if d := p.ID.Doc(); live == 0 || d > dmax {
				dmax = d
			}
			live++
			if best == nil || dewey.Compare(p.ID, best.ID) < 0 {
				best, bestIdx = p, i
			}
		}
		if bestIdx < 0 {
			break
		}
		// Document leapfrog. A result element must contain every keyword,
		// and rank propagation never crosses a document boundary (the
		// stack pops to the root between documents), so with n >= 2:
		//
		//   - once any stream is exhausted, no document beyond lastDoc
		//     can produce a result — the other streams' tails are dead
		//     weight and can be dropped wholesale;
		//   - otherwise, documents strictly between lastDoc and dmax
		//     cannot produce a result (the dmax stream has no postings
		//     there), so streams heading into that gap may leap to dmax.
		//
		// Either way the discarded postings could only ever have filled
		// stack levels that pop without emitting, so the emitted elements
		// and scores are bit-identical to the plain merge. The cursors turn
		// the leap into whole-block skips.
		if m.n >= 2 {
			if exhausted {
				closed := false
				for _, s := range m.streams {
					if s.cur == nil || s.p == nil {
						continue
					}
					if !lastDocSet || s.p.ID.Doc() > lastDoc {
						s.terminate()
						closed = true
					}
				}
				if closed {
					continue // re-pick: best may have been dropped
				}
			} else if bd := best.ID.Doc(); bd < dmax && (!lastDocSet || bd > lastDoc) {
				skipped := false
				for _, s := range m.streams {
					if s.cur == nil || s.p == nil {
						continue
					}
					if d := s.p.ID.Doc(); d < dmax && (!lastDocSet || d > lastDoc) {
						if err := s.skipToDoc(dmax); err != nil {
							return err
						}
						skipped = true
					}
				}
				if skipped {
					continue // re-pick with the advanced heads
				}
			}
		}
		// Longest common prefix with the current stack (lines 10-11).
		lcp := dewey.CommonPrefixLen(m.curID, best.ID)
		// Pop non-matching components (lines 12-24).
		for len(m.curID) > lcp {
			m.pop(emit)
		}
		// Push the new components (lines 25-28).
		if need := len(best.ID) * m.n; cap(m.ranks) < need {
			m.ranks = slices.Grow(m.ranks, need-len(m.ranks))
			m.starts = slices.Grow(m.starts, need-len(m.starts))
		}
		for d := len(m.curID); d < len(best.ID); d++ {
			m.curID = append(m.curID, best.ID[d])
			m.containsAll = append(m.containsAll, false)
			lvl := d * m.n
			m.ranks, m.starts = m.ranks[:lvl+m.n], m.starts[:lvl+m.n]
			for i, ps := range m.pos {
				m.ranks[lvl+i] = 0
				m.starts[lvl+i] = len(ps)
			}
		}
		// Record the entry at the top (lines 29-31).
		top := (len(m.curID)-1)*m.n + bestIdx
		m.ranks[top] = m.opts.Agg.combine(m.ranks[top], m.opts.rank(best))
		m.pos[bestIdx] = append(m.pos[bestIdx], best.Positions...)
		doc := best.ID.Doc()
		if err := m.streams[bestIdx].advance(); err != nil {
			return err
		}
		lastDoc, lastDocSet = doc, true
	}
	// Drain the stack (line 33).
	for len(m.curID) > 0 {
		m.pop(emit)
	}
	return nil
}

// pop pops the deepest stack level, emitting it if it is a result and
// otherwise propagating its decayed ranks and posLists to its parent
// (Figure 5 lines 13-24).
func (m *merger) pop(emit func(id dewey.ID, score float64)) {
	d := len(m.curID) - 1
	lvl := d * m.n
	pos, starts := m.pos, m.starts[lvl:lvl+m.n]
	result := true
	for i, st := range starts {
		if len(pos[i]) == st {
			result = false
			break
		}
	}
	containsAll := m.containsAll[d]
	switch {
	case result:
		containsAll = true
		emit(m.curID, m.score(d))
	case !containsAll && d > 0:
		ranks, parent := m.ranks[lvl:lvl+m.n], m.ranks[lvl-m.n:lvl]
		for i, st := range starts {
			if len(pos[i]) != st {
				parent[i] = m.opts.Agg.combine(parent[i], ranks[i]*m.opts.Decay)
			}
		}
		m.popLevel(d)
		return
	}
	// Not propagated: the element's positions leave with it.
	for i, st := range starts {
		pos[i] = pos[i][:st]
	}
	if containsAll && d > 0 {
		m.containsAll[d-1] = true
	}
	m.popLevel(d)
}

func (m *merger) popLevel(d int) {
	m.curID, m.ranks, m.starts, m.containsAll = m.curID[:d], m.ranks[:d*m.n], m.starts[:d*m.n], m.containsAll[:d]
}

// score computes the overall rank of Section 2.3.2.2 for the element at
// stack level d, whose posLists are all non-empty.
func (m *merger) score(d int) float64 {
	lvl := d * m.n
	sum := 0.0
	for i := 0; i < m.n; i++ {
		sum += m.opts.weight(i) * m.ranks[lvl+i]
	}
	if !m.opts.UseProximity || m.n == 1 {
		return sum
	}
	// A posList may be unsorted (an element's direct text interleaves
	// with its children's in document order); sort before the window
	// sweep. The segment is about to be truncated, so sorting in place
	// disturbs nothing.
	for i := 0; i < m.n; i++ {
		ps := m.pos[i][m.starts[lvl+i]:]
		if !slices.IsSorted(ps) {
			slices.Sort(ps)
		}
		m.proxBuf[i] = ps
	}
	return sum * Proximity(m.proxBuf)
}
