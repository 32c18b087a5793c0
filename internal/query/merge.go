package query

import (
	"sort"

	"xrank/internal/dewey"
	"xrank/internal/index"
)

// postingStream is a Dewey-ordered stream of one keyword's postings. The
// head posting stays valid until the stream is advanced.
type postingStream interface {
	// head returns the current posting, or ok=false when exhausted.
	head() (*index.Posting, bool)
	// advance consumes the current posting.
	advance() error
}

// cursorStream adapts an index.ListCursor (disk-backed list).
type cursorStream struct {
	cur  *index.ListCursor
	p    *index.Posting
	done bool
}

func (s *cursorStream) head() (*index.Posting, bool) { return s.p, !s.done }

// close releases the cursor's pinned page. Safe to call repeatedly, and
// required on every exit path once a stream exists: a cancellation or
// budget error can abandon a stream mid-list with a page still pinned.
func (s *cursorStream) close() { s.cur.Close() }

func (s *cursorStream) advance() error {
	p, ok, err := s.cur.Next()
	if err != nil {
		return err
	}
	if !ok {
		s.done = true
		s.p = nil
		s.cur.Close()
		return nil
	}
	s.p = p
	return nil
}

// skipToDoc moves the stream forward until its head posting's document is
// >= doc (or the list ends). Block-format cursors first drop every whole
// block whose document range ends before doc without decoding it; the
// remainder of the current block is stepped through entry by entry, so the
// stream observes exactly the same postings a plain advance loop would.
func (s *cursorStream) skipToDoc(doc uint32) error {
	if s.done {
		return nil
	}
	s.cur.SkipBlocksBelowDoc(doc)
	for !s.done && s.p != nil && s.p.ID.Doc() < doc {
		if err := s.advance(); err != nil {
			return err
		}
	}
	return nil
}

// terminate abandons the remainder of the list: the caller has proved no
// further posting from this stream can contribute to a result. Block-format
// cursors record the dropped blocks as skipped; the pinned page is
// released either way.
func (s *cursorStream) terminate() {
	if s.done {
		return
	}
	s.cur.SkipRemainingBlocks()
	s.done = true
	s.p = nil
	s.cur.Close()
}

// sliceStream adapts an in-memory posting slice (used by RDIL to evaluate
// the postings under one candidate ancestor).
type sliceStream struct {
	posts []index.Posting
	i     int
}

func (s *sliceStream) head() (*index.Posting, bool) {
	if s.i >= len(s.posts) {
		return nil, false
	}
	return &s.posts[s.i], true
}

func (s *sliceStream) advance() error { s.i++; return nil }

// mnode is one Dewey-stack level during the merge (Figure 6): the
// aggregated per-keyword ranks and posLists of the element identified by
// the stack prefix ending at this component.
type mnode struct {
	ranks       []float64
	pos         [][]uint32
	containsAll bool
}

func (nd *mnode) reset(n int) {
	if cap(nd.ranks) < n {
		nd.ranks = make([]float64, n)
		nd.pos = make([][]uint32, n)
	}
	nd.ranks = nd.ranks[:n]
	nd.pos = nd.pos[:n]
	for i := 0; i < n; i++ {
		nd.ranks[i] = 0
		nd.pos[i] = nd.pos[i][:0]
	}
	nd.containsAll = false
}

// merger runs the single-pass Dewey-stack merge of Figure 5 over n
// keyword streams, emitting every element of Result(Q) with its overall
// rank. It is the DIL query processor's engine, and — run over the small
// in-memory posting sets below a candidate ancestor — the result
// evaluator inside RDIL/HDIL.
type merger struct {
	opts    Options
	n       int
	streams []postingStream
	// base computes an occurrence's undecayed rank from its entry; the
	// default is the stored ElemRank, and the tf-idf scoring mode plugs in
	// a different function.
	base func(stream int, p *index.Posting) float64

	stack []*mnode
	curID dewey.ID
	free  []*mnode

	proxBuf [][]uint32
}

func newMerger(streams []postingStream, opts Options) *merger {
	base := func(_ int, p *index.Posting) float64 { return float64(p.Rank) }
	if opts.Rank != nil {
		rank := opts.Rank
		base = func(_ int, p *index.Posting) float64 { return rank(p) }
	}
	return &merger{
		opts:    opts,
		n:       len(streams),
		streams: streams,
		base:    base,
	}
}

// reset readies the merger for another run over the same (refilled)
// streams, keeping its pooled stack nodes.
func (m *merger) reset() {
	m.free = append(m.free, m.stack...)
	m.stack, m.curID = m.stack[:0], m.curID[:0]
}

func (m *merger) node() *mnode {
	if k := len(m.free); k > 0 {
		nd := m.free[k-1]
		m.free = m.free[:k-1]
		nd.reset(m.n)
		return nd
	}
	nd := &mnode{}
	nd.reset(m.n)
	return nd
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
			p, ok := s.head()
			if !ok {
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
		// stack nodes that pop without emitting, so the emitted elements
		// and scores are bit-identical to the plain merge. Block-format
		// cursors turn the leap into whole-block skips.
		if m.n >= 2 {
			if exhausted {
				closed := false
				for _, s := range m.streams {
					cs, ok := s.(*cursorStream)
					if !ok || cs.done {
						continue
					}
					if !lastDocSet || cs.p.ID.Doc() > lastDoc {
						cs.terminate()
						closed = true
					}
				}
				if closed {
					continue // re-pick: best may have been dropped
				}
			} else if bd := best.ID.Doc(); bd < dmax && (!lastDocSet || bd > lastDoc) {
				skipped := false
				for _, s := range m.streams {
					cs, ok := s.(*cursorStream)
					if !ok || cs.done {
						continue
					}
					if d := cs.p.ID.Doc(); d < dmax && (!lastDocSet || d > lastDoc) {
						if err := cs.skipToDoc(dmax); err != nil {
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
		for len(m.stack) > lcp {
			m.popTop(emit)
		}
		// Push the new components (lines 25-28).
		for len(m.stack) < len(best.ID) {
			m.stack = append(m.stack, m.node())
			m.curID = append(m.curID, best.ID[len(m.curID)])
		}
		// Record the entry at the top (lines 29-31).
		top := m.stack[len(m.stack)-1]
		top.ranks[bestIdx] = m.opts.Agg.combine(top.ranks[bestIdx], m.base(bestIdx, best))
		top.pos[bestIdx] = append(top.pos[bestIdx], best.Positions...)
		doc := best.ID.Doc()
		if err := m.streams[bestIdx].advance(); err != nil {
			return err
		}
		lastDoc, lastDocSet = doc, true
	}
	// Drain the stack (line 33).
	for len(m.stack) > 0 {
		m.popTop(emit)
	}
	return nil
}

// popTop pops the deepest stack component, emitting it if it is a result
// and otherwise propagating its decayed ranks and posLists to its parent
// (Figure 5 lines 13-24).
func (m *merger) popTop(emit func(id dewey.ID, score float64)) {
	depth := len(m.stack)
	nd := m.stack[depth-1]
	m.stack = m.stack[:depth-1]
	var parent *mnode
	if depth >= 2 {
		parent = m.stack[depth-2]
	}

	all := true
	for i := 0; i < m.n; i++ {
		if len(nd.pos[i]) == 0 {
			all = false
			break
		}
	}
	switch {
	case all:
		nd.containsAll = true
		emit(m.curID[:depth], m.score(nd))
	case !nd.containsAll && parent != nil:
		for i := 0; i < m.n; i++ {
			if len(nd.pos[i]) == 0 {
				continue
			}
			parent.ranks[i] = m.opts.Agg.combine(parent.ranks[i], nd.ranks[i]*m.opts.Decay)
			parent.pos[i] = append(parent.pos[i], nd.pos[i]...)
		}
	}
	if nd.containsAll && parent != nil {
		parent.containsAll = true
	}
	m.curID = m.curID[:depth-1]
	m.free = append(m.free, nd)
}

// score computes the overall rank of Section 2.3.2.2 for a node whose
// posLists are all non-empty.
func (m *merger) score(nd *mnode) float64 {
	sum := 0.0
	for i := 0; i < m.n; i++ {
		sum += m.opts.weight(i) * nd.ranks[i]
	}
	if !m.opts.UseProximity || m.n == 1 {
		return sum
	}
	// posLists may be unsorted after propagation (a parent's direct text
	// interleaves with its children's in document order); sort before the
	// window sweep.
	if cap(m.proxBuf) < m.n {
		m.proxBuf = make([][]uint32, m.n)
	}
	m.proxBuf = m.proxBuf[:m.n]
	for i := 0; i < m.n; i++ {
		ps := nd.pos[i]
		if !sort.SliceIsSorted(ps, func(a, b int) bool { return ps[a] < ps[b] }) {
			sort.Slice(ps, func(a, b int) bool { return ps[a] < ps[b] })
		}
		m.proxBuf[i] = ps
	}
	return sum * Proximity(m.proxBuf)
}
