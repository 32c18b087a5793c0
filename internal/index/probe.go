package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"

	"xrank/internal/btree"
	"xrank/internal/dewey"
	"xrank/internal/storage"
)

// DeweyProber is the Dewey-ordered side of a ranked index: the operations
// the RDIL query algorithm (Figure 7) needs against each keyword's list.
// RDIL implements it with a per-term B+-tree whose leaves hold the
// entries; HDIL implements it with an external-leaf B+-tree over the
// shared Dewey-ordered postings file.
type DeweyProber interface {
	// ProbeLCP returns the length (in Dewey components) of the longest
	// prefix of target that is an ancestor-or-self of some entry in the
	// list (Figure 7, getLongestCommonPrefix). Zero means no overlap even
	// at document granularity.
	ProbeLCP(target dewey.ID) (int, error)
	// ScanPrefix invokes fn for each entry whose Dewey ID has the given
	// prefix, in Dewey order. The *Posting is reused across calls.
	ScanPrefix(prefix dewey.ID, fn func(p *Posting) error) error
}

// lcpAgainst returns the component-level common prefix of target and the
// entry key enc (an encoded Dewey ID).
func lcpAgainst(target dewey.ID, enc []byte, scratch *dewey.ID) (int, error) {
	id, err := dewey.DecodeInto(*scratch, enc)
	if err != nil {
		return 0, err
	}
	*scratch = id
	return dewey.CommonPrefixLen(target, id), nil
}

// RDILProber probes one term's RDIL B+-tree.
type RDILProber struct {
	tree    *btree.Tree
	ec      *storage.ExecContext
	scratch dewey.ID
	post    Posting
}

// RDILProber returns the prober for term; ok is false for unknown terms.
func (ix *Index) RDILProber(term string) (DeweyProber, bool) {
	return ix.RDILProberExec(nil, term)
}

// RDILProberExec is RDILProber under a per-query execution context: every
// page the probes touch is attributed to ec and honours its cancellation,
// deadline and read budget. A nil ec is RDILProber. In a block-format
// index the probes run against the DIL skip index (an in-memory binary
// search over block ranges plus at most one block decode) instead of the
// per-term B+-tree; the answers are identical because both structures
// index the same entry set.
func (ix *Index) RDILProberExec(ec *storage.ExecContext, term string) (DeweyProber, bool) {
	m, ok := ix.rdil[term]
	if !ok {
		return nil, false
	}
	if ix.blockFormat() {
		return ix.newBlockProber(ec, term), true
	}
	return &RDILProber{tree: btree.NewTreeExec(ix.rdilTreePool, m.Root, ec), ec: ec}, true
}

// ProbeLCP implements DeweyProber. The successor (smallest entry >= d) and
// its predecessor are the only two candidates for the deepest ancestor
// overlap (Section 4.3.2).
func (r *RDILProber) ProbeLCP(target dewey.ID) (int, error) {
	key := dewey.Encode(target)
	best := 0
	succ, err := r.tree.Seek(key)
	if err != nil {
		return 0, err
	}
	if succ.Valid() {
		n, err := lcpAgainst(target, succ.Key(), &r.scratch)
		if err != nil {
			return 0, err
		}
		if n > best {
			best = n
		}
	}
	pred, err := r.tree.SeekBefore(key)
	if err != nil {
		return 0, err
	}
	if pred.Valid() {
		n, err := lcpAgainst(target, pred.Key(), &r.scratch)
		if err != nil {
			return 0, err
		}
		if n > best {
			best = n
		}
	}
	return best, nil
}

// ScanPrefix implements DeweyProber via a B+-tree range scan.
func (r *RDILProber) ScanPrefix(prefix dewey.ID, fn func(p *Posting) error) error {
	encPrefix := dewey.Encode(prefix)
	c, err := r.tree.Seek(encPrefix)
	if err != nil {
		return err
	}
	n := int64(0)
	defer func() { r.ec.CountPostings(n) }()
	for c.Valid() && bytes.HasPrefix(c.Key(), encPrefix) {
		n++
		id, err := dewey.DecodeInto(r.post.ID, c.Key())
		if err != nil {
			return err
		}
		r.post.ID = id
		if err := decodeTreeValue(c.Value(), &r.post); err != nil {
			return err
		}
		if err := fn(&r.post); err != nil {
			return err
		}
		if err := c.Next(); err != nil {
			return err
		}
	}
	return nil
}

// HDILProber probes one term's external-leaf B+-tree, whose leaf level is
// the term's slice of the shared Dewey-ordered postings file
// (Section 4.4.1).
type HDILProber struct {
	ix      *Index
	meta    HDILMeta
	tree    *btree.Tree
	ec      *storage.ExecContext
	scratch dewey.ID
	post    Posting
}

// HDILProber returns the prober for term; ok is false for unknown terms.
func (ix *Index) HDILProber(term string) (DeweyProber, bool) {
	return ix.HDILProberExec(nil, term)
}

// HDILProberExec is HDILProber under a per-query execution context: tree
// descents and leaf-page scans are attributed to ec and honour its
// cancellation, deadline and read budget. A nil ec is HDILProber. In a
// block-format index HDIL shares the DIL skip-index prober with RDIL
// (the external-leaf B+-tree cannot walk block pages entry-wise, and the
// skip index answers the same probes from memory).
func (ix *Index) HDILProberExec(ec *storage.ExecContext, term string) (DeweyProber, bool) {
	m, ok := ix.hdil[term]
	if !ok {
		return nil, false
	}
	if ix.blockFormat() {
		return ix.newBlockProber(ec, term), true
	}
	return &HDILProber{ix: ix, meta: m, tree: btree.NewTreeExec(ix.hdilTreePool, m.Root, ec), ec: ec}, true
}

// pageVisit receives each decoded entry during a leaf-page scan. The
// Posting is reused across calls; clone anything retained.
type pageVisit func(p *Posting) (stop bool, err error)

// scanLeafPage walks the term's entries within one postings page, calling
// visit with each decoded entry. Entries outside the term's byte range
// are never visited because the range is contiguous: the scan starts at
// the term's start offset on its first page and stops at the end offset
// on its last page. Every v1 entry is self-contained, so a mid-list page
// scan always decodes correctly.
func (h *HDILProber) scanLeafPage(page storage.PageID, visit pageVisit) (stopped bool, err error) {
	if page > h.meta.EndPage {
		return false, nil
	}
	fr, err := h.ix.dilPool.GetExec(h.ec, page)
	if err != nil {
		return false, err
	}
	defer fr.Release()
	n := int64(0)
	defer func() { h.ec.CountPostings(n) }()
	off := 0
	if page == h.meta.DilLoc.Page {
		off = int(h.meta.DilLoc.Off)
	}
	end := storage.PageSize
	if page == h.meta.EndPage {
		end = int(h.meta.EndOff)
	}
	for off+entryLenSize <= end {
		ln := binary.LittleEndian.Uint16(fr.Data[off:])
		if ln == padEntry {
			break
		}
		start := off + entryLenSize
		stop := start + int(ln)
		if stop > storage.PageSize {
			return false, fmt.Errorf("index: corrupt entry at page %d off %d", page, off)
		}
		if stop > end {
			break
		}
		if err := DecodeDeweyEntry(fr.Data[start:stop], &h.post); err != nil {
			return false, fmt.Errorf("index: entry at page %d off %d: %w", page, off, err)
		}
		n++
		stopScan, err := visit(&h.post)
		if err != nil || stopScan {
			return stopScan, err
		}
		off = stop
	}
	return false, nil
}

// ProbeLCP implements DeweyProber: find the leaf page via the external
// B+-tree, then locate the predecessor/successor of target within the
// term's entries on that page (and, for the successor, possibly the next
// page).
func (h *HDILProber) ProbeLCP(target dewey.ID) (int, error) {
	if h.meta.DilLoc.Count == 0 {
		return 0, nil
	}
	page, ok, err := h.tree.FindLeafPage(dewey.Encode(target))
	if err != nil || !ok {
		return 0, err
	}
	var pred, succ dewey.ID
	havePred, haveSucc := false, false
	_, err = h.scanLeafPage(page, func(p *Posting) (bool, error) {
		if dewey.Compare(p.ID, target) < 0 {
			pred = append(pred[:0], p.ID...)
			havePred = true
			return false, nil
		}
		succ = append(succ[:0], p.ID...)
		haveSucc = true
		return true, nil
	})
	if err != nil {
		return 0, err
	}
	if !haveSucc {
		// All of this page's entries precede target; the successor, if
		// any, is the first term entry on a following page.
		for next := page + 1; next <= h.meta.EndPage && !haveSucc; next++ {
			_, err = h.scanLeafPage(next, func(p *Posting) (bool, error) {
				succ = append(succ[:0], p.ID...)
				haveSucc = true
				return true, nil
			})
			if err != nil {
				return 0, err
			}
		}
	}
	best := 0
	if havePred {
		if n := dewey.CommonPrefixLen(target, pred); n > best {
			best = n
		}
	}
	if haveSucc {
		if n := dewey.CommonPrefixLen(target, succ); n > best {
			best = n
		}
	}
	return best, nil
}

// ScanPrefix implements DeweyProber by locating the first entry with the
// prefix and scanning forward across the term's postings pages.
func (h *HDILProber) ScanPrefix(prefix dewey.ID, fn func(p *Posting) error) error {
	if h.meta.DilLoc.Count == 0 {
		return nil
	}
	page, ok, err := h.tree.FindLeafPage(dewey.Encode(prefix))
	if err != nil || !ok {
		return err
	}
	done := false
	for ; page <= h.meta.EndPage && !done; page++ {
		started := false
		_, err := h.scanLeafPage(page, func(p *Posting) (bool, error) {
			if !started && dewey.Compare(p.ID, prefix) < 0 {
				return false, nil // still before the prefix range
			}
			started = true
			if !prefix.IsPrefixOf(p.ID) {
				done = true
				return true, nil
			}
			return false, fn(p)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// TotalCount returns the full list length (not just the rank prefix).
func (h *HDILProber) TotalCount() int { return int(h.meta.DilLoc.Count) }

// blockProber answers Dewey probes for one term of a block-format index
// from the DIL skip index: block ranges are located with a zero-copy
// binary search over the encoded first IDs (bytes.Compare on the
// order-preserving encoding equals dewey.Compare), and at most the one
// candidate block is decoded. RDIL and HDIL share it — the entry set is
// exactly the term's DIL list, which is what the v1 B+-trees index too.
type blockProber struct {
	pool    *storage.BufferPool
	refs    []BlockRef
	ec      *storage.ExecContext
	key     []byte
	post    Posting
	scratch dewey.ID
}

func (ix *Index) newBlockProber(ec *storage.ExecContext, term string) *blockProber {
	return &blockProber{pool: ix.dilPool, refs: ix.dilSkip[term], ec: ec}
}

// scanBlock decodes ref's block, calling visit with each entry.
func (bp *blockProber) scanBlock(ref *BlockRef, visit pageVisit) error {
	dec := decoders.Get().(*blockDecoder)
	defer decoders.Put(dec)
	fr, err := openBlock(bp.pool, bp.ec, ref, false, dec)
	if err != nil {
		return err
	}
	defer fr.Release()
	defer func() { bp.ec.CountPostings(int64(dec.decoded())) }()
	for {
		ok, err := dec.next()
		if err != nil || !ok {
			return err
		}
		dec.at(dec.decoded()-1, &bp.post)
		stop, err := visit(&bp.post)
		if err != nil || stop {
			return err
		}
	}
}

// ProbeLCP implements DeweyProber. The candidate entries are the
// predecessor and successor of target; both live in the block whose
// first ID is the greatest one <= target, except that the successor may
// instead be the NEXT block's first ID — available from the skip index
// without decoding anything.
func (bp *blockProber) ProbeLCP(target dewey.ID) (int, error) {
	if len(bp.refs) == 0 {
		return 0, nil
	}
	bp.key = dewey.Append(bp.key[:0], target)
	i := sort.Search(len(bp.refs), func(j int) bool {
		return bytes.Compare(bp.refs[j].FirstID, bp.key) >= 0
	})
	best := 0
	if i < len(bp.refs) {
		n, err := lcpAgainst(target, bp.refs[i].FirstID, &bp.scratch)
		if err != nil {
			return 0, err
		}
		if n > best {
			best = n
		}
	}
	if i > 0 {
		// The longest common prefix with a sorted list is achieved at the
		// predecessor or successor of target; maxing over the whole
		// candidate block (stopping at the first entry >= target) covers
		// both without tracking them separately.
		err := bp.scanBlock(&bp.refs[i-1], func(p *Posting) (bool, error) {
			if n := dewey.CommonPrefixLen(target, p.ID); n > best {
				best = n
			}
			return dewey.Compare(p.ID, target) >= 0, nil
		})
		if err != nil {
			return 0, err
		}
	}
	return best, nil
}

// ScanPrefix implements DeweyProber: decode only the blocks whose
// [FirstID, LastID] range can intersect the prefix's descendant range
// (an encoded descendant always has the encoded prefix as a byte
// prefix), stopping at the first block past it.
func (bp *blockProber) ScanPrefix(prefix dewey.ID, fn func(p *Posting) error) error {
	if len(bp.refs) == 0 {
		return nil
	}
	bp.key = dewey.Append(bp.key[:0], prefix)
	i := sort.Search(len(bp.refs), func(j int) bool {
		return bytes.Compare(bp.refs[j].FirstID, bp.key) >= 0
	})
	if i > 0 {
		i--
	}
	done := false
	for ; i < len(bp.refs) && !done; i++ {
		ref := &bp.refs[i]
		if bytes.Compare(ref.LastID, bp.key) < 0 {
			continue // wholly before the prefix range
		}
		if bytes.Compare(ref.FirstID, bp.key) > 0 && !bytes.HasPrefix(ref.FirstID, bp.key) {
			break // wholly past it, as is every later block
		}
		err := bp.scanBlock(ref, func(p *Posting) (bool, error) {
			if dewey.Compare(p.ID, prefix) < 0 {
				return false, nil
			}
			if !prefix.IsPrefixOf(p.ID) {
				done = true
				return true, nil
			}
			return false, fn(p)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

var (
	_ DeweyProber = (*RDILProber)(nil)
	_ DeweyProber = (*HDILProber)(nil)
	_ DeweyProber = (*blockProber)(nil)
)
