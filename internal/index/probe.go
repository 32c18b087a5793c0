package index

import (
	"bytes"
	"sort"

	"xrank/internal/dewey"
	"xrank/internal/storage"
)

// Prober is the Dewey-ordered side of a ranked index: the operations the
// RDIL query algorithm (Figure 7) needs against each keyword's list, for
// RDIL and HDIL alike. Where the paper descends a B+-tree on Dewey IDs
// (RDIL's per-term tree, Section 4.3.1; HDIL's external tree over the
// Dewey-sorted list, Section 4.4.1), a Prober binary-searches the term's
// DIL skip index in memory — zero-copy, since bytes.Compare on the
// order-preserving encoding equals dewey.Compare — and steps through the
// Dewey IDs of at most the candidate blocks of dil.post, decoding an
// entry's rank and posList only when ScanPrefix returns it. The entry set
// is the term's DIL list, which is exactly what both trees index.
type Prober struct {
	pool    *storage.BufferPool
	refs    []BlockRef
	ec      *storage.ExecContext
	key     []byte
	post    Posting
	scratch dewey.ID
}

// ProberExec returns the prober for term (ok is false for unknown terms)
// under a per-query execution context: every page the probes touch is
// attributed to ec and honours its cancellation, deadline and read
// budget. ec may be nil.
func (ix *Index) ProberExec(ec *storage.ExecContext, term string) (*Prober, bool) {
	refs, ok := ix.dil.refs[term]
	if !ok {
		return nil, false
	}
	return &Prober{pool: ix.dil.pool, refs: refs, ec: ec}, true
}

// scanBlock steps through ref's block by Dewey ID, calling visit after
// each entry until visit asks to stop. visit reads the entry's ID as
// dec.id and decodes the rest (dec.posting) only if it returns the entry.
// Every entry stepped counts as read; those never decoded also count as
// stepped, which the cost model prices below a decoded entry.
func (pr *Prober) scanBlock(ref *BlockRef, visit func(dec *blockDecoder) (stop bool, err error)) error {
	dec := decoders.Get().(*blockDecoder)
	defer decoders.Put(dec)
	fr, err := openBlock(pr.pool, pr.ec, ref, false, dec)
	if err != nil {
		return err
	}
	defer fr.Release()
	defer func() { pr.ec.CountPostings(int64(dec.stepped), int64(dec.stepped-dec.posted)) }()
	for {
		ok, err := dec.step()
		if err != nil || !ok {
			return err
		}
		stop, err := visit(dec)
		if err != nil || stop {
			return err
		}
	}
}

// ProbeLCP returns the length (in Dewey components) of the longest prefix
// of target that is an ancestor-or-self of some entry in the list (Figure
// 7, getLongestCommonPrefix). Zero means no overlap even at document
// granularity.
//
// The candidate entries are the predecessor and successor of target
// (Section 4.3.2); both live in the block whose first ID is the greatest
// one <= target, except that the successor may instead be the NEXT
// block's first ID — available from the skip index without decoding
// anything.
func (pr *Prober) ProbeLCP(target dewey.ID) (int, error) {
	if len(pr.refs) == 0 {
		return 0, nil
	}
	pr.key = dewey.Append(pr.key[:0], target)
	i := sort.Search(len(pr.refs), func(j int) bool {
		return bytes.Compare(pr.refs[j].FirstID, pr.key) >= 0
	})
	best := 0
	if i < len(pr.refs) {
		id, err := dewey.DecodeInto(pr.scratch, pr.refs[i].FirstID)
		if err != nil {
			return 0, err
		}
		pr.scratch = id
		best = dewey.CommonPrefixLen(target, id)
	}
	if i > 0 {
		// The longest common prefix with a sorted list is achieved at the
		// predecessor or successor of target; maxing over the whole
		// candidate block (stopping at the first entry >= target) covers
		// both without tracking them separately.
		err := pr.scanBlock(&pr.refs[i-1], func(dec *blockDecoder) (bool, error) {
			if n := dewey.CommonPrefixLen(target, dec.id); n > best {
				best = n
			}
			return dewey.Compare(dec.id, target) >= 0, nil
		})
		if err != nil {
			return 0, err
		}
	}
	return best, nil
}

// ScanPrefix invokes fn for each entry whose Dewey ID has the given
// prefix, in Dewey order; the *Posting and its views are reused across
// calls. Only the blocks whose [FirstID, LastID] range can intersect the
// prefix's descendant range are read (an encoded descendant always has
// the encoded prefix as a byte prefix), stopping at the first block past
// it.
func (pr *Prober) ScanPrefix(prefix dewey.ID, fn func(p *Posting) error) error {
	if len(pr.refs) == 0 {
		return nil
	}
	pr.key = dewey.Append(pr.key[:0], prefix)
	i := sort.Search(len(pr.refs), func(j int) bool {
		return bytes.Compare(pr.refs[j].FirstID, pr.key) >= 0
	})
	if i > 0 {
		i--
	}
	done := false
	for ; i < len(pr.refs) && !done; i++ {
		ref := &pr.refs[i]
		if bytes.Compare(ref.LastID, pr.key) < 0 {
			continue // wholly before the prefix range
		}
		if bytes.Compare(ref.FirstID, pr.key) > 0 && !bytes.HasPrefix(ref.FirstID, pr.key) {
			break // wholly past it, as is every later block
		}
		err := pr.scanBlock(ref, func(dec *blockDecoder) (bool, error) {
			if dewey.Compare(dec.id, prefix) < 0 {
				return false, nil
			}
			if !prefix.IsPrefixOf(dec.id) {
				done = true
				return true, nil
			}
			if err := dec.posting(&pr.post); err != nil {
				return false, err
			}
			return false, fn(&pr.post)
		})
		if err != nil {
			return err
		}
	}
	return nil
}
