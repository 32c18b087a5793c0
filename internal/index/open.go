package index

import (
	"encoding/binary"
	"fmt"
	"math"
	"path/filepath"

	"xrank/internal/storage"
)

// OpenOptions configure an opened index.
type OpenOptions struct {
	// PoolPages is the buffer-pool capacity (in pages) per index file.
	// Default 128 (1MB per file): large enough for merge working sets,
	// small enough that "cold cache" experiments stay honest.
	PoolPages int
	// FS is the file system the index is read through (nil = the real
	// file system). Fault-injection tests pass a storage.FaultFS.
	FS storage.FS
	// SkipVerify disables the up-front size/checksum verification of every
	// data file against meta.json. Verification costs one sequential pass
	// over the index; leave it on anywhere correctness matters.
	SkipVerify bool
}

// Index is an opened on-disk index directory with one buffer pool per
// component file.
type Index struct {
	Dir  string
	Meta Meta

	files []*storage.PageFile
	pools []*storage.BufferPool

	// dil, rdil and hdil are the Dewey-ordered list, the full rank-ordered
	// list and HDIL's rank-ordered prefix.
	dil, rdil, hdil *deweyList

	naiveIDPool   *storage.BufferPool
	naiveRankPool *storage.BufferPool
	naiveHashPool *storage.BufferPool
	naiveID       map[string]Loc
	naiveRank     map[string]NaiveRankMeta
}

// deweyList is an opened Dewey-family list: the buffer pool over its
// postings file and, per term, the list's location and block refs.
type deweyList struct {
	pool *storage.BufferPool
	locs map[string]Loc
	refs map[string][]BlockRef
}

// cursor opens term's list (ok is false for unknown terms). scan marks a
// cursor that reads the whole list once (see
// storage.BufferPool.GetScanExec).
func (l *deweyList) cursor(ec *storage.ExecContext, term string, scan bool) (*ListCursor, bool) {
	loc, ok := l.locs[term]
	if !ok {
		return nil, false
	}
	return &ListCursor{blk: newBlockCursor(l.pool, l.refs[term], loc.Count, ec, scan)}, true
}

// Open opens an index directory produced by Build. The meta.json manifest
// is read first (format and checksum verified), then every data file it
// lists is verified against its recorded size and CRC-32C before any of
// it is trusted: Open either succeeds on a consistent directory or fails
// with a precise "corrupt <file>" error. A directory in any postings
// format but PostingsFormat is refused as corrupt; it must be rebuilt.
func Open(dir string, opts OpenOptions) (*Index, error) {
	if opts.PoolPages <= 0 {
		opts.PoolPages = 128
	}
	fs := storage.DefaultFS(opts.FS)
	ix := &Index{Dir: dir}
	if err := storage.ReadManifest(fs, filepath.Join(dir, fileMeta), &ix.Meta); err != nil {
		return nil, fmt.Errorf("index: open %s: %w", dir, err)
	}
	if f := ix.Meta.PostingsFormat; f != PostingsFormat {
		return nil, fmt.Errorf("index: open %s: %w meta.json: postings format %d, this build reads only format %d",
			dir, storage.ErrCorrupt, f, PostingsFormat)
	}
	required := []string{
		fileDILPost, fileDILSkip, fileDILLex,
		fileRDILPost, fileRDILSkip, fileRDILLex,
		fileHDILRank, fileHDILRankSkip, fileHDILLex,
	}
	if ix.Meta.HasNaive {
		required = append(required,
			fileNaiveIDPost, fileNaiveIDLex,
			fileNaiveRankPost, fileNaiveRankHash, fileNaiveRankLex)
	}
	for _, name := range required {
		sum, ok := ix.Meta.Files[name]
		if !ok {
			return nil, fmt.Errorf("index: open %s: %w meta.json: no checksum recorded for %s",
				dir, storage.ErrCorrupt, name)
		}
		if opts.SkipVerify {
			continue
		}
		if err := storage.VerifyFile(fs, filepath.Join(dir, name), sum); err != nil {
			return nil, fmt.Errorf("index: open %s: %w", dir, err)
		}
	}

	opened := false
	defer func() {
		if !opened {
			ix.Close()
		}
	}()
	open := func(name string) (*storage.BufferPool, error) {
		pf, err := storage.OpenPageFileFS(fs, filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		ix.files = append(ix.files, pf)
		bp := storage.NewBufferPool(pf, opts.PoolPages)
		ix.pools = append(ix.pools, bp)
		return bp, nil
	}
	readLocs := func(name string) (map[string]Loc, error) {
		locs := make(map[string]Loc, ix.Meta.Terms)
		err := readLexicon(fs, filepath.Join(dir, name), func(t string, m []byte) error {
			loc, err := decodeLocMeta(m)
			locs[t] = loc
			return err
		})
		return locs, err
	}
	// openList opens one Dewey-family list. Its skip index must agree with
	// its lexicon: same terms, and per term the block counts must sum to
	// the list's entry count. A mismatch means the directory's artifacts
	// are from different builds — refuse rather than serve wrong data.
	// ordered is decodeSkipIndex's: the list is Dewey-ordered.
	openList := func(post, skip, lex string, ordered bool) (*deweyList, error) {
		l := &deweyList{}
		var err error
		if l.pool, err = open(post); err != nil {
			return nil, err
		}
		if l.locs, err = readLocs(lex); err != nil {
			return nil, err
		}
		if l.refs, err = readSkipIndex(fs, filepath.Join(dir, skip), ordered); err != nil {
			return nil, err
		}
		if len(l.refs) != len(l.locs) {
			return nil, fmt.Errorf("index: %w %s: %d terms, lexicon has %d",
				storage.ErrCorrupt, skip, len(l.refs), len(l.locs))
		}
		for term, rs := range l.refs {
			loc, ok := l.locs[term]
			if !ok {
				return nil, fmt.Errorf("index: %w %s: term %q not in lexicon", storage.ErrCorrupt, skip, term)
			}
			total := uint32(0)
			for i := range rs {
				total += uint32(rs[i].Count)
			}
			if total != loc.Count {
				return nil, fmt.Errorf("index: %w %s: term %q has %d entries across blocks, lexicon says %d",
					storage.ErrCorrupt, skip, term, total, loc.Count)
			}
		}
		return l, nil
	}
	var err error
	if ix.dil, err = openList(fileDILPost, fileDILSkip, fileDILLex, true); err != nil {
		return nil, err
	}
	if ix.rdil, err = openList(fileRDILPost, fileRDILSkip, fileRDILLex, false); err != nil {
		return nil, err
	}
	if ix.hdil, err = openList(fileHDILRank, fileHDILRankSkip, fileHDILLex, false); err != nil {
		return nil, err
	}
	if ix.Meta.HasNaive {
		if ix.naiveIDPool, err = open(fileNaiveIDPost); err != nil {
			return nil, err
		}
		if ix.naiveRankPool, err = open(fileNaiveRankPost); err != nil {
			return nil, err
		}
		if ix.naiveHashPool, err = open(fileNaiveRankHash); err != nil {
			return nil, err
		}
		if ix.naiveID, err = readLocs(fileNaiveIDLex); err != nil {
			return nil, err
		}
		ix.naiveRank = make(map[string]NaiveRankMeta, ix.Meta.Terms)
		if err := readLexicon(fs, filepath.Join(dir, fileNaiveRankLex), func(t string, m []byte) error {
			nm, err := decodeNaiveRankMeta(m)
			ix.naiveRank[t] = nm
			return err
		}); err != nil {
			return nil, err
		}
	}
	opened = true
	return ix, nil
}

// Close closes all component files.
func (ix *Index) Close() error {
	var first error
	for _, pf := range ix.files {
		if err := pf.Close(); err != nil && first == nil {
			first = err
		}
	}
	ix.files = nil
	return first
}

// ColdCache drops every buffer pool and zeroes I/O statistics, simulating
// the paper's cold-operating-system-cache measurement setup.
//
// ColdCache is engine-global, not per-query: it empties pools shared by
// every in-flight query and resets the global counters. It is a
// single-tenant measurement knob — concurrent queries see their pools
// vanish mid-merge (correct but slow) and the global counters lose the
// prefix of their I/O. Per-query measurement under concurrency uses
// storage.ExecContext instead, which is unaffected by ColdCache.
func (ix *Index) ColdCache() error {
	for _, bp := range ix.pools {
		if err := bp.Reset(); err != nil {
			return err
		}
	}
	for _, pf := range ix.files {
		pf.ResetStats()
	}
	return nil
}

// IOStats aggregates I/O statistics across all component files. These are
// the engine-global counters: they sum the traffic of every query since
// the last ColdCache. Diffing two snapshots around a query is only
// meaningful when the index serves one query at a time; concurrent
// queries attribute their I/O through a per-query storage.ExecContext
// passed to the *Exec cursor and prober constructors.
func (ix *Index) IOStats() storage.Stats {
	var s storage.Stats
	for _, pf := range ix.files {
		s.Add(pf.Stats())
	}
	return s
}

// HasTerm reports whether term occurs anywhere in the collection.
func (ix *Index) HasTerm(term string) bool {
	_, ok := ix.dil.locs[term]
	return ok
}

// DILListBytes returns the encoded byte size of the term's DIL list (used
// for DIL cost estimation in the HDIL adaptive strategy).
func (ix *Index) DILListBytes(term string) int64 {
	return int64(ix.dil.locs[term].Bytes)
}

// DILCount returns the number of entries in the term's DIL list.
func (ix *Index) DILCount(term string) int { return int(ix.dil.locs[term].Count) }

// ListCursor decodes a sequential inverted list: a Dewey-family list
// through its blocks, a naive list entry by entry.
type ListCursor struct {
	blk  *blockCursor
	pc   *postCursor
	post Posting
}

// Next returns the list's next posting, or ok=false at its end. The
// posting, its ID and its posList are only valid until the following
// Next or Close.
func (lc *ListCursor) Next() (*Posting, bool, error) {
	if lc.blk != nil {
		return lc.blk.next()
	}
	ok, err := lc.pc.next()
	if err != nil || !ok {
		return nil, false, err
	}
	if err := DecodeNaiveEntry(lc.pc.body, &lc.post); err != nil {
		return nil, false, err
	}
	return &lc.post, true, nil
}

// Count returns the total number of entries in the list.
func (lc *ListCursor) Count() int {
	if lc.blk != nil {
		return int(lc.blk.count)
	}
	return int(lc.pc.loc.Count)
}

// Exhausted reports whether the cursor consumed the entire list (blocks
// dropped by a skip call count as consumed).
func (lc *ListCursor) Exhausted() bool {
	if lc.blk != nil {
		return lc.blk.exhausted()
	}
	return lc.pc.exhausted()
}

// Close releases pinned pages. Safe to call multiple times.
func (lc *ListCursor) Close() {
	if lc.blk != nil {
		lc.blk.close()
		return
	}
	lc.pc.close()
}

// SkipBlocksBelowDoc drops every not-yet-loaded block whose entries all
// belong to documents before doc, without reading them. A no-op on naive
// lists; the caller owns the exactness argument (see the doc-leapfrog
// reasoning in internal/query/merge.go).
func (lc *ListCursor) SkipBlocksBelowDoc(doc uint32) {
	if lc.blk != nil {
		lc.blk.skipBlocksBelowDoc(doc)
	}
}

// SkipRemainingBlocks drops every not-yet-loaded block — the consumer
// proved it will not read further (threshold-algorithm stop, top-m
// cutoff). A no-op on naive lists.
func (lc *ListCursor) SkipRemainingBlocks() {
	if lc.blk != nil {
		lc.blk.skipRemainingBlocks()
	}
}

// RemainingBlockRefs returns the skip refs of the blocks not yet loaded
// (nil on naive lists). Debug/test instrumentation: the pruning-soundness
// check inspects what a skip call is about to drop.
func (lc *ListCursor) RemainingBlockRefs() []BlockRef {
	if lc.blk == nil {
		return nil
	}
	return lc.blk.refs[lc.blk.bi:]
}

// DecodeBlockMaxRank decodes ref's block out-of-band (its own page pin,
// no cursor state touched) and returns the true maximum rank among its
// entries. Debug/test instrumentation for the pruning-soundness check.
func (lc *ListCursor) DecodeBlockMaxRank(ref BlockRef) (float32, error) {
	if lc.blk == nil {
		return 0, fmt.Errorf("index: not a block cursor")
	}
	var dec blockDecoder
	fr, err := openBlock(lc.blk.pool, lc.blk.ec, &ref, false, &dec)
	if err != nil {
		return 0, err
	}
	defer fr.Release()
	for {
		ok, err := dec.next()
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
	}
	max := float32(math.Inf(-1))
	for _, r := range dec.ranks {
		if r > max {
			max = r
		}
	}
	return max, nil
}

// DILCursor returns a Dewey-ordered scan of the term's DIL list; ok is
// false for unknown terms.
func (ix *Index) DILCursor(term string) (*ListCursor, bool) {
	return ix.DILCursorExec(nil, term)
}

// DILCursorExec is DILCursor under a per-query execution context: every
// page the scan touches is attributed to ec and honours its cancellation,
// deadline and read budget. A nil ec is DILCursor. The scan is the one
// access pattern that can be longer than the pool and shares it (dil.post
// is also what the Dewey probes read), so its pages enter the pool cold
// and cannot evict the probe working set.
func (ix *Index) DILCursorExec(ec *storage.ExecContext, term string) (*ListCursor, bool) {
	return ix.dil.cursor(ec, term, true)
}

// RDILRankCursor returns a rank-ordered scan of the term's RDIL list.
func (ix *Index) RDILRankCursor(term string) (*ListCursor, bool) {
	return ix.RDILRankCursorExec(nil, term)
}

// RDILRankCursorExec is RDILRankCursor under a per-query execution
// context.
func (ix *Index) RDILRankCursorExec(ec *storage.ExecContext, term string) (*ListCursor, bool) {
	return ix.rdil.cursor(ec, term, false)
}

// HDILRankCursor returns the rank-ordered *prefix* scan of the term's
// HDIL list (shorter than the full list).
func (ix *Index) HDILRankCursor(term string) (*ListCursor, bool) {
	return ix.HDILRankCursorExec(nil, term)
}

// HDILRankCursorExec is HDILRankCursor under a per-query execution
// context.
func (ix *Index) HDILRankCursorExec(ec *storage.ExecContext, term string) (*ListCursor, bool) {
	return ix.hdil.cursor(ec, term, false)
}

// NaiveIDCursor returns an element-ID-ordered scan of the term's naive
// list.
func (ix *Index) NaiveIDCursor(term string) (*ListCursor, bool) {
	return ix.NaiveIDCursorExec(nil, term)
}

// NaiveIDCursorExec is NaiveIDCursor under a per-query execution context.
func (ix *Index) NaiveIDCursorExec(ec *storage.ExecContext, term string) (*ListCursor, bool) {
	loc, ok := ix.naiveID[term]
	if !ok {
		return nil, false
	}
	return &ListCursor{pc: newPostCursor(ix.naiveIDPool, loc, ec, false)}, true
}

// NaiveRankCursor returns a rank-ordered scan of the term's naive list.
func (ix *Index) NaiveRankCursor(term string) (*ListCursor, bool) {
	return ix.NaiveRankCursorExec(nil, term)
}

// NaiveRankCursorExec is NaiveRankCursor under a per-query execution
// context.
func (ix *Index) NaiveRankCursorExec(ec *storage.ExecContext, term string) (*ListCursor, bool) {
	m, ok := ix.naiveRank[term]
	if !ok {
		return nil, false
	}
	return &ListCursor{pc: newPostCursor(ix.naiveRankPool, m.Loc, ec, false)}, true
}

// NaiveLookup probes the term's hash index for an element ID, decoding the
// found entry (Naive-Rank's random equality lookup).
func (ix *Index) NaiveLookup(term string, elem int32, p *Posting) (bool, error) {
	return ix.NaiveLookupExec(nil, term, elem, p)
}

// NaiveLookupExec is NaiveLookup under a per-query execution context.
func (ix *Index) NaiveLookupExec(ec *storage.ExecContext, term string, elem int32, p *Posting) (bool, error) {
	m, ok := ix.naiveRank[term]
	if !ok {
		return false, nil
	}
	page, off, ok, err := hashLookup(ec, ix.naiveHashPool, m.Hash, elem)
	if err != nil || !ok {
		return false, err
	}
	fr, err := ix.naiveRankPool.GetExec(ec, page)
	if err != nil {
		return false, err
	}
	defer fr.Release()
	if int(off)+entryLenSize > len(fr.Data) {
		return false, fmt.Errorf("index: hash points beyond page")
	}
	ln := binary.LittleEndian.Uint16(fr.Data[off:])
	start := int(off) + entryLenSize
	end := start + int(ln)
	if ln == padEntry || end > len(fr.Data) {
		return false, fmt.Errorf("index: hash points at padding")
	}
	return true, DecodeNaiveEntry(fr.Data[start:end], p)
}

// NaiveCount returns the entry count of the term's naive list.
func (ix *Index) NaiveCount(term string) int { return int(ix.naiveID[term].Count) }
