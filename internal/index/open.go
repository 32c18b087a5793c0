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

	dilPF       *storage.PageFile
	rdilPF      *storage.PageFile
	rdilTreePF  *storage.PageFile
	hdilRankPF  *storage.PageFile
	hdilTreePF  *storage.PageFile
	naiveIDPF   *storage.PageFile
	naiveRankPF *storage.PageFile
	naiveHashPF *storage.PageFile

	dilPool       *storage.BufferPool
	rdilPool      *storage.BufferPool
	rdilTreePool  *storage.BufferPool
	hdilRankPool  *storage.BufferPool
	hdilTreePool  *storage.BufferPool
	naiveIDPool   *storage.BufferPool
	naiveRankPool *storage.BufferPool
	naiveHashPool *storage.BufferPool

	dil       map[string]DILMeta
	rdil      map[string]RDILMeta
	hdil      map[string]HDILMeta
	naiveID   map[string]NaiveMeta
	naiveRank map[string]NaiveRankMeta

	// Per-term block skip refs (PostingsFormat == BlockPostingsFormat).
	dilSkip      map[string][]BlockRef
	rdilSkip     map[string][]BlockRef
	hdilRankSkip map[string][]BlockRef
}

// blockFormat reports whether the Dewey lists are block-encoded.
func (ix *Index) blockFormat() bool { return ix.Meta.PostingsFormat == BlockPostingsFormat }

// Open opens an index directory produced by Build. The meta.json manifest
// is read first (format and checksum verified), then every data file it
// lists is verified against its recorded size and CRC-32C before any of
// it is trusted: Open either succeeds on a consistent directory or fails
// with a precise "corrupt <file>" error.
func Open(dir string, opts OpenOptions) (*Index, error) {
	if opts.PoolPages <= 0 {
		opts.PoolPages = 128
	}
	fs := storage.DefaultFS(opts.FS)
	ix := &Index{Dir: dir}
	if err := storage.ReadManifest(fs, filepath.Join(dir, fileMeta), &ix.Meta); err != nil {
		return nil, fmt.Errorf("index: open %s: %w", dir, err)
	}
	if ix.Meta.CompressDewey {
		return nil, fmt.Errorf("index: open %s: %w meta.json: prefix-compressed v1 postings (compress_dewey) are no longer supported; rebuild the index",
			dir, storage.ErrCorrupt)
	}
	if f := ix.Meta.PostingsFormat; f != 0 && f != BlockPostingsFormat {
		return nil, fmt.Errorf("index: open %s: %w meta.json: postings format %d, this build understands 0 and %d",
			dir, storage.ErrCorrupt, f, BlockPostingsFormat)
	}
	required := []string{
		fileDILPost, fileDILLex,
		fileRDILPost, fileRDILTree, fileRDILLex,
		fileHDILRank, fileHDILTree, fileHDILLex,
	}
	if ix.blockFormat() {
		required = append(required, fileDILSkip, fileRDILSkip, fileHDILRankSkip)
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

	var err error
	open := func(name string) (*storage.PageFile, *storage.BufferPool, error) {
		pf, err := storage.OpenPageFileFS(fs, filepath.Join(dir, name))
		if err != nil {
			return nil, nil, err
		}
		ix.files = append(ix.files, pf)
		return pf, storage.NewBufferPool(pf, opts.PoolPages), nil
	}
	if ix.dilPF, ix.dilPool, err = open(fileDILPost); err != nil {
		return nil, err
	}
	if ix.rdilPF, ix.rdilPool, err = open(fileRDILPost); err != nil {
		ix.Close()
		return nil, err
	}
	if ix.rdilTreePF, ix.rdilTreePool, err = open(fileRDILTree); err != nil {
		ix.Close()
		return nil, err
	}
	if ix.hdilRankPF, ix.hdilRankPool, err = open(fileHDILRank); err != nil {
		ix.Close()
		return nil, err
	}
	if ix.hdilTreePF, ix.hdilTreePool, err = open(fileHDILTree); err != nil {
		ix.Close()
		return nil, err
	}
	if ix.Meta.HasNaive {
		if ix.naiveIDPF, ix.naiveIDPool, err = open(fileNaiveIDPost); err != nil {
			ix.Close()
			return nil, err
		}
		if ix.naiveRankPF, ix.naiveRankPool, err = open(fileNaiveRankPost); err != nil {
			ix.Close()
			return nil, err
		}
		if ix.naiveHashPF, ix.naiveHashPool, err = open(fileNaiveRankHash); err != nil {
			ix.Close()
			return nil, err
		}
	}

	ix.dil = make(map[string]DILMeta, ix.Meta.Terms)
	if err := readLexicon(fs, filepath.Join(dir, fileDILLex), func(t string, m []byte) error {
		dm, err := decodeDILMeta(m)
		ix.dil[t] = dm
		return err
	}); err != nil {
		ix.Close()
		return nil, err
	}
	ix.rdil = make(map[string]RDILMeta, ix.Meta.Terms)
	if err := readLexicon(fs, filepath.Join(dir, fileRDILLex), func(t string, m []byte) error {
		rm, err := decodeRDILMeta(m)
		ix.rdil[t] = rm
		return err
	}); err != nil {
		ix.Close()
		return nil, err
	}
	ix.hdil = make(map[string]HDILMeta, ix.Meta.Terms)
	if err := readLexicon(fs, filepath.Join(dir, fileHDILLex), func(t string, m []byte) error {
		hm, err := decodeHDILMeta(m)
		ix.hdil[t] = hm
		return err
	}); err != nil {
		ix.Close()
		return nil, err
	}
	if ix.blockFormat() {
		load := func(name string, ordered bool, nTerms int, want func(term string) (Loc, bool)) (map[string][]BlockRef, error) {
			refs, err := readSkipIndex(fs, filepath.Join(dir, name), ordered)
			if err != nil {
				return nil, err
			}
			if len(refs) != nTerms {
				return nil, fmt.Errorf("index: %w %s: %d terms, lexicon has %d",
					storage.ErrCorrupt, name, len(refs), nTerms)
			}
			// The skip index must agree with the lexicon: same terms, and
			// per term the block counts must sum to the list's entry
			// count. A mismatch means the directory's artifacts are from
			// different builds — refuse rather than serve wrong data.
			for term, rs := range refs {
				loc, ok := want(term)
				if !ok {
					return nil, fmt.Errorf("index: %w %s: term %q not in lexicon", storage.ErrCorrupt, name, term)
				}
				total := uint32(0)
				for i := range rs {
					total += uint32(rs[i].Count)
				}
				if total != loc.Count {
					return nil, fmt.Errorf("index: %w %s: term %q has %d entries across blocks, lexicon says %d",
						storage.ErrCorrupt, name, term, total, loc.Count)
				}
			}
			return refs, nil
		}
		var err error
		if ix.dilSkip, err = load(fileDILSkip, true, len(ix.dil), func(t string) (Loc, bool) {
			m, ok := ix.dil[t]
			return m.Loc, ok
		}); err != nil {
			ix.Close()
			return nil, err
		}
		if ix.rdilSkip, err = load(fileRDILSkip, false, len(ix.rdil), func(t string) (Loc, bool) {
			m, ok := ix.rdil[t]
			return m.RankLoc, ok
		}); err != nil {
			ix.Close()
			return nil, err
		}
		if ix.hdilRankSkip, err = load(fileHDILRankSkip, false, len(ix.hdil), func(t string) (Loc, bool) {
			m, ok := ix.hdil[t]
			return m.RankLoc, ok
		}); err != nil {
			ix.Close()
			return nil, err
		}
	}
	if ix.Meta.HasNaive {
		ix.naiveID = make(map[string]NaiveMeta, ix.Meta.Terms)
		if err := readLexicon(fs, filepath.Join(dir, fileNaiveIDLex), func(t string, m []byte) error {
			nm, err := decodeNaiveMeta(m)
			ix.naiveID[t] = nm
			return err
		}); err != nil {
			ix.Close()
			return nil, err
		}
		ix.naiveRank = make(map[string]NaiveRankMeta, ix.Meta.Terms)
		if err := readLexicon(fs, filepath.Join(dir, fileNaiveRankLex), func(t string, m []byte) error {
			nm, err := decodeNaiveRankMeta(m)
			ix.naiveRank[t] = nm
			return err
		}); err != nil {
			ix.Close()
			return nil, err
		}
	}
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
	for _, bp := range []*storage.BufferPool{
		ix.dilPool, ix.rdilPool, ix.rdilTreePool, ix.hdilRankPool, ix.hdilTreePool,
		ix.naiveIDPool, ix.naiveRankPool, ix.naiveHashPool,
	} {
		if bp == nil {
			continue
		}
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
	_, ok := ix.dil[term]
	return ok
}

// DILListBytes returns the encoded byte size of the term's DIL list (used
// for DIL cost estimation in the HDIL adaptive strategy).
func (ix *Index) DILListBytes(term string) int64 {
	return int64(ix.dil[term].Loc.Bytes)
}

// DILCount returns the number of entries in the term's DIL list.
func (ix *Index) DILCount(term string) int { return int(ix.dil[term].Loc.Count) }

// ListCursor decodes a sequential inverted list (either entry family).
// Dewey lists in a block-format index iterate through a blockCursor
// instead of the per-entry postCursor; naive lists always use the
// latter.
type ListCursor struct {
	pc    *postCursor
	blk   *blockCursor
	dewey bool
	post  Posting
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
	if lc.dewey {
		err = DecodeDeweyEntry(lc.pc.body, &lc.post)
	} else {
		err = DecodeNaiveEntry(lc.pc.body, &lc.post)
	}
	if err != nil {
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
// belong to documents before doc, without reading them. A no-op on v1
// lists and on naive lists; the caller owns the exactness argument (see
// the doc-leapfrog reasoning in internal/query/merge.go).
func (lc *ListCursor) SkipBlocksBelowDoc(doc uint32) {
	if lc.blk != nil {
		lc.blk.skipBlocksBelowDoc(doc)
	}
}

// SkipRemainingBlocks drops every not-yet-loaded block — the consumer
// proved it will not read further (threshold-algorithm stop, top-m
// cutoff). A no-op on v1 lists.
func (lc *ListCursor) SkipRemainingBlocks() {
	if lc.blk != nil {
		lc.blk.skipRemainingBlocks()
	}
}

// RemainingBlockRefs returns the skip refs of the blocks not yet loaded
// (nil on v1 lists). Debug/test instrumentation: the pruning-soundness
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

// deweyCursor opens a Dewey-family list in the directory's postings
// format. scan marks a cursor that reads the whole list once (see
// storage.BufferPool.GetScanExec).
func (ix *Index) deweyCursor(pool *storage.BufferPool, loc Loc, refs []BlockRef, ec *storage.ExecContext, scan bool) *ListCursor {
	if ix.blockFormat() {
		return &ListCursor{blk: newBlockCursor(pool, refs, loc.Count, ec, scan), dewey: true}
	}
	return &ListCursor{pc: newPostCursor(pool, loc, ec, scan), dewey: true}
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
// is also what HDIL's and the block format's probes read), so its pages
// enter the pool cold and cannot evict the probe working set.
func (ix *Index) DILCursorExec(ec *storage.ExecContext, term string) (*ListCursor, bool) {
	m, ok := ix.dil[term]
	if !ok {
		return nil, false
	}
	return ix.deweyCursor(ix.dilPool, m.Loc, ix.dilSkip[term], ec, true), true
}

// RDILRankCursor returns a rank-ordered scan of the term's RDIL list.
func (ix *Index) RDILRankCursor(term string) (*ListCursor, bool) {
	return ix.RDILRankCursorExec(nil, term)
}

// RDILRankCursorExec is RDILRankCursor under a per-query execution
// context.
func (ix *Index) RDILRankCursorExec(ec *storage.ExecContext, term string) (*ListCursor, bool) {
	m, ok := ix.rdil[term]
	if !ok {
		return nil, false
	}
	return ix.deweyCursor(ix.rdilPool, m.RankLoc, ix.rdilSkip[term], ec, false), true
}

// HDILRankCursor returns the rank-ordered *prefix* scan of the term's
// HDIL list (shorter than the full list).
func (ix *Index) HDILRankCursor(term string) (*ListCursor, bool) {
	return ix.HDILRankCursorExec(nil, term)
}

// HDILRankCursorExec is HDILRankCursor under a per-query execution
// context.
func (ix *Index) HDILRankCursorExec(ec *storage.ExecContext, term string) (*ListCursor, bool) {
	m, ok := ix.hdil[term]
	if !ok {
		return nil, false
	}
	return ix.deweyCursor(ix.hdilRankPool, m.RankLoc, ix.hdilRankSkip[term], ec, false), true
}

// NaiveIDCursor returns an element-ID-ordered scan of the term's naive
// list.
func (ix *Index) NaiveIDCursor(term string) (*ListCursor, bool) {
	return ix.NaiveIDCursorExec(nil, term)
}

// NaiveIDCursorExec is NaiveIDCursor under a per-query execution context.
func (ix *Index) NaiveIDCursorExec(ec *storage.ExecContext, term string) (*ListCursor, bool) {
	m, ok := ix.naiveID[term]
	if !ok {
		return nil, false
	}
	return &ListCursor{pc: newPostCursor(ix.naiveIDPool, m.Loc, ec, false), dewey: false}, true
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
	return &ListCursor{pc: newPostCursor(ix.naiveRankPool, m.Loc, ec, false), dewey: false}, true
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
func (ix *Index) NaiveCount(term string) int { return int(ix.naiveID[term].Loc.Count) }
