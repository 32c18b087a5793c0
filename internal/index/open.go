package index

import (
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
	pageFiles

	// dil and rdil are the Dewey-ordered list and the full rank-ordered
	// list, whose head is HDIL's rank-ordered prefix.
	dil, rdil *deweyList
}

// pageFiles are an opened index's page files, each behind its own buffer
// pool.
type pageFiles struct {
	files []*storage.PageFile
	pools []*storage.BufferPool
}

// open opens dir/name behind a new buffer pool of poolPages pages.
func (p *pageFiles) open(fs storage.FS, dir, name string, poolPages int) (*storage.BufferPool, error) {
	pf, err := storage.OpenPageFileFS(fs, filepath.Join(dir, name))
	if err != nil {
		return nil, err
	}
	p.files = append(p.files, pf)
	bp := storage.NewBufferPool(pf, poolPages)
	p.pools = append(p.pools, bp)
	return bp, nil
}

// verifyFiles checks that the manifest's Files record holds a checksum
// for every required file and, unless skip, that each file in dir matches
// it.
func verifyFiles(fs storage.FS, dir, manifest string, files map[string]storage.FileSum, required []string, skip bool) error {
	for _, name := range required {
		sum, ok := files[name]
		if !ok {
			return fmt.Errorf("%w %s: no checksum recorded for %s", storage.ErrCorrupt, manifest, name)
		}
		if skip {
			continue
		}
		if err := storage.VerifyFile(fs, filepath.Join(dir, name), sum); err != nil {
			return err
		}
	}
	return nil
}

// deweyList is an opened Dewey-family list: the buffer pool over its
// postings file and, per term, the list's block refs (see locOf).
type deweyList struct {
	pool *storage.BufferPool
	refs map[string][]BlockRef
}

// cursor opens term's list (ok is false for unknown terms). scan marks a
// cursor that reads the whole list once (see
// storage.BufferPool.GetScanExec).
func (l *deweyList) cursor(ec *storage.ExecContext, term string, scan bool) (*ListCursor, bool) {
	refs, ok := l.refs[term]
	if !ok {
		return nil, false
	}
	return &ListCursor{blk: &blockCursor{pool: l.pool, refs: refs, count: locOf(refs).Count, ec: ec, scan: scan}}, true
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
	// Only the files this build reads are required and verified: a
	// directory written with retired files beside them (the naive lists,
	// HDIL's separate rank prefix, the lexicons) opens unchanged, and its
	// next fold drops them.
	required := []string{fileDILPost, fileDILSkip, fileRDILPost, fileRDILSkip}
	if err := verifyFiles(fs, dir, fileMeta, ix.Meta.Files, required, opts.SkipVerify); err != nil {
		return nil, fmt.Errorf("index: open %s: %w", dir, err)
	}

	opened := false
	defer func() {
		if !opened {
			ix.Close()
		}
	}()
	// openList opens one Dewey-family list. ordered is decodeSkipIndex's:
	// the list is Dewey-ordered.
	openList := func(post, skip string, ordered bool) (*deweyList, error) {
		l := &deweyList{}
		var err error
		if l.pool, err = ix.open(fs, dir, post, opts.PoolPages); err != nil {
			return nil, err
		}
		if l.refs, err = readSkipIndex(fs, filepath.Join(dir, skip), ordered); err != nil {
			return nil, err
		}
		if len(l.refs) != ix.Meta.Terms {
			return nil, fmt.Errorf("index: %w %s: %d terms, meta.json says %d",
				storage.ErrCorrupt, skip, len(l.refs), ix.Meta.Terms)
		}
		return l, nil
	}
	var err error
	if ix.dil, err = openList(fileDILPost, fileDILSkip, true); err != nil {
		return nil, err
	}
	if ix.rdil, err = openList(fileRDILPost, fileRDILSkip, false); err != nil {
		return nil, err
	}
	// Both lists hold every term's postings, in two orders. A term whose
	// counts differ means the skip indexes are from different builds —
	// refuse rather than serve wrong data.
	for term, refs := range ix.rdil.refs {
		if n, m := locOf(refs).Count, locOf(ix.dil.refs[term]).Count; n != m {
			return nil, fmt.Errorf("index: %w %s: term %q has %d entries, %s has %d",
				storage.ErrCorrupt, fileRDILSkip, term, n, fileDILSkip, m)
		}
	}
	opened = true
	return ix, nil
}

// Close closes all component files.
func (p *pageFiles) Close() error {
	var first error
	for _, pf := range p.files {
		if err := pf.Close(); err != nil && first == nil {
			first = err
		}
	}
	p.files = nil
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
func (p *pageFiles) ColdCache() error {
	for _, bp := range p.pools {
		if err := bp.Reset(); err != nil {
			return err
		}
	}
	for _, pf := range p.files {
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
func (p *pageFiles) IOStats() storage.Stats {
	var s storage.Stats
	for _, pf := range p.files {
		s.Add(pf.Stats())
	}
	return s
}

// DILListBytes returns the encoded byte size of the term's DIL list (used
// for DIL cost estimation in the HDIL adaptive strategy).
func (ix *Index) DILListBytes(term string) int64 {
	return int64(locOf(ix.dil.refs[term]).Bytes)
}

// DILCount returns the number of entries in the term's DIL list.
func (ix *Index) DILCount(term string) int { return int(locOf(ix.dil.refs[term]).Count) }

// ListCursor decodes a Dewey-family list sequentially, block by block.
type ListCursor struct {
	blk *blockCursor
}

// Next returns the list's next posting, or ok=false at its end. The
// posting, its ID and its posList are only valid until the following
// Next or Close.
func (lc *ListCursor) Next() (*Posting, bool, error) { return lc.blk.next() }

// Count returns the total number of entries in the list.
func (lc *ListCursor) Count() int { return int(lc.blk.count) }

// Exhausted reports whether the cursor consumed the entire list (blocks
// dropped by a skip call count as consumed).
func (lc *ListCursor) Exhausted() bool { return lc.blk.exhausted() }

// Close releases pinned pages. Safe to call multiple times.
func (lc *ListCursor) Close() { lc.blk.close() }

// SkipBlocksBelowDoc drops every not-yet-loaded block whose entries all
// belong to documents before doc, without reading them. The caller owns
// the exactness argument (see the doc-leapfrog reasoning in
// internal/query/merge.go).
func (lc *ListCursor) SkipBlocksBelowDoc(doc uint32) { lc.blk.skipBlocksBelowDoc(doc) }

// SkipRemainingBlocks drops every not-yet-loaded block — the consumer
// proved it will not read further (threshold-algorithm stop, top-m
// cutoff).
func (lc *ListCursor) SkipRemainingBlocks() { lc.blk.skipRemainingBlocks() }

// RemainingBlockRefs returns the skip refs of the blocks not yet loaded.
// Debug/test instrumentation: the pruning-soundness check inspects what a
// skip call is about to drop.
func (lc *ListCursor) RemainingBlockRefs() []BlockRef { return lc.blk.refs[lc.blk.bi:] }

// RankRun is a run of entries a cursor has yet to return, all in one
// block and so all ranked at most the block's MaxRank.
type RankRun struct {
	N       int
	MaxRank float32
}

// AppendRankRuns appends the runs the cursor has yet to return, in list
// order: the rest of the loaded block, then every block not yet loaded
// (the last one cut where a rank prefix ends). On a rank-ordered list
// the MaxRanks never rise. It reads skip refs only, so it does no I/O.
func (lc *ListCursor) AppendRankRuns(dst []RankRun) []RankRun {
	c := lc.blk
	if c.inBlock() {
		dst = append(dst, RankRun{N: c.dec.n - c.dec.decoded(), MaxRank: c.refs[c.bi-1].MaxRank})
	}
	for i := c.bi; i < len(c.refs); i++ {
		n := int(c.refs[i].Count)
		if c.lastN > 0 && i == len(c.refs)-1 {
			n = c.lastN
		}
		dst = append(dst, RankRun{N: n, MaxRank: c.refs[i].MaxRank})
	}
	return dst
}

// AppendRunRanks appends the ranks of the entries of run j of
// AppendRankRuns, read out of band: the cursor's position is untouched.
// The block's page access and its entries, stepped for their ranks
// alone, are charged to the cursor's ExecContext.
func (lc *ListCursor) AppendRunRanks(dst []float32, j int) ([]float32, error) {
	c := lc.blk
	ri, skip := c.bi+j, 0
	if c.inBlock() {
		if ri--; j == 0 {
			skip = c.dec.decoded()
		}
	}
	n := int(c.refs[ri].Count)
	if c.lastN > 0 && ri == len(c.refs)-1 {
		n = c.lastN
	}
	dec := decoders.Get().(*blockDecoder)
	defer decoders.Put(dec)
	fr, err := openBlock(c.pool, c.ec, &c.refs[ri], false, dec)
	if err != nil {
		return dst, err
	}
	defer fr.Release()
	defer func() { c.ec.CountPostings(int64(dec.stepped), int64(dec.stepped)) }()
	for dec.stepped < n {
		if ok, err := dec.step(); err != nil || !ok {
			return dst, err
		}
		if dec.stepped > skip {
			dst = append(dst, dec.rank())
		}
	}
	return dst, nil
}

// DecodeBlockMaxRank decodes ref's block out-of-band (its own page pin,
// no cursor state touched) and returns the true maximum rank among its
// entries. Debug/test instrumentation for the pruning-soundness check.
func (lc *ListCursor) DecodeBlockMaxRank(ref BlockRef) (float32, error) {
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

// HDILRankCursorExec returns the rank-ordered *prefix* scan of the
// term's list, the first Meta.RankPrefixLen entries of its RDIL list,
// under a per-query execution context (nil for none).
func (ix *Index) HDILRankCursorExec(ec *storage.ExecContext, term string) (*ListCursor, bool) {
	refs, ok := ix.rdil.refs[term]
	if !ok {
		return nil, false
	}
	n := ix.Meta.RankPrefixLen(int(locOf(refs).Count))
	refs, last := rankPrefix(refs, n)
	return &ListCursor{blk: &blockCursor{pool: ix.rdil.pool, refs: refs, count: uint32(n), lastN: last, ec: ec}}, true
}
