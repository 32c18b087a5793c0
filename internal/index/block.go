package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"xrank/internal/dewey"
	"xrank/internal/storage"
)

// Block-encoded postings (format 2).
//
// Instead of one length-prefixed entry per posting, a format-2 Dewey
// list packs up to blockMaxEntries postings into one postings-file
// entry (a "block"). Within a block every posting after the first is
// delta-coded against its predecessor (the AppendDeweyEntryCompressed
// wire format), and blocks never span pages, so any block is decodable
// from its single page without context. A per-term skip index — built
// alongside the lexicon and loaded fully into memory at Open — records
// each block's location, entry count, byte length, maximum ElemRank and
// first/last Dewey ID, which is what lets query loops skip whole blocks
// (by document range, or the remainder of a rank-ordered list once the
// threshold algorithm's stop condition holds) without reading them.
//
// Block body layout (the bytes after the postings-file length prefix):
//
//	u16 count
//	count × compressed dewey entry (u16 len, u8 lcp, uvarint suffixLen,
//	        suffix, f32 rank, posList) — the first entry has lcp 0 and
//	        carries the full ID
const (
	// BlockPostingsFormat is Meta.PostingsFormat for block-encoded
	// directories. Zero (or absent) is the per-entry v1 format.
	BlockPostingsFormat = 2

	// blockMaxEntries caps postings per block. 128 keeps the decode unit
	// small enough that partially-needed blocks cost little, while the
	// skip index stays ~1/128th of the list.
	blockMaxEntries = 128

	// blockBodyLimit is the largest block body that still fits in one
	// page alongside its length prefix.
	blockBodyLimit = storage.PageSize - entryLenSize
)

// BlockRef summarizes one block for the skip index. FirstID/LastID hold
// the order-preserving Dewey encodings of the block's first and last
// posting, so range tests are zero-copy byte comparisons.
type BlockRef struct {
	Page    storage.PageID
	Off     uint16
	Count   uint16
	Bytes   uint16 // body length (the postings-file entry's u16 length value)
	MaxRank float32
	FirstID []byte
	LastID  []byte
	// LastDoc is the document (first Dewey component) of LastID, derived
	// at build/load time: the doc-range skip test needs it without
	// decoding.
	LastDoc uint32
}

// blockReader iterates the entries of one block body.
type blockReader struct {
	body []byte
	n    int
	i    int
	prev dewey.ID
}

func (r *blockReader) init(body []byte) error {
	if len(body) < 2 {
		return fmt.Errorf("index: %w block body too short", storage.ErrCorrupt)
	}
	r.n = int(binary.LittleEndian.Uint16(body))
	r.body = body[2:]
	r.i = 0
	r.prev = r.prev[:0]
	return nil
}

func (r *blockReader) next(p *Posting) (bool, error) {
	if r.i >= r.n {
		if len(r.body) != 0 {
			return false, fmt.Errorf("index: %w block has %d trailing bytes after %d entries",
				storage.ErrCorrupt, len(r.body), r.n)
		}
		return false, nil
	}
	if len(r.body) < entryLenSize {
		return false, fmt.Errorf("index: %w block truncated at entry %d/%d", storage.ErrCorrupt, r.i, r.n)
	}
	ln := int(binary.LittleEndian.Uint16(r.body))
	if ln == padEntry || entryLenSize+ln > len(r.body) {
		return false, fmt.Errorf("index: %w block entry %d/%d has bad length %d",
			storage.ErrCorrupt, r.i, r.n, ln)
	}
	if err := DecodeDeweyEntryCompressed(r.body[entryLenSize:entryLenSize+ln], r.prev, p); err != nil {
		return false, err
	}
	r.prev = append(r.prev[:0], p.ID...)
	r.body = r.body[entryLenSize+ln:]
	r.i++
	return true, nil
}

// encodeBlock builds a standalone block body from posts (tests and fuzz
// seeds; the build path encodes incrementally via blockListWriter).
func encodeBlock(posts []Posting) []byte {
	out := binary.LittleEndian.AppendUint16(nil, uint16(len(posts)))
	var prev dewey.ID
	for i := range posts {
		out = AppendDeweyEntryCompressed(out, prev, posts[i].ID, posts[i].Rank, posts[i].Positions)
		prev = posts[i].ID
	}
	return out
}

// blockListWriter streams one term's postings into blocks through a
// postWriter, accumulating the skip refs and HDIL page boundaries.
type blockListWriter struct {
	w *postWriter

	body    []byte // current block: u16 length patch, u16 count patch, entries
	n       int
	prev    dewey.ID
	first   []byte
	last    []byte
	lastDoc uint32
	maxRank float32

	refs     []BlockRef
	bounds   []pageBoundary
	lastPage storage.PageID
	loc      Loc
	scratch  []byte
}

func newBlockListWriter(w *postWriter) *blockListWriter {
	return &blockListWriter{w: w, lastPage: storage.InvalidPage}
}

func (bw *blockListWriter) add(id dewey.ID, rank float32, positions []uint32) error {
	if bw.n > 0 {
		bw.scratch = AppendDeweyEntryCompressed(bw.scratch[:0], bw.prev, id, rank, positions)
		if bw.n >= blockMaxEntries || len(bw.body)+len(bw.scratch) > storage.PageSize {
			if err := bw.flushBlock(); err != nil {
				return err
			}
		}
	}
	if bw.n == 0 {
		// First entry of a block is self-contained.
		bw.scratch = AppendDeweyEntryCompressed(bw.scratch[:0], nil, id, rank, positions)
		if entryLenSize+2+len(bw.scratch) > storage.PageSize {
			return fmt.Errorf("index: posting of %d bytes exceeds page size", len(bw.scratch))
		}
		bw.body = append(bw.body[:0], 0, 0, 0, 0) // length + count patch slots
		bw.first = dewey.Append(bw.first[:0], id)
		bw.maxRank = rank
	}
	bw.body = append(bw.body, bw.scratch...)
	if rank > bw.maxRank {
		bw.maxRank = rank
	}
	bw.last = dewey.Append(bw.last[:0], id)
	bw.lastDoc = id.Doc()
	bw.prev = append(bw.prev[:0], id...)
	bw.n++
	return nil
}

func (bw *blockListWriter) flushBlock() error {
	if bw.n == 0 {
		return nil
	}
	binary.LittleEndian.PutUint16(bw.body, uint16(len(bw.body)-entryLenSize))
	binary.LittleEndian.PutUint16(bw.body[entryLenSize:], uint16(bw.n))
	page, off, err := bw.w.writeEntry(bw.body)
	if err != nil {
		return err
	}
	if len(bw.refs) == 0 {
		bw.loc.Page, bw.loc.Off = page, off
	}
	if page != bw.lastPage {
		bw.bounds = append(bw.bounds, pageBoundary{page: page, firstKey: append([]byte(nil), bw.first...)})
		bw.lastPage = page
	}
	bw.refs = append(bw.refs, BlockRef{
		Page:    page,
		Off:     off,
		Count:   uint16(bw.n),
		Bytes:   uint16(len(bw.body) - entryLenSize),
		MaxRank: bw.maxRank,
		FirstID: append([]byte(nil), bw.first...),
		LastID:  append([]byte(nil), bw.last...),
		LastDoc: bw.lastDoc,
	})
	bw.loc.Bytes += uint32(len(bw.body))
	bw.loc.Count += uint32(bw.n)
	bw.n = 0
	return nil
}

func (bw *blockListWriter) finish() (Loc, []pageBoundary, []BlockRef, error) {
	if err := bw.flushBlock(); err != nil {
		return Loc{}, nil, nil, err
	}
	return bw.loc, bw.bounds, bw.refs, nil
}

// Skip-index file format ("XSKP"):
//
//	u32 magic, u32 version, u32 nTerms
//	per term (lexicon order): u16 termLen, term, u32 nBlocks
//	per block: u32 page, u16 off, u16 count, u16 bytes, f32 maxRank,
//	           u16 firstLen, firstID, u16 lastLen, lastID
const (
	skipMagic   = 0x504B5358 // "XSKP" little-endian
	skipVersion = 1
)

// writeSkipIndex persists the per-term block refs with the atomic write
// protocol, returning the file's size and checksum for meta.json.
func writeSkipIndex(fs storage.FS, path string, terms []string, refs map[string][]BlockRef) (storage.FileSum, error) {
	out := make([]byte, 0, 12+len(terms)*64)
	out = binary.LittleEndian.AppendUint32(out, skipMagic)
	out = binary.LittleEndian.AppendUint32(out, skipVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(terms)))
	for _, t := range terms {
		if len(t) > 0xFFFF {
			return storage.FileSum{}, fmt.Errorf("index: term too long (%d bytes)", len(t))
		}
		out = binary.LittleEndian.AppendUint16(out, uint16(len(t)))
		out = append(out, t...)
		rs := refs[t]
		out = binary.LittleEndian.AppendUint32(out, uint32(len(rs)))
		for i := range rs {
			r := &rs[i]
			out = binary.LittleEndian.AppendUint32(out, uint32(r.Page))
			out = binary.LittleEndian.AppendUint16(out, r.Off)
			out = binary.LittleEndian.AppendUint16(out, r.Count)
			out = binary.LittleEndian.AppendUint16(out, r.Bytes)
			out = binary.LittleEndian.AppendUint32(out, math.Float32bits(r.MaxRank))
			out = binary.LittleEndian.AppendUint16(out, uint16(len(r.FirstID)))
			out = append(out, r.FirstID...)
			out = binary.LittleEndian.AppendUint16(out, uint16(len(r.LastID)))
			out = append(out, r.LastID...)
		}
	}
	if err := storage.WriteFileAtomic(fs, path, out); err != nil {
		return storage.FileSum{}, fmt.Errorf("index: write skip index %s: %w", path, err)
	}
	return storage.FileSum{Size: int64(len(out)), CRC32: storage.Checksum(out)}, nil
}

// decodeSkipIndex parses a skip-index file, validating every structural
// invariant a cursor later relies on; damage is reported as a
// storage.ErrCorrupt-wrapping error, never as wrong refs. ordered states
// the underlying list's sort order: Dewey-ordered lists (dil.post) must
// have non-decreasing IDs across and within blocks — the invariant the
// document-range skip and the block prober rely on — while rank-ordered
// lists (rdil.post, hdil.rank) must instead have non-increasing block
// MaxRanks, the invariant the threshold-stop skip relies on.
func decodeSkipIndex(b []byte, ordered bool) (map[string][]BlockRef, error) {
	corrupt := func(format string, args ...any) error {
		return fmt.Errorf("index: %w skip index: %s", storage.ErrCorrupt, fmt.Sprintf(format, args...))
	}
	if len(b) < 12 {
		return nil, corrupt("truncated header")
	}
	if binary.LittleEndian.Uint32(b) != skipMagic {
		return nil, corrupt("bad magic")
	}
	if v := binary.LittleEndian.Uint32(b[4:]); v != skipVersion {
		return nil, corrupt("version %d, this build understands %d", v, skipVersion)
	}
	nTerms := binary.LittleEndian.Uint32(b[8:])
	b = b[12:]
	need := func(n int) bool { return len(b) >= n }
	// Counts are attacker-controlled until proven against the remaining
	// bytes — never preallocate from them (a fabricated 4G count would
	// balloon memory before the truncation check fires).
	out := make(map[string][]BlockRef, min(int(nTerms), 1024))
	for ti := uint32(0); ti < nTerms; ti++ {
		if !need(2) {
			return nil, corrupt("truncated at term %d", ti)
		}
		tl := int(binary.LittleEndian.Uint16(b))
		b = b[2:]
		if !need(tl + 4) {
			return nil, corrupt("truncated term %d", ti)
		}
		term := string(b[:tl])
		b = b[tl:]
		nBlocks := binary.LittleEndian.Uint32(b)
		b = b[4:]
		if nBlocks == 0 {
			return nil, corrupt("term %q has zero blocks", term)
		}
		refs := make([]BlockRef, 0, min(int(nBlocks), 1024))
		var prevLast []byte
		for bi := uint32(0); bi < nBlocks; bi++ {
			if !need(16) {
				return nil, corrupt("term %q: truncated block %d", term, bi)
			}
			r := BlockRef{
				Page:    storage.PageID(binary.LittleEndian.Uint32(b)),
				Off:     binary.LittleEndian.Uint16(b[4:]),
				Count:   binary.LittleEndian.Uint16(b[6:]),
				Bytes:   binary.LittleEndian.Uint16(b[8:]),
				MaxRank: math.Float32frombits(binary.LittleEndian.Uint32(b[10:])),
			}
			fl := int(binary.LittleEndian.Uint16(b[14:]))
			b = b[16:]
			if !need(fl + 2) {
				return nil, corrupt("term %q block %d: truncated first ID", term, bi)
			}
			r.FirstID = append([]byte(nil), b[:fl]...)
			b = b[fl:]
			ll := int(binary.LittleEndian.Uint16(b))
			b = b[2:]
			if !need(ll) {
				return nil, corrupt("term %q block %d: truncated last ID", term, bi)
			}
			r.LastID = append([]byte(nil), b[:ll]...)
			b = b[ll:]
			if r.Count == 0 || len(r.FirstID) == 0 || len(r.LastID) == 0 {
				return nil, corrupt("term %q block %d: empty block or ID", term, bi)
			}
			if int(r.Off)+entryLenSize+int(r.Bytes) > storage.PageSize {
				return nil, corrupt("term %q block %d: spans page boundary", term, bi)
			}
			if ordered {
				if bytes.Compare(r.FirstID, r.LastID) > 0 {
					return nil, corrupt("term %q block %d: first ID after last ID", term, bi)
				}
				if prevLast != nil && bytes.Compare(prevLast, r.FirstID) > 0 {
					return nil, corrupt("term %q block %d: refs out of order", term, bi)
				}
			} else if bi > 0 && r.MaxRank > refs[bi-1].MaxRank {
				return nil, corrupt("term %q block %d: max rank rises in a rank-ordered list", term, bi)
			}
			prevLast = r.LastID
			last, err := dewey.Decode(r.LastID)
			if err != nil {
				return nil, corrupt("term %q block %d: last ID: %v", term, bi, err)
			}
			if _, err := dewey.Decode(r.FirstID); err != nil {
				return nil, corrupt("term %q block %d: first ID: %v", term, bi, err)
			}
			r.LastDoc = last.Doc()
			refs = append(refs, r)
		}
		out[term] = refs
	}
	if len(b) != 0 {
		return nil, corrupt("%d trailing bytes", len(b))
	}
	return out, nil
}

func readSkipIndex(fs storage.FS, path string, ordered bool) (map[string][]BlockRef, error) {
	b, err := storage.DefaultFS(fs).ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("index: open skip index: %w", err)
	}
	refs, err := decodeSkipIndex(b, ordered)
	if err != nil {
		return nil, fmt.Errorf("%w (%s)", err, path)
	}
	return refs, nil
}

// blockBody pins ref's page and returns the block body, cross-checking
// the on-page length prefix against the skip ref (the cheap structural
// guard that catches a skip index pointing into the wrong bytes).
// Callers release fr after they finish with the body.
func blockBody(pool *storage.BufferPool, ec *storage.ExecContext, ref *BlockRef, scan bool) (*storage.Frame, []byte, error) {
	fr, err := getPage(pool, ec, ref.Page, scan)
	if err != nil {
		return nil, nil, err
	}
	off := int(ref.Off)
	if off+entryLenSize > storage.PageSize {
		fr.Release()
		return nil, nil, fmt.Errorf("index: %w block ref beyond page %d", storage.ErrCorrupt, ref.Page)
	}
	ln := int(binary.LittleEndian.Uint16(fr.Data[off:]))
	if ln != int(ref.Bytes) || off+entryLenSize+ln > storage.PageSize {
		fr.Release()
		return nil, nil, fmt.Errorf("index: %w block at page %d off %d: length %d does not match skip ref %d",
			storage.ErrCorrupt, ref.Page, ref.Off, ln, ref.Bytes)
	}
	ec.CountBlocks(1, 0)
	return fr, fr.Data[off+entryLenSize : off+entryLenSize+ln], nil
}

// blockCursor iterates a block-encoded list through its in-memory skip
// refs, one pinned page at a time. It is the format-2 counterpart of
// postCursor + per-entry decode, with two extra moves the v1 cursor
// cannot make: dropping every not-yet-loaded block whose document range
// ends before a target doc, and dropping the whole remainder of the
// list once a rank-ordered consumer's stop condition holds.
type blockCursor struct {
	pool  *storage.BufferPool
	ec    *storage.ExecContext
	scan  bool // full-list scan: pages enter the pool cold
	refs  []BlockRef
	count uint32 // total entries across all blocks

	bi    int // next ref to load
	frame *storage.Frame
	rd    blockReader
	told  int // entries of the loaded block already reported to ec.CountPostings
	post  Posting
}

func newBlockCursor(pool *storage.BufferPool, refs []BlockRef, count uint32, ec *storage.ExecContext, scan bool) *blockCursor {
	return &blockCursor{pool: pool, refs: refs, count: count, ec: ec, scan: scan}
}

func (c *blockCursor) next() (*Posting, bool, error) {
	for c.rd.i >= c.rd.n {
		if c.bi >= len(c.refs) {
			c.close()
			return nil, false, nil
		}
		if err := c.loadBlock(&c.refs[c.bi]); err != nil {
			c.close()
			return nil, false, err
		}
		c.bi++
	}
	if _, err := c.rd.next(&c.post); err != nil {
		c.close()
		return nil, false, err
	}
	return &c.post, true, nil
}

func (c *blockCursor) loadBlock(ref *BlockRef) error {
	c.close()
	fr, body, err := blockBody(c.pool, c.ec, ref, c.scan)
	if err != nil {
		return err
	}
	c.told = 0
	if err := c.rd.init(body); err != nil {
		fr.Release()
		return err
	}
	if c.rd.n != int(ref.Count) {
		fr.Release()
		return fmt.Errorf("index: %w block at page %d off %d: %d entries, skip ref says %d",
			storage.ErrCorrupt, ref.Page, ref.Off, c.rd.n, ref.Count)
	}
	c.frame = fr
	return nil
}

// skipBlocksBelowDoc drops every not-yet-loaded block whose entries all
// belong to documents before doc. The current (loaded) block is never
// touched — its remaining entries drain entry-wise, bounded by the
// block size. Idempotent; callers are responsible for only invoking it
// when the dropped entries provably cannot contribute.
func (c *blockCursor) skipBlocksBelowDoc(doc uint32) {
	n := int64(0)
	for c.bi < len(c.refs) && c.refs[c.bi].LastDoc < doc {
		c.bi++
		n++
	}
	if n > 0 {
		c.ec.CountBlocks(0, n)
	}
}

// skipRemainingBlocks drops every not-yet-loaded block (a threshold-
// algorithm stop or a top-m cutoff made the rest of the list dead).
func (c *blockCursor) skipRemainingBlocks() {
	if n := int64(len(c.refs) - c.bi); n > 0 {
		c.ec.CountBlocks(0, n)
		c.bi = len(c.refs)
	}
}

func (c *blockCursor) exhausted() bool {
	return c.bi >= len(c.refs) && c.rd.i >= c.rd.n
}

// close releases the pinned page and reports the entries decoded since
// the last report (once per block, so the entry loop stays lock-free).
// Safe to call repeatedly.
func (c *blockCursor) close() {
	if c.frame != nil {
		c.frame.Release()
		c.frame = nil
	}
	c.ec.CountPostings(int64(c.rd.i - c.told))
	c.told = c.rd.i
}
