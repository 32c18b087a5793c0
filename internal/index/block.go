package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"

	"xrank/internal/dewey"
	"xrank/internal/storage"
)

// The postings format.
//
// Both Dewey-family lists (dil.post, rdil.post) pack up to
// blockMaxEntries postings into one postings-file entry (a "block").
// Within a block every posting after the first is delta-coded against
// its predecessor (the AppendDeweyEntryCompressed wire format), and
// blocks never span pages, so any block is decodable from its single
// page without context. A per-term skip index — loaded fully into memory
// at Open — records each block's location, entry count, byte length,
// maximum ElemRank and first/last Dewey ID. That sparse index is the only
// Dewey-side access structure and per-term metadata (locOf): query loops
// skip whole blocks with it (by document range, or the remainder of a
// rank-ordered list once the threshold algorithm's stop condition holds),
// and RDIL's and HDIL's Dewey probes binary-search dil.skip where the
// paper descends a B+-tree (see Prober).
//
// Block body layout (the bytes after the postings-file length prefix):
//
//	u16 count
//	count × compressed dewey entry (u16 len, u8 lcp, uvarint suffixLen,
//	        suffix, f32 rank, posList) — the first entry has lcp 0 and
//	        carries the full ID
const (
	// PostingsFormat is the Meta.PostingsFormat of every directory this
	// build writes, and the only one Open accepts: block lists plus skip
	// indexes, no B+-trees. Retired formats are 0 (per-entry lists, with
	// or without compress_dewey) and 2 (block lists beside rdil.btree and
	// hdil.btree).
	PostingsFormat = 3

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

// locOf derives a list's entry count and encoded bytes (with length
// prefixes) from its skip refs; Page and Off stay zero.
func locOf(refs []BlockRef) Loc {
	var loc Loc
	for i := range refs {
		loc.Count += uint32(refs[i].Count)
		loc.Bytes += uint32(refs[i].Bytes) + entryLenSize
	}
	return loc
}

// rankPrefix returns the refs of the blocks holding a list's first n
// entries, and how many of the last one's entries are among them.
func rankPrefix(refs []BlockRef, n int) ([]BlockRef, int) {
	for i := range refs {
		c := int(refs[i].Count)
		if n <= c {
			return refs[:i+1], n
		}
		n -= c
	}
	return refs, 0
}

// blockDecoder is the one decoder of block bodies. It reads a block in
// one of two ways, never both:
//
//   - next decodes entries into reusable columnar buffers — every entry's
//     full Dewey ID back to back in comps, its rank, its posList back to
//     back in pos — so a decoded entry is read as a view (at) that stays
//     valid until the next init, and the ID prefix an entry shares with
//     its predecessor is copied once, within comps. Cursors read this way.
//   - step reads only the following entry's Dewey ID, extending id in
//     place, and leaves its rank and posList undecoded until posting asks
//     for them. Probes read this way: they compare IDs, and return few of
//     the entries they pass.
//
// Both parse an entry's layout with head. Entries are read on demand, so
// a consumer that stops early, like a probe, pays only for what it reads.
type blockDecoder struct {
	body  []byte // the entries, after the count
	rd    int    // offset in body of the next entry
	n     int    // entries in the block
	comps []uint32
	ranks []float32
	pos   []uint32
	// Entry i's ID is comps[off[i].id:off[i+1].id] and its posList
	// pos[off[i].pos:off[i+1].pos].
	off []entryOff

	// h is the head of the entry last read. The stepping state is the
	// last stepped entry's ID, the number of entries stepped and how many
	// of those posting decoded.
	h       entryHead
	id      dewey.ID
	stepped int
	posted  int
}

type entryOff struct{ id, pos int32 }

// entryHead locates the parts of one entry (the AppendDeweyEntryCompressed
// layout) as offsets into the block body.
type entryHead struct {
	lcp       int // ID components shared with the previous entry
	suffix    int // the encoded ID suffix, up to rank
	rank      int // the 4 rank bytes
	positions int // the encoded posList, up to end
	nPos      int // its length
	end       int // where the next entry starts
}

// init starts decoding a block body.
func (d *blockDecoder) init(body []byte) error {
	d.comps, d.ranks, d.pos = d.comps[:0], d.ranks[:0], d.pos[:0]
	d.off = append(d.off[:0], entryOff{})
	d.id, d.stepped, d.posted = d.id[:0], 0, 0
	d.n, d.body, d.rd = 0, nil, 0
	if len(body) < 2 {
		return fmt.Errorf("index: %w block body too short", storage.ErrCorrupt)
	}
	d.n = int(binary.LittleEndian.Uint16(body))
	d.body = body[2:]
	// Size the per-entry columns for the whole block, and the others for
	// one position and one component per entry, so a cursor's buffers
	// reach their working size in a few steps. The count is trusted only
	// as far as the body could hold that many entries.
	n := min(d.n, len(body)/minBlockEntry)
	d.ranks = slices.Grow(d.ranks, n)
	d.off = slices.Grow(d.off, n)
	d.pos = slices.Grow(d.pos, n)
	d.comps = slices.Grow(d.comps, n)
	return nil
}

// minBlockEntry is the smallest encoded entry: length prefix, lcp, suffix
// length, rank and posList count.
const minBlockEntry = entryLenSize + 1 + 1 + 4 + 1

// decoded is the number of entries decoded so far.
func (d *blockDecoder) decoded() int { return len(d.ranks) }

// head parses entry i, the next one, into h; ok is false once all n
// entries are read. It checks the entry's length prefix against the body,
// its lcp against prevLen (the components of its predecessor's ID), that
// its ID suffix and rank are present, and that its posList count fits the
// bytes left, every position taking at least one byte. It reads neither
// the suffix, nor the rank, nor the positions.
func (d *blockDecoder) head(i, prevLen int) (ok bool, err error) {
	b := d.body[d.rd:]
	if i >= d.n {
		if len(b) != 0 {
			return false, fmt.Errorf("index: %w block has %d trailing bytes after %d entries",
				storage.ErrCorrupt, len(b), d.n)
		}
		return false, nil
	}
	if len(b) < entryLenSize {
		return false, fmt.Errorf("index: %w block truncated at entry %d/%d", storage.ErrCorrupt, i, d.n)
	}
	ln := int(binary.LittleEndian.Uint16(b))
	if ln == padEntry || entryLenSize+ln > len(b) {
		return false, fmt.Errorf("index: %w block entry %d/%d has bad length %d",
			storage.ErrCorrupt, i, d.n, ln)
	}
	e := b[entryLenSize : entryLenSize+ln]
	if len(e) < 2 {
		return false, d.entryErr(i, fmt.Errorf("compressed dewey entry too short"))
	}
	lcp := int(e[0])
	// The suffix length and the posList count are uvarints, nearly always
	// of one byte: that case is read inline.
	sl, k := uint64(e[1]), 1
	if sl >= 0x80 {
		if sl, k = binary.Uvarint(e[1:]); k <= 0 {
			return false, d.entryErr(i, fmt.Errorf("compressed dewey entry suffix length corrupt"))
		}
	}
	if lcp > prevLen {
		return false, d.entryErr(i, fmt.Errorf("compressed entry lcp %d exceeds previous ID length %d", lcp, prevLen))
	}
	suffix := 1 + k
	if sl > uint64(len(e)-suffix) || len(e)-suffix-int(sl) < 4 {
		return false, d.entryErr(i, fmt.Errorf("compressed dewey entry truncated"))
	}
	rank := suffix + int(sl)
	if rank+4 == len(e) {
		return false, d.entryErr(i, fmt.Errorf("posList count missing"))
	}
	nPos, k := uint64(e[rank+4]), 1
	if nPos >= 0x80 {
		if nPos, k = binary.Uvarint(e[rank+4:]); k <= 0 {
			return false, d.entryErr(i, fmt.Errorf("posList count corrupt"))
		}
	}
	positions := rank + 4 + k
	if nPos > uint64(len(e)-positions) {
		return false, d.entryErr(i, fmt.Errorf("posList of %d positions in %d bytes", nPos, len(e)-positions))
	}
	base := d.rd + entryLenSize
	d.h = entryHead{lcp: lcp, suffix: base + suffix, rank: base + rank,
		positions: base + positions, nPos: int(nPos), end: base + ln}
	return true, nil
}

// entryErr reports that entry i is corrupt.
func (d *blockDecoder) entryErr(i int, err error) error {
	return fmt.Errorf("index: %w block entry %d/%d: %v", storage.ErrCorrupt, i, d.n, err)
}

// next decodes the following entry, returning false once all n are. A
// failed entry leaves no partial state visible: decoded() is unchanged.
func (d *blockDecoder) next() (bool, error) {
	i := len(d.ranks)
	prevStart := 0
	if i > 0 {
		prevStart = int(d.off[i-1].id)
	}
	if ok, err := d.head(i, int(d.off[i].id)-prevStart); err != nil || !ok {
		return false, err
	}
	if err := d.entry(prevStart); err != nil {
		d.comps, d.pos = d.comps[:d.off[i].id], d.pos[:d.off[i].pos]
		return false, d.entryErr(i, err)
	}
	d.rd = d.h.end
	return true, nil
}

// entry decodes the entry whose head is h onto the columns, its ID prefix
// copied from the previous entry's, which starts at comps[prevStart].
func (d *blockDecoder) entry(prevStart int) error {
	h := &d.h
	end := len(d.comps)
	d.comps = slices.Grow(d.comps, h.lcp)[:end+h.lcp]
	for j := range h.lcp { // a few components: cheaper than a memmove call
		d.comps[end+j] = d.comps[prevStart+j]
	}
	var err error
	if d.comps, err = dewey.AppendDecoded(d.comps, d.body[h.suffix:h.rank]); err != nil {
		return err
	}
	if d.pos, err = appendPosList(d.pos, h.nPos, d.body[h.positions:h.end]); err != nil {
		return err
	}
	d.ranks = append(d.ranks, math.Float32frombits(binary.LittleEndian.Uint32(d.body[h.rank:])))
	d.off = append(d.off, entryOff{int32(len(d.comps)), int32(len(d.pos))})
	return nil
}

// step reads the following entry's Dewey ID into id, returning false once
// all n entries are read. It makes every check next makes on the bytes it
// reads and skips the rank and posList by the entry's length. Callers stop
// at the first error.
func (d *blockDecoder) step() (bool, error) {
	ok, err := d.head(d.stepped, len(d.id))
	if err != nil || !ok {
		return false, err
	}
	if d.id, err = dewey.AppendDecoded(d.id[:d.h.lcp], d.body[d.h.suffix:d.h.rank]); err != nil {
		return false, d.entryErr(d.stepped, err)
	}
	d.rd = d.h.end
	d.stepped++
	return true, nil
}

// posting points p at the last stepped entry, decoding its rank and
// posList now. The ID and posList are capacity-capped views that stay
// valid until the next step.
func (d *blockDecoder) posting(p *Posting) error {
	h := &d.h
	var err error
	if d.pos, err = appendPosList(d.pos[:0], h.nPos, d.body[h.positions:h.end]); err != nil {
		return d.entryErr(d.stepped-1, err)
	}
	p.ID = d.id[:len(d.id):len(d.id)]
	p.Positions = d.pos[:len(d.pos):len(d.pos)]
	p.Rank = d.rank()
	p.Elem = -1
	d.posted++
	return nil
}

// rank decodes the last stepped entry's rank alone.
func (d *blockDecoder) rank() float32 {
	return math.Float32frombits(binary.LittleEndian.Uint32(d.body[d.h.rank:]))
}

// appendPosList decodes nPos delta-coded positions from e onto dst.
func appendPosList(dst []uint32, nPos int, e []byte) ([]uint32, error) {
	start := len(dst)
	dst = slices.Grow(dst, nPos)[:start+nPos]
	ps := dst[start:]
	// Deltas accumulate in uint32: truncating the uint64 sum once, as
	// decodePositions does, gives the same value.
	prev := uint32(0)
	for j := range ps {
		if len(e) > 0 && e[0] < 0x80 {
			prev += uint32(e[0])
			e = e[1:]
		} else if len(e) > 1 && e[1] < 0x80 { // a posList's first, absolute position
			prev += uint32(e[0]&0x7F) | uint32(e[1])<<7
			e = e[2:]
		} else {
			delta, k := binary.Uvarint(e)
			if k <= 0 {
				return dst[:start], fmt.Errorf("posList truncated at %d/%d", j, nPos)
			}
			prev += uint32(delta)
			e = e[k:]
		}
		ps[j] = prev
	}
	return dst, nil
}

// at points p at decoded entry i. The ID and posList are views into the
// columns, capacity-capped so an append by the caller cannot overwrite a
// neighbour; they stay valid until the decoder is started on another
// block or handed back to decoders.
func (d *blockDecoder) at(i int, p *Posting) {
	a, b := d.off[i], d.off[i+1]
	p.ID = dewey.ID(d.comps[a.id:b.id:b.id])
	p.Positions = d.pos[a.pos:b.pos:b.pos]
	p.Rank = d.ranks[i]
	p.Elem = -1
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
// postWriter, accumulating the skip refs.
type blockListWriter struct {
	w *postWriter

	body    []byte // current block: u16 length patch, u16 count patch, entries
	n       int
	prev    dewey.ID
	first   []byte
	last    []byte
	lastDoc uint32
	maxRank float32

	refs    []BlockRef
	scratch []byte
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
	bw.n = 0
	return nil
}

func (bw *blockListWriter) finish() ([]BlockRef, error) {
	if err := bw.flushBlock(); err != nil {
		return nil, err
	}
	return bw.refs, nil
}

// Skip-index file format ("XSKP"):
//
//	u32 magic, u32 version, u32 nTerms
//	per term (sorted order): u16 termLen, term, u32 nBlocks
//	per block: u32 page, u16 off, u16 count, u16 bytes, f32 maxRank,
//	           u16 firstLen, firstID, u16 lastLen, lastID
const (
	skipMagic   = 0x504B5358 // "XSKP" little-endian
	skipVersion = 1
)

// encodeSkipIndex encodes the per-term block refs of terms in the
// skip-index file format.
func encodeSkipIndex(terms []string, refs map[string][]BlockRef) ([]byte, error) {
	out := make([]byte, 0, 12+len(terms)*64)
	out = binary.LittleEndian.AppendUint32(out, skipMagic)
	out = binary.LittleEndian.AppendUint32(out, skipVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(terms)))
	for _, t := range terms {
		if len(t) > 0xFFFF {
			return nil, fmt.Errorf("index: term too long (%d bytes)", len(t))
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
	return out, nil
}

// decodeSkipIndex parses a skip-index file, validating every structural
// invariant a cursor later relies on; damage is reported as a
// storage.ErrCorrupt-wrapping error, never as wrong refs. ordered states
// the underlying list's sort order: Dewey-ordered lists (dil.post) must
// have non-decreasing IDs across and within blocks — the invariant the
// document-range skip and the block prober rely on — while rank-ordered
// lists (rdil.post) must instead have non-increasing block MaxRanks, the
// invariant the threshold-stop skip relies on.
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

// openBlock pins ref's page and starts dec on the block body, checking
// the on-page length prefix and the entry count against the skip ref (the
// cheap structural guards that catch a skip index pointing into the wrong
// bytes). Callers release fr once they have finished with dec.
func openBlock(pool *storage.BufferPool, ec *storage.ExecContext, ref *BlockRef, scan bool, dec *blockDecoder) (*storage.Frame, error) {
	fr, err := getPage(pool, ec, ref.Page, scan)
	if err != nil {
		return nil, err
	}
	off := int(ref.Off)
	if off+entryLenSize > storage.PageSize {
		fr.Release()
		return nil, fmt.Errorf("index: %w block ref beyond page %d", storage.ErrCorrupt, ref.Page)
	}
	ln := int(binary.LittleEndian.Uint16(fr.Data[off:]))
	if ln != int(ref.Bytes) || off+entryLenSize+ln > storage.PageSize {
		fr.Release()
		return nil, fmt.Errorf("index: %w block at page %d off %d: length %d does not match skip ref %d",
			storage.ErrCorrupt, ref.Page, ref.Off, ln, ref.Bytes)
	}
	ec.CountBlocks(1, 0)
	if err := dec.init(fr.Data[off+entryLenSize : off+entryLenSize+ln]); err != nil {
		fr.Release()
		return nil, err
	}
	if dec.n != int(ref.Count) {
		n := dec.n
		dec.n = 0
		fr.Release()
		return nil, fmt.Errorf("index: %w block at page %d off %d: %d entries, skip ref says %d",
			storage.ErrCorrupt, ref.Page, ref.Off, n, ref.Count)
	}
	return fr, nil
}

// blockCursor iterates a block-encoded list through its in-memory skip
// refs, one pinned page at a time. Beyond a sequential scan it makes two
// moves the skip refs allow: dropping every not-yet-loaded block whose
// document range ends before a target doc, and dropping the whole
// remainder of the list once a rank-ordered consumer's stop condition
// holds.
type blockCursor struct {
	pool  *storage.BufferPool
	ec    *storage.ExecContext
	scan  bool // full-list scan: pages enter the pool cold
	refs  []BlockRef
	count uint32 // total entries across all blocks
	// lastN, when non-zero, caps the entries read from the last ref's
	// block: HDIL's rank prefix can end inside a block.
	lastN int

	bi int // next ref to load
	// frame pins the loaded block's page until the next load or close,
	// which keeps the buffer pool's replacement decisions — and so every
	// page count the HDIL estimator reads — independent of how the block
	// is decoded.
	frame *storage.Frame
	dec   *blockDecoder // from decoders while the cursor is open
	told  int           // entries of the loaded block already reported to ec.CountPostings
	post  Posting
}

// decoders recycles block decoders, whose columns grow to a block's size,
// across cursors and probes: a query opens several of each.
var decoders = sync.Pool{New: func() any { return new(blockDecoder) }}

// inBlock reports whether the loaded block has entries left.
func (c *blockCursor) inBlock() bool { return c.dec != nil && c.dec.decoded() < c.dec.n }

func (c *blockCursor) next() (*Posting, bool, error) {
	for !c.inBlock() {
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
	if _, err := c.dec.next(); err != nil {
		c.close()
		return nil, false, err
	}
	c.dec.at(c.dec.decoded()-1, &c.post)
	return &c.post, true, nil
}

// loadBlock pins ref's page and starts decoding its block.
func (c *blockCursor) loadBlock(ref *BlockRef) error {
	c.unpin()
	if c.dec == nil {
		c.dec = decoders.Get().(*blockDecoder)
	}
	fr, err := openBlock(c.pool, c.ec, ref, c.scan, c.dec)
	c.told = c.dec.decoded() // 0 unless the page could not be read
	if err != nil {
		return err
	}
	if c.lastN > 0 && c.bi == len(c.refs)-1 {
		c.dec.n = c.lastN // the cursor ends here, never asking for more
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
	return c.bi >= len(c.refs) && !c.inBlock()
}

// unpin releases the pinned page and reports the entries decoded since
// the last report (once per block, so the entry loop stays lock-free).
func (c *blockCursor) unpin() {
	if c.frame != nil {
		c.frame.Release()
		c.frame = nil
	}
	if c.dec != nil {
		c.ec.CountPostings(int64(c.dec.decoded()-c.told), 0)
		c.told = c.dec.decoded()
	}
}

// close unpins and hands the decoder back, ending the last posting's
// views. Safe to call repeatedly.
func (c *blockCursor) close() {
	c.unpin()
	if c.dec != nil {
		decoders.Put(c.dec)
		c.dec, c.told = nil, 0
	}
}
