package index

import (
	"encoding/binary"
	"fmt"
	"math"
	"path/filepath"
	"sort"

	"xrank/internal/storage"
	"xrank/internal/xmldoc"
)

// The naive element inverted lists of Section 4.1, as a standalone
// baseline index: Naive-ID, whose per-keyword list holds every element
// that contains* the keyword (each ancestor repeats the entries below it)
// ordered by element ID, and Naive-Rank, the same entries in rank order
// with a per-term hash index on the element ID (Section 5.1). The paper
// introduces them only to reject them and measures them only as the
// baselines of Table 1 and Figure 10, so no engine builds or opens one:
// the experiment harness (internal/bench) and tests build it over a
// directory of its own with BuildNaive, and read it through OpenNaive.

// File names inside a naive index directory.
const (
	fileNaiveIDPost   = "naiveid.post"
	fileNaiveIDLex    = "naiveid.lex"
	fileNaiveRankPost = "naiverank.post"
	fileNaiveRankHash = "naiverank.hash"
	fileNaiveRankLex  = "naiverank.lex"
	fileNaiveMeta     = "naive.json"
)

// NaiveMeta is persisted to naive.json, the naive index's commit point
// (written last, like an index's meta.json), and reloaded by OpenNaive.
type NaiveMeta struct {
	Terms int `json:"terms"`
	// NaiveEntries is the ancestor closure of every term's direct postings.
	NaiveEntries int `json:"naive_entries"`
	// Files records the expected size and checksum of every data file.
	Files map[string]storage.FileSum `json:"files"`
}

// NaiveStats reports the naive index's on-disk sizes in bytes, Table 1's
// Naive-ID and Naive-Rank rows.
type NaiveStats struct {
	Meta          NaiveMeta
	NaiveIDList   int64 // naiveid.post
	NaiveRankList int64 // naiverank.post
	NaiveIndex    int64 // naiverank.hash
}

// NaiveRankMeta locates a term's rank-ordered naive list and its hash
// index.
type NaiveRankMeta struct {
	Loc  Loc
	Hash HashMeta
}

// BuildNaive writes the naive index of the collection into dir, which is
// created if needed. ranks holds ElemRank scores by global element index;
// opts' MaxPositions, DocFilter and FS apply, its Dewey-list knobs do not.
func BuildNaive(c *xmldoc.Collection, ranks []float64, dir string, opts BuildOptions) (*NaiveStats, error) {
	opts.fill()
	fs := storage.DefaultFS(opts.FS)
	if len(ranks) != c.NumElements() {
		return nil, fmt.Errorf("index: %d ranks for %d elements", len(ranks), c.NumElements())
	}
	if err := fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("index: mkdir %s: %w", dir, err)
	}
	terms, sorted := collectPostings(c, ranks, opts)

	var pfs []namedFile
	defer func() {
		for _, f := range pfs {
			f.pf.Close()
		}
	}()
	for _, name := range []string{fileNaiveIDPost, fileNaiveRankPost, fileNaiveRankHash} {
		pf, err := storage.CreatePageFileFS(fs, filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		pfs = append(pfs, namedFile{name, pf})
	}
	idW, rankW, hashB := newPostWriter(pfs[0].pf), newPostWriter(pfs[1].pf), newHashBuilder(pfs[2].pf)
	idLocs := make(map[string]Loc, len(sorted))
	rankMetas := make(map[string]NaiveRankMeta, len(sorted))

	meta := NaiveMeta{Terms: len(sorted)}
	var buf []byte
	for _, term := range sorted {
		closure := naiveClosure(c, terms[term], opts.MaxPositions, ranks)
		var err error
		if idLocs[term], _, err = writeNaiveList(idW, closure, nil, &buf); err != nil {
			return nil, fmt.Errorf("index: term %q: %w", term, err)
		}
		rankLoc, entries, err := writeNaiveList(rankW, closure, rankOrder(closure), &buf)
		if err != nil {
			return nil, fmt.Errorf("index: term %q: %w", term, err)
		}
		hm, err := hashB.build(entries)
		if err != nil {
			return nil, fmt.Errorf("index: term %q: %w", term, err)
		}
		rankMetas[term] = NaiveRankMeta{Loc: rankLoc, Hash: hm}
		meta.NaiveEntries += len(closure)
		delete(terms, term) // release memory as we go
	}
	for _, flush := range []func() error{idW.flush, rankW.flush, hashB.flush} {
		if err := flush(); err != nil {
			return nil, err
		}
	}
	files, err := syncPageFiles(pfs)
	if err != nil {
		return nil, err
	}
	if files[fileNaiveIDLex], err = writeLexicon(fs, filepath.Join(dir, fileNaiveIDLex), sorted,
		func(t string, buf []byte) []byte { return appendLoc(buf, idLocs[t]) }); err != nil {
		return nil, err
	}
	if files[fileNaiveRankLex], err = writeLexicon(fs, filepath.Join(dir, fileNaiveRankLex), sorted,
		func(t string, buf []byte) []byte { return rankMetas[t].encode(buf) }); err != nil {
		return nil, err
	}
	meta.Files = files
	if err := storage.WriteManifestAtomic(fs, filepath.Join(dir, fileNaiveMeta), &meta); err != nil {
		return nil, err
	}
	return &NaiveStats{
		Meta:          meta,
		NaiveIDList:   files[fileNaiveIDPost].Size,
		NaiveRankList: files[fileNaiveRankPost].Size,
		NaiveIndex:    files[fileNaiveRankHash].Size,
	}, nil
}

// naiveClosure expands direct postings to every ancestor, merging
// posLists, producing entries sorted by global element index (= document
// order). Every entry carries the element's own ElemRank — the naive
// approach does not decay ranks by specificity (Section 4.1, limitation 3).
func naiveClosure(c *xmldoc.Collection, posts []Posting, maxPos int, ranks []float64) []Posting {
	m := make(map[int32][]uint32, len(posts)*2)
	for i := range posts {
		p := &posts[i]
		for e := c.ElementByGlobalIndex(int(p.Elem)); e != nil; e = e.Parent {
			g := int32(c.GlobalIndex(e))
			m[g] = append(m[g], p.Positions...)
		}
	}
	keys := make([]int32, 0, len(m))
	for g := range m {
		keys = append(keys, g)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]Posting, 0, len(keys))
	for _, g := range keys {
		pos := m[g]
		sort.Slice(pos, func(i, j int) bool { return pos[i] < pos[j] })
		if len(pos) > maxPos {
			pos = pos[:maxPos]
		}
		out = append(out, Posting{Elem: g, Rank: float32(ranks[g]), Positions: pos})
	}
	return out
}

// writeNaiveList writes posts (in the order given by perm, or natural
// order when perm is nil) as naive entries, returning the list's location
// and every entry's, as hash-table entries keyed by element.
func writeNaiveList(w *postWriter, posts []Posting, perm []int, buf *[]byte) (Loc, []hashEntry, error) {
	var loc Loc
	n := len(posts)
	if perm != nil {
		n = len(perm)
	}
	locs := make([]hashEntry, 0, n)
	for i := 0; i < n; i++ {
		p := &posts[i]
		if perm != nil {
			p = &posts[perm[i]]
		}
		*buf = AppendNaiveEntry((*buf)[:0], p)
		page, off, err := w.writeEntry(*buf)
		if err != nil {
			return loc, nil, err
		}
		if i == 0 {
			loc.Page, loc.Off = page, off
		}
		locs = append(locs, hashEntry{elem: p.Elem, page: page, off: off})
		loc.Bytes += uint32(len(*buf))
	}
	loc.Count = uint32(n)
	return loc, locs, nil
}

// AppendNaiveEntry appends the encoded naive entry to buf.
func AppendNaiveEntry(buf []byte, p *Posting) []byte {
	start := len(buf)
	buf = append(buf, 0, 0)
	buf = binary.AppendUvarint(buf, uint64(p.Elem))
	buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(p.Rank))
	buf = appendPositions(buf, p.Positions)
	binary.LittleEndian.PutUint16(buf[start:], uint16(len(buf)-start-entryLenSize))
	return buf
}

// DecodeNaiveEntry decodes a naive entry body into p.
func DecodeNaiveEntry(body []byte, p *Posting) error {
	elem, n := binary.Uvarint(body)
	if n <= 0 {
		return fmt.Errorf("index: naive entry elem id corrupt")
	}
	body = body[n:]
	if len(body) < 4 {
		return fmt.Errorf("index: naive entry truncated")
	}
	p.Elem = int32(elem)
	p.ID = p.ID[:0]
	p.Rank = math.Float32frombits(binary.LittleEndian.Uint32(body))
	return decodePositions(body[4:], p)
}

func (m NaiveRankMeta) encode(buf []byte) []byte {
	buf = appendLoc(buf, m.Loc)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Hash.Page))
	buf = binary.LittleEndian.AppendUint16(buf, m.Hash.Off)
	buf = binary.LittleEndian.AppendUint32(buf, m.Hash.NSlots)
	return buf
}

func decodeNaiveRankMeta(buf []byte) (NaiveRankMeta, error) {
	if len(buf) != locSize+10 {
		return NaiveRankMeta{}, fmt.Errorf("index: %w naive-rank lexicon entry of %d bytes", storage.ErrCorrupt, len(buf))
	}
	m := NaiveRankMeta{Loc: decodeLoc(buf)}
	buf = buf[locSize:]
	m.Hash.Page = storage.PageID(binary.LittleEndian.Uint32(buf))
	m.Hash.Off = binary.LittleEndian.Uint16(buf[4:])
	m.Hash.NSlots = binary.LittleEndian.Uint32(buf[6:])
	return m, nil
}

// NaiveIndex is an opened naive index directory with one buffer pool per
// page file.
type NaiveIndex struct {
	Meta NaiveMeta
	pageFiles

	idPool, rankPool, hashPool *storage.BufferPool
	id                         map[string]Loc
	rank                       map[string]NaiveRankMeta
}

// OpenNaive opens a directory written by BuildNaive, verifying every
// data file against naive.json first.
func OpenNaive(dir string, opts OpenOptions) (*NaiveIndex, error) {
	if opts.PoolPages <= 0 {
		opts.PoolPages = 128
	}
	fs := storage.DefaultFS(opts.FS)
	nx := &NaiveIndex{}
	if err := storage.ReadManifest(fs, filepath.Join(dir, fileNaiveMeta), &nx.Meta); err != nil {
		return nil, fmt.Errorf("index: open %s: %w", dir, err)
	}
	required := []string{fileNaiveIDPost, fileNaiveIDLex, fileNaiveRankPost, fileNaiveRankHash, fileNaiveRankLex}
	if err := verifyFiles(fs, dir, fileNaiveMeta, nx.Meta.Files, required); err != nil {
		return nil, fmt.Errorf("index: open %s: %w", dir, err)
	}
	opened := false
	defer func() {
		if !opened {
			nx.Close()
		}
	}()
	var err error
	if nx.idPool, err = nx.open(fs, dir, fileNaiveIDPost, opts.PoolPages); err != nil {
		return nil, err
	}
	if nx.rankPool, err = nx.open(fs, dir, fileNaiveRankPost, opts.PoolPages); err != nil {
		return nil, err
	}
	if nx.hashPool, err = nx.open(fs, dir, fileNaiveRankHash, opts.PoolPages); err != nil {
		return nil, err
	}
	if nx.id, err = readLocs(fs, filepath.Join(dir, fileNaiveIDLex), nx.Meta.Terms); err != nil {
		return nil, err
	}
	nx.rank = make(map[string]NaiveRankMeta, nx.Meta.Terms)
	if err := readLexicon(fs, filepath.Join(dir, fileNaiveRankLex), func(t string, m []byte) error {
		nm, err := decodeNaiveRankMeta(m)
		nx.rank[t] = nm
		return err
	}); err != nil {
		return nil, err
	}
	opened = true
	return nx, nil
}

// NaiveCursor scans one term's naive list entry by entry, pinning one
// page at a time.
type NaiveCursor struct {
	pool *storage.BufferPool
	loc  Loc
	ec   *storage.ExecContext // per-query attribution/cancellation; may be nil

	frame *storage.Frame
	page  storage.PageID
	off   int
	read  uint32 // entries consumed so far
	told  uint32 // of those, how many ec.CountPostings has been told about
	body  []byte // current entry body (aliases the pinned frame)
	post  Posting
}

func newNaiveCursor(pool *storage.BufferPool, loc Loc, ec *storage.ExecContext) *NaiveCursor {
	return &NaiveCursor{pool: pool, loc: loc, ec: ec, page: loc.Page, off: int(loc.Off)}
}

// Next returns the list's next entry, or ok=false at its end. The posting
// and its posList are only valid until the following Next or Close.
func (c *NaiveCursor) Next() (*Posting, bool, error) {
	ok, err := c.next()
	if err != nil || !ok {
		return nil, false, err
	}
	if err := DecodeNaiveEntry(c.body, &c.post); err != nil {
		return nil, false, err
	}
	return &c.post, true, nil
}

// next advances to the next entry's body, returning false at the end of
// the list. The body aliases the pinned page and is valid until the
// following next/Close call.
func (c *NaiveCursor) next() (bool, error) {
	if c.read >= c.loc.Count {
		c.Close()
		return false, nil
	}
	for {
		if c.frame == nil {
			fr, err := c.pool.GetExec(c.ec, c.page)
			if err != nil {
				return false, err
			}
			c.frame = fr
		}
		if c.off+entryLenSize > storage.PageSize {
			c.advancePage()
			continue
		}
		ln := binary.LittleEndian.Uint16(c.frame.Data[c.off:])
		if ln == padEntry {
			c.advancePage()
			continue
		}
		start := c.off + entryLenSize
		end := start + int(ln)
		if end > storage.PageSize {
			c.Close()
			return false, fmt.Errorf("index: corrupt entry length %d at page %d off %d", ln, c.page, c.off)
		}
		c.body = c.frame.Data[start:end]
		c.off = end
		c.read++
		return true, nil
	}
}

func (c *NaiveCursor) advancePage() {
	c.Close()
	c.page++
	c.off = 0
}

// Close releases the pinned page and reports the entries consumed since
// the last report (once per page, so the entry loop stays lock-free).
// Safe to call repeatedly.
func (c *NaiveCursor) Close() {
	if c.frame != nil {
		c.frame.Release()
		c.frame = nil
	}
	c.ec.CountPostings(int64(c.read-c.told), 0)
	c.told = c.read
}

// IDCursor returns an element-ID-ordered scan of the term's naive list
// (Naive-ID) under the per-query execution context ec (nil for none); ok
// is false for unknown terms.
func (nx *NaiveIndex) IDCursor(ec *storage.ExecContext, term string) (*NaiveCursor, bool) {
	loc, ok := nx.id[term]
	if !ok {
		return nil, false
	}
	return newNaiveCursor(nx.idPool, loc, ec), true
}

// RankCursor returns a rank-ordered scan of the term's naive list
// (Naive-Rank).
func (nx *NaiveIndex) RankCursor(ec *storage.ExecContext, term string) (*NaiveCursor, bool) {
	m, ok := nx.rank[term]
	if !ok {
		return nil, false
	}
	return newNaiveCursor(nx.rankPool, m.Loc, ec), true
}

// Lookup probes the term's hash index for an element ID, decoding the
// found entry into p (Naive-Rank's random equality lookup).
func (nx *NaiveIndex) Lookup(ec *storage.ExecContext, term string, elem int32, p *Posting) (bool, error) {
	m, ok := nx.rank[term]
	if !ok {
		return false, nil
	}
	page, off, ok, err := hashLookup(ec, nx.hashPool, m.Hash, elem)
	if err != nil || !ok {
		return false, err
	}
	fr, err := nx.rankPool.GetExec(ec, page)
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
