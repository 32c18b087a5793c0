package index

import (
	"encoding/binary"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"time"

	"xrank/internal/btree"
	"xrank/internal/dewey"
	"xrank/internal/storage"
	"xrank/internal/xmldoc"
)

// File names inside an index directory.
const (
	fileDILPost       = "dil.post"
	fileDILLex        = "dil.lex"
	fileRDILPost      = "rdil.post"
	fileRDILTree      = "rdil.btree"
	fileRDILLex       = "rdil.lex"
	fileHDILRank      = "hdil.rank"
	fileHDILTree      = "hdil.btree"
	fileHDILLex       = "hdil.lex"
	fileNaiveIDPost   = "naiveid.post"
	fileNaiveIDLex    = "naiveid.lex"
	fileNaiveRankPost = "naiverank.post"
	fileNaiveRankHash = "naiverank.hash"
	fileNaiveRankLex  = "naiverank.lex"
	fileMeta          = "meta.json"

	// Block-format skip indexes (PostingsFormat == BlockPostingsFormat).
	fileDILSkip      = "dil.skip"
	fileRDILSkip     = "rdil.skip"
	fileHDILRankSkip = "hdilrank.skip"
)

// BuildOptions configure index construction.
type BuildOptions struct {
	// RankFraction is the fraction of each inverted list stored rank-
	// ordered for HDIL (Section 4.4.1: "store only a small fraction of the
	// inverted list sorted by rank"). Default 0.10.
	RankFraction float64
	// MinRankPrefix is the minimum rank-prefix length per term (bounded by
	// the list length). Default 64.
	MinRankPrefix int
	// MaxPositions caps the posList stored per entry. Default
	// MaxPositionsDefault.
	MaxPositions int
	// SkipNaive omits the two naive baselines (they dominate build time
	// and space on big corpora, exactly as the paper argues).
	SkipNaive bool
	// BlockPostings writes the Dewey-family lists (dil.post, rdil.post,
	// hdil.rank) in the block-encoded format (see block.go): delta-coded
	// blocks of up to 128 entries plus per-term skip indexes recording
	// each block's max ElemRank and Dewey range, which query loops use to
	// skip whole blocks. Naive lists and both B+-trees are unchanged.
	// Query results are bit-identical to the v1 format.
	BlockPostings bool
	// DocFilter, when non-nil, restricts the index to the documents for
	// which it returns true (doc is the document's position in the
	// collection, i.e. the first Dewey component). Sharded builds pass the
	// shard's hash predicate here. The element-ID and Dewey spaces — and
	// Meta.NumDocs/NumElements — remain those of the FULL collection, so
	// ranks, tf-idf normalization and result IDs are identical whether a
	// document is scored from a shard or from a monolithic index.
	DocFilter func(doc uint32) bool
	// FS is the file system all index files are written through (nil = the
	// real file system). Fault-injection tests pass a storage.FaultFS.
	FS storage.FS
}

func (o *BuildOptions) fill() {
	if o.RankFraction <= 0 || o.RankFraction > 1 {
		o.RankFraction = 0.10
	}
	if o.MinRankPrefix <= 0 {
		o.MinRankPrefix = 64
	}
	if o.MaxPositions <= 0 {
		o.MaxPositions = MaxPositionsDefault
	}
}

// Meta is persisted to meta.json and reloaded by Open. It travels inside
// a checksummed manifest envelope (storage.WriteManifestAtomic) and is the
// index directory's commit point: it is written last, after every data
// file is synced, and records each file's size and CRC-32C in Files so
// Open can verify the whole directory before trusting any of it.
type Meta struct {
	NumDocs      int     `json:"num_docs"`
	NumElements  int     `json:"num_elements"`
	Terms        int     `json:"terms"`
	DeweyEntries int     `json:"dewey_entries"`
	NaiveEntries int     `json:"naive_entries"`
	RankFraction float64 `json:"rank_fraction"`
	MaxPositions int     `json:"max_positions"`
	HasNaive     bool    `json:"has_naive"`
	// CompressDewey is never written. It marks indexes built with the
	// retired page-local prefix compression of v1 lists, which this build
	// cannot decode: Open refuses them.
	CompressDewey bool `json:"compress_dewey,omitempty"`
	// PostingsFormat is the Dewey-list wire format: 0 (absent) is the
	// per-entry v1 layout, BlockPostingsFormat (2) the block-encoded
	// layout with skip indexes. Open rejects formats it does not know.
	PostingsFormat int   `json:"postings_format,omitempty"`
	BuildMillis    int64 `json:"build_millis"`
	// Files records the expected size and checksum of every data file in
	// the directory, keyed by file name.
	Files map[string]storage.FileSum `json:"files"`
}

// BuildStats reports per-component on-disk sizes in bytes, the data for
// Table 1.
type BuildStats struct {
	Meta          Meta
	DILList       int64 // dil.post — also the HDIL full list and B+-tree leaf level
	RDILList      int64 // rdil.post
	RDILIndex     int64 // rdil.btree
	HDILRank      int64 // hdil.rank (rank-ordered prefix)
	HDILIndex     int64 // hdil.btree (external inner nodes only)
	NaiveIDList   int64
	NaiveRankList int64
	NaiveIndex    int64 // naiverank.hash
	// PageWrites counts the pages written to the component files above
	// (appends and B+-tree/hash rewrites alike); the engine folds it into
	// its IOStats.
	PageWrites int64
}

// termData accumulates one term's direct postings during the scan phase.
type termData struct {
	posts []Posting
	els   []*xmldoc.Element
}

// Build constructs all index variants for the collection in dir, which is
// created if needed. ranks holds ElemRank scores by global element index.
func Build(c *xmldoc.Collection, ranks []float64, dir string, opts BuildOptions) (*BuildStats, error) {
	opts.fill()
	start := time.Now()
	fs := storage.DefaultFS(opts.FS)
	if len(ranks) != c.NumElements() {
		return nil, fmt.Errorf("index: %d ranks for %d elements", len(ranks), c.NumElements())
	}
	if err := fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("index: mkdir %s: %w", dir, err)
	}

	// Phase 1: collect direct postings per term.
	terms := make(map[string]*termData)
	perElem := make(map[string][]uint32, 16)
	for di, d := range c.Docs {
		if opts.DocFilter != nil && !opts.DocFilter(uint32(di)) {
			continue
		}
		for _, e := range d.Elements {
			if len(e.Tokens) == 0 {
				continue
			}
			for k := range perElem {
				delete(perElem, k)
			}
			for _, tok := range e.Tokens {
				perElem[tok.Term] = append(perElem[tok.Term], tok.Pos)
			}
			g := int32(c.GlobalIndex(e))
			id := e.DeweyID()
			for term, positions := range perElem {
				td := terms[term]
				if td == nil {
					td = &termData{}
					terms[term] = td
				}
				if len(positions) > opts.MaxPositions {
					positions = positions[:opts.MaxPositions]
				}
				td.posts = append(td.posts, Posting{
					ID:        id,
					Elem:      g,
					Rank:      float32(ranks[g]),
					Positions: append([]uint32(nil), positions...),
				})
				td.els = append(td.els, e)
			}
		}
	}
	sorted := make([]string, 0, len(terms))
	for t := range terms {
		sorted = append(sorted, t)
	}
	sort.Strings(sorted)

	// Phase 2: stream every variant term by term.
	b, err := newVariantBuilders(fs, dir, opts)
	if err != nil {
		return nil, err
	}
	defer b.closeAll()

	meta := Meta{
		NumDocs:      c.NumDocs(),
		NumElements:  c.NumElements(),
		Terms:        len(sorted),
		RankFraction: opts.RankFraction,
		MaxPositions: opts.MaxPositions,
		HasNaive:     !opts.SkipNaive,
	}
	if opts.BlockPostings {
		meta.PostingsFormat = BlockPostingsFormat
	}
	for _, term := range sorted {
		td := terms[term]
		nNaive, err := b.addTerm(term, td, opts, ranks)
		if err != nil {
			return nil, fmt.Errorf("index: term %q: %w", term, err)
		}
		meta.DeweyEntries += len(td.posts)
		meta.NaiveEntries += nNaive
		delete(terms, term) // release memory as we go
	}
	files, err := b.finish(dir, sorted)
	if err != nil {
		return nil, err
	}
	meta.BuildMillis = time.Since(start).Milliseconds()
	meta.Files = files

	// meta.json is the commit point: everything above is synced, so once
	// this manifest lands atomically the directory opens; until then Open
	// reports the directory as absent or corrupt, never half-built.
	if err := storage.WriteManifestAtomic(fs, filepath.Join(dir, fileMeta), &meta); err != nil {
		return nil, err
	}

	stats := &BuildStats{
		Meta:      meta,
		DILList:   b.dilPF.Size(),
		RDILList:  b.rdilPF.Size(),
		RDILIndex: b.rdilTreePF.Size(),
		HDILRank:  b.hdilRankPF.Size(),
		HDILIndex: b.hdilTreePF.Size(),
	}
	if !opts.SkipNaive {
		stats.NaiveIDList = b.naiveIDPF.Size()
		stats.NaiveRankList = b.naiveRankPF.Size()
		stats.NaiveIndex = b.naiveHashPF.Size()
	}
	for _, pf := range b.pageFiles() {
		stats.PageWrites += pf.Stats().Writes
	}
	return stats, nil
}

// variantBuilders holds the open files and per-term metadata accumulated
// while streaming the index variants.
type variantBuilders struct {
	opts BuildOptions
	fs   storage.FS

	dilPF      *storage.PageFile
	rdilPF     *storage.PageFile
	rdilTreePF *storage.PageFile
	hdilRankPF *storage.PageFile
	hdilTreePF *storage.PageFile

	naiveIDPF   *storage.PageFile
	naiveRankPF *storage.PageFile
	naiveHashPF *storage.PageFile

	dilW       *postWriter
	rdilW      *postWriter
	hdilRankW  *postWriter
	naiveIDW   *postWriter
	naiveRankW *postWriter

	rdilTreeW *btree.PageWriter
	hdilTreeW *btree.PageWriter
	hashB     *hashBuilder

	dilMeta       map[string]DILMeta
	rdilMeta      map[string]RDILMeta
	hdilMeta      map[string]HDILMeta
	naiveIDMeta   map[string]NaiveMeta
	naiveRankMeta map[string]NaiveRankMeta

	// Per-term block refs (BlockPostings only), persisted as the skip
	// indexes in finish.
	dilSkip      map[string][]BlockRef
	rdilSkip     map[string][]BlockRef
	hdilRankSkip map[string][]BlockRef

	buf []byte
}

func newVariantBuilders(fs storage.FS, dir string, opts BuildOptions) (*variantBuilders, error) {
	b := &variantBuilders{
		opts:          opts,
		fs:            fs,
		dilMeta:       make(map[string]DILMeta),
		rdilMeta:      make(map[string]RDILMeta),
		hdilMeta:      make(map[string]HDILMeta),
		naiveIDMeta:   make(map[string]NaiveMeta),
		naiveRankMeta: make(map[string]NaiveRankMeta),
	}
	if opts.BlockPostings {
		b.dilSkip = make(map[string][]BlockRef)
		b.rdilSkip = make(map[string][]BlockRef)
		b.hdilRankSkip = make(map[string][]BlockRef)
	}
	var err error
	create := func(name string) *storage.PageFile {
		if err != nil {
			return nil
		}
		var pf *storage.PageFile
		pf, err = storage.CreatePageFileFS(fs, filepath.Join(dir, name))
		return pf
	}
	b.dilPF = create(fileDILPost)
	b.rdilPF = create(fileRDILPost)
	b.rdilTreePF = create(fileRDILTree)
	b.hdilRankPF = create(fileHDILRank)
	b.hdilTreePF = create(fileHDILTree)
	if !opts.SkipNaive {
		b.naiveIDPF = create(fileNaiveIDPost)
		b.naiveRankPF = create(fileNaiveRankPost)
		b.naiveHashPF = create(fileNaiveRankHash)
	}
	if err != nil {
		b.closeAll()
		return nil, err
	}
	b.dilW = newPostWriter(b.dilPF)
	b.rdilW = newPostWriter(b.rdilPF)
	b.hdilRankW = newPostWriter(b.hdilRankPF)
	b.rdilTreeW = btree.NewPageWriter(b.rdilTreePF)
	b.hdilTreeW = btree.NewPageWriter(b.hdilTreePF)
	if !opts.SkipNaive {
		b.naiveIDW = newPostWriter(b.naiveIDPF)
		b.naiveRankW = newPostWriter(b.naiveRankPF)
		b.hashB = newHashBuilder(b.naiveHashPF)
	}
	return b, nil
}

// pageFiles lists the component files this build created.
func (b *variantBuilders) pageFiles() []*storage.PageFile {
	var out []*storage.PageFile
	for _, pf := range []*storage.PageFile{
		b.dilPF, b.rdilPF, b.rdilTreePF, b.hdilRankPF, b.hdilTreePF,
		b.naiveIDPF, b.naiveRankPF, b.naiveHashPF,
	} {
		if pf != nil {
			out = append(out, pf)
		}
	}
	return out
}

func (b *variantBuilders) closeAll() {
	for _, pf := range b.pageFiles() {
		pf.Close()
	}
}

// addTerm writes one term's postings into every variant. It returns the
// number of naive entries produced (the ancestor closure size).
func (b *variantBuilders) addTerm(term string, td *termData, opts BuildOptions, ranks []float64) (int, error) {
	posts := td.posts

	// --- DIL: Dewey order (the natural order postings were collected in).
	dilLoc, boundaries, err := b.writeList(b.dilW, posts, nil, term, b.dilSkip)
	if err != nil {
		return 0, err
	}
	endPage, endOff := b.dilW.pos()
	b.dilMeta[term] = DILMeta{Loc: dilLoc}

	// --- RDIL: rank order + per-term B+-tree keyed by Dewey ID.
	byRank := rankOrder(posts)
	rankLoc, _, err := b.writeList(b.rdilW, posts, byRank, term, b.rdilSkip)
	if err != nil {
		return 0, err
	}
	tb := btree.NewBuilder(b.rdilTreeW, 0)
	var key, val []byte
	for i := range posts {
		key = dewey.Append(key[:0], posts[i].ID)
		val = appendTreeValue(val[:0], posts[i].Rank, posts[i].Positions)
		if err := tb.Add(key, val); err != nil {
			return 0, err
		}
	}
	rdilRoot, _, err := tb.Finish()
	if err != nil {
		return 0, err
	}
	b.rdilMeta[term] = RDILMeta{RankLoc: rankLoc, Root: rdilRoot}

	// --- HDIL: rank-ordered prefix + external B+-tree over the DIL pages.
	prefixLen := int(math.Ceil(opts.RankFraction * float64(len(posts))))
	if prefixLen < opts.MinRankPrefix {
		prefixLen = opts.MinRankPrefix
	}
	if prefixLen > len(posts) {
		prefixLen = len(posts)
	}
	hdilRankLoc, _, err := b.writeList(b.hdilRankW, posts, byRank[:prefixLen], term, b.hdilRankSkip)
	if err != nil {
		return 0, err
	}
	eb := btree.NewExternalBuilder(b.hdilTreeW, 0)
	for _, bd := range boundaries {
		if err := eb.AddLeafPage(bd.firstKey, bd.page); err != nil {
			return 0, err
		}
	}
	hdilRoot, _, err := eb.Finish()
	if err != nil {
		return 0, err
	}
	b.hdilMeta[term] = HDILMeta{
		DilLoc:  dilLoc,
		EndPage: endPage,
		EndOff:  endOff,
		RankLoc: hdilRankLoc,
		Root:    hdilRoot,
	}

	if opts.SkipNaive {
		return 0, nil
	}

	// --- Naive closure: every ancestor repeats the entry (Section 4.1).
	closure := naiveClosure(td, opts.MaxPositions, ranks)

	idLoc, err := b.writeNaiveList(b.naiveIDW, closure, nil)
	if err != nil {
		return 0, err
	}
	b.naiveIDMeta[term] = NaiveMeta{Loc: idLoc}

	byRankN := naiveRankOrder(closure)
	rankNLoc, locs, err := b.writeNaiveListLocs(b.naiveRankW, closure, byRankN)
	if err != nil {
		return 0, err
	}
	hashEntries := make([]hashEntry, len(closure))
	for i, ci := range byRankN {
		hashEntries[i] = hashEntry{elem: closure[ci].Elem, page: locs[i].page, off: locs[i].off}
	}
	hm, err := b.hashB.build(hashEntries)
	if err != nil {
		return 0, err
	}
	b.naiveRankMeta[term] = NaiveRankMeta{Loc: rankNLoc, Hash: hm}
	return len(closure), nil
}

type pageBoundary struct {
	page     storage.PageID
	firstKey []byte
}

// writeList dispatches between the v1 per-entry layout and the block
// layout; with BlockPostings the term's block refs are recorded in skip
// (which finish persists as the component's skip index).
func (b *variantBuilders) writeList(w *postWriter, posts []Posting, perm []int, term string, skip map[string][]BlockRef) (Loc, []pageBoundary, error) {
	if !b.opts.BlockPostings {
		return b.writeDeweyList(w, posts, perm)
	}
	loc, bounds, refs, err := b.writeBlockList(w, posts, perm)
	if err != nil {
		return loc, nil, err
	}
	skip[term] = refs
	return loc, bounds, nil
}

// writeBlockList writes postings (in the order given by perm, or natural
// order when perm is nil) as delta-coded blocks, returning the list
// location, the page boundaries, and the per-block skip refs.
func (b *variantBuilders) writeBlockList(w *postWriter, posts []Posting, perm []int) (Loc, []pageBoundary, []BlockRef, error) {
	bw := newBlockListWriter(w)
	n := len(posts)
	if perm != nil {
		n = len(perm)
	}
	for i := 0; i < n; i++ {
		p := &posts[i]
		if perm != nil {
			p = &posts[perm[i]]
		}
		if err := bw.add(p.ID, p.Rank, p.Positions); err != nil {
			return Loc{}, nil, nil, err
		}
	}
	return bw.finish()
}

// writeDeweyList writes postings (in the order given by perm, or natural
// order when perm is nil) as Dewey entries, returning the list location
// and the page boundaries (first key of the term's entries on each page).
func (b *variantBuilders) writeDeweyList(w *postWriter, posts []Posting, perm []int) (Loc, []pageBoundary, error) {
	var loc Loc
	var bounds []pageBoundary
	lastPage := storage.InvalidPage
	n := len(posts)
	if perm != nil {
		n = len(perm)
	}
	for i := 0; i < n; i++ {
		p := &posts[i]
		if perm != nil {
			p = &posts[perm[i]]
		}
		b.buf = AppendDeweyEntry(b.buf[:0], p)
		page, off, err := w.writeEntry(b.buf)
		if err != nil {
			return loc, nil, err
		}
		if i == 0 {
			loc.Page, loc.Off = page, off
		}
		if page != lastPage {
			bounds = append(bounds, pageBoundary{page: page, firstKey: dewey.Encode(p.ID)})
			lastPage = page
		}
		loc.Bytes += uint32(len(b.buf))
	}
	loc.Count = uint32(n)
	return loc, bounds, nil
}

func (b *variantBuilders) writeNaiveList(w *postWriter, posts []Posting, perm []int) (Loc, error) {
	loc, _, err := b.writeNaiveListLocs(w, posts, perm)
	return loc, err
}

type entryLoc struct {
	page storage.PageID
	off  uint16
}

func (b *variantBuilders) writeNaiveListLocs(w *postWriter, posts []Posting, perm []int) (Loc, []entryLoc, error) {
	var loc Loc
	n := len(posts)
	if perm != nil {
		n = len(perm)
	}
	locs := make([]entryLoc, 0, n)
	for i := 0; i < n; i++ {
		p := &posts[i]
		if perm != nil {
			p = &posts[perm[i]]
		}
		b.buf = AppendNaiveEntry(b.buf[:0], p)
		page, off, err := w.writeEntry(b.buf)
		if err != nil {
			return loc, nil, err
		}
		if i == 0 {
			loc.Page, loc.Off = page, off
		}
		locs = append(locs, entryLoc{page: page, off: off})
		loc.Bytes += uint32(len(b.buf))
	}
	loc.Count = uint32(n)
	return loc, locs, nil
}

// rankOrder returns the permutation of posts by descending rank, ties
// broken by Dewey order for determinism.
func rankOrder(posts []Posting) []int {
	perm := make([]int, len(posts))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool {
		return posts[perm[a]].Rank > posts[perm[b]].Rank
	})
	return perm
}

func naiveRankOrder(posts []Posting) []int { return rankOrder(posts) }

// naiveClosure expands direct postings to every ancestor, merging
// posLists, producing entries sorted by global element index (= document
// order). Every entry carries the element's own ElemRank — the naive
// approach does not decay ranks by specificity (Section 4.1, limitation 3).
func naiveClosure(td *termData, maxPos int, ranks []float64) []Posting {
	m := make(map[int32][]uint32, len(td.posts)*2)
	for i := range td.posts {
		p := &td.posts[i]
		for e := td.els[i]; e != nil; e = e.Parent {
			g := int32(e.Doc.Base + int(e.Index))
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
		out = append(out, Posting{
			Elem:      g,
			Rank:      float32(ranks[g]),
			Positions: pos,
		})
	}
	return out
}

// appendTreeValue encodes the B+-tree leaf value: rank + posList.
func appendTreeValue(buf []byte, rank float32, pos []uint32) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(rank))
	return appendPositions(buf, pos)
}

// decodeTreeValue decodes a B+-tree leaf value into p (Rank, Positions).
func decodeTreeValue(val []byte, p *Posting) error {
	if len(val) < 4 {
		return fmt.Errorf("index: tree value too short")
	}
	p.Rank = math.Float32frombits(binary.LittleEndian.Uint32(val))
	return decodePositions(val[4:], p)
}

// finish flushes all writers, syncs every page file, persists the
// lexicons atomically, and returns the size+checksum of every data file
// for the meta.json commit record.
func (b *variantBuilders) finish(dir string, terms []string) (map[string]storage.FileSum, error) {
	for _, w := range []*postWriter{b.dilW, b.rdilW, b.hdilRankW, b.naiveIDW, b.naiveRankW} {
		if w == nil {
			continue
		}
		if err := w.flush(); err != nil {
			return nil, err
		}
	}
	if err := b.rdilTreeW.Flush(); err != nil {
		return nil, err
	}
	if err := b.hdilTreeW.Flush(); err != nil {
		return nil, err
	}
	if b.hashB != nil {
		if err := b.hashB.flush(); err != nil {
			return nil, err
		}
	}
	files := make(map[string]storage.FileSum)
	// Fixed iteration order: fault injection numbers write boundaries by
	// execution order, so the sync sequence must be deterministic.
	pageFiles := []struct {
		name string
		pf   *storage.PageFile
	}{
		{fileDILPost, b.dilPF},
		{fileRDILPost, b.rdilPF},
		{fileRDILTree, b.rdilTreePF},
		{fileHDILRank, b.hdilRankPF},
		{fileHDILTree, b.hdilTreePF},
		{fileNaiveIDPost, b.naiveIDPF},
		{fileNaiveRankPost, b.naiveRankPF},
		{fileNaiveRankHash, b.naiveHashPF},
	}
	for _, ent := range pageFiles {
		name, pf := ent.name, ent.pf
		if pf == nil {
			continue
		}
		if err := pf.Sync(); err != nil {
			return nil, err
		}
		sum, err := pf.Checksum()
		if err != nil {
			return nil, err
		}
		files[name] = sum
	}
	if b.opts.BlockPostings {
		// Skip indexes land between the synced page files and the
		// lexicons — more atomic whole-file writes under the meta.json
		// commit point, in a fixed order for the fault matrix.
		skips := []struct {
			name string
			refs map[string][]BlockRef
		}{
			{fileDILSkip, b.dilSkip},
			{fileRDILSkip, b.rdilSkip},
			{fileHDILRankSkip, b.hdilRankSkip},
		}
		for _, sk := range skips {
			sum, err := writeSkipIndex(b.fs, filepath.Join(dir, sk.name), terms, sk.refs)
			if err != nil {
				return nil, err
			}
			files[sk.name] = sum
		}
	}
	lexicons := []struct {
		name string
		enc  func(t string, buf []byte) []byte
	}{
		{fileDILLex, func(t string, buf []byte) []byte { return b.dilMeta[t].encode(buf) }},
		{fileRDILLex, func(t string, buf []byte) []byte { return b.rdilMeta[t].encode(buf) }},
		{fileHDILLex, func(t string, buf []byte) []byte { return b.hdilMeta[t].encode(buf) }},
	}
	if b.naiveIDW != nil {
		lexicons = append(lexicons,
			struct {
				name string
				enc  func(t string, buf []byte) []byte
			}{fileNaiveIDLex, func(t string, buf []byte) []byte { return b.naiveIDMeta[t].encode(buf) }},
			struct {
				name string
				enc  func(t string, buf []byte) []byte
			}{fileNaiveRankLex, func(t string, buf []byte) []byte { return b.naiveRankMeta[t].encode(buf) }},
		)
	}
	for _, lx := range lexicons {
		sum, err := writeLexicon(b.fs, filepath.Join(dir, lx.name), terms, lx.enc)
		if err != nil {
			return nil, err
		}
		files[lx.name] = sum
	}
	return files, nil
}
