package index

import (
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"time"

	"xrank/internal/storage"
	"xrank/internal/xmldoc"
)

// File names inside an index directory.
const (
	fileDILPost       = "dil.post"
	fileDILSkip       = "dil.skip"
	fileDILLex        = "dil.lex"
	fileRDILPost      = "rdil.post"
	fileRDILSkip      = "rdil.skip"
	fileRDILLex       = "rdil.lex"
	fileHDILRank      = "hdil.rank"
	fileHDILRankSkip  = "hdilrank.skip"
	fileHDILLex       = "hdil.lex"
	fileNaiveIDPost   = "naiveid.post"
	fileNaiveIDLex    = "naiveid.lex"
	fileNaiveRankPost = "naiverank.post"
	fileNaiveRankHash = "naiverank.hash"
	fileNaiveRankLex  = "naiverank.lex"
	fileMeta          = "meta.json"
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
	// PostingsFormat is the directory's on-disk format; Open accepts only
	// the package's PostingsFormat.
	PostingsFormat int   `json:"postings_format"`
	BuildMillis    int64 `json:"build_millis"`
	// Files records the expected size and checksum of every data file in
	// the directory, keyed by file name.
	Files map[string]storage.FileSum `json:"files"`
}

// BuildStats reports per-component on-disk sizes in bytes, the data for
// Table 1.
type BuildStats struct {
	Meta     Meta
	DILList  int64 // dil.post — also HDIL's full list, which RDIL's Dewey probes read too
	RDILList int64 // rdil.post
	HDILRank int64 // hdil.rank (rank-ordered prefix)
	// DILSkip, RDILSkip and HDILSkip are the sparse per-block skip indexes
	// of the three lists above (dil.skip, rdil.skip, hdilrank.skip), the
	// only Dewey-side access structures.
	DILSkip       int64
	RDILSkip      int64
	HDILSkip      int64
	NaiveIDList   int64
	NaiveRankList int64
	NaiveIndex    int64 // naiverank.hash
	// PageWrites counts the pages written to the page files above
	// (appends and hash rewrites alike); the engine folds it into its
	// IOStats.
	PageWrites int64

	// shardFiles holds the Files record of every shard's meta.json.
	shardFiles []map[string]storage.FileSum
}

// IndexBytes is the total size of the files the build's meta.json
// manifests record: postings, skip indexes, lexicons and naive baselines
// alike, summed over shards.
func (s *BuildStats) IndexBytes() int64 {
	var n int64
	for _, files := range s.shardFiles {
		for _, sum := range files {
			n += sum.Size
		}
	}
	return n
}

// add accumulates another shard's sizes and file records.
func (s *BuildStats) add(o *BuildStats) {
	s.DILList += o.DILList
	s.RDILList += o.RDILList
	s.HDILRank += o.HDILRank
	s.DILSkip += o.DILSkip
	s.RDILSkip += o.RDILSkip
	s.HDILSkip += o.HDILSkip
	s.NaiveIDList += o.NaiveIDList
	s.NaiveRankList += o.NaiveRankList
	s.NaiveIndex += o.NaiveIndex
	s.PageWrites += o.PageWrites
	s.shardFiles = append(s.shardFiles, o.shardFiles...)
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
		NumDocs:        c.NumDocs(),
		NumElements:    c.NumElements(),
		Terms:          len(sorted),
		RankFraction:   opts.RankFraction,
		MaxPositions:   opts.MaxPositions,
		HasNaive:       !opts.SkipNaive,
		PostingsFormat: PostingsFormat,
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

	size := func(name string) int64 { return files[name].Size }
	stats := &BuildStats{
		Meta:          meta,
		DILList:       size(fileDILPost),
		RDILList:      size(fileRDILPost),
		HDILRank:      size(fileHDILRank),
		DILSkip:       size(fileDILSkip),
		RDILSkip:      size(fileRDILSkip),
		HDILSkip:      size(fileHDILRankSkip),
		NaiveIDList:   size(fileNaiveIDPost),
		NaiveRankList: size(fileNaiveRankPost),
		NaiveIndex:    size(fileNaiveRankHash),
		shardFiles:    []map[string]storage.FileSum{files},
	}
	for _, f := range b.files {
		stats.PageWrites += f.pf.Stats().Writes
	}
	return stats, nil
}

// listBuilder is one Dewey-family list under construction: its postings
// file and, per term, the list's location and block refs, which finish
// persists as the list's lexicon and skip index.
type listBuilder struct {
	skip, lex string // file names
	w         *postWriter
	locs      map[string]Loc
	refs      map[string][]BlockRef
}

// variantBuilders holds the open files and per-term metadata accumulated
// while streaming the index variants.
type variantBuilders struct {
	fs storage.FS
	// files are the page files this build created, in creation order,
	// which is also the fixed order finish syncs them in.
	files []namedFile

	// dewey holds the Dewey-ordered list, the full rank-ordered list and
	// HDIL's rank-ordered prefix, in that (fixed) order.
	dewey [3]*listBuilder

	naiveIDW   *postWriter
	naiveRankW *postWriter
	hashB      *hashBuilder

	naiveIDMeta   map[string]Loc
	naiveRankMeta map[string]NaiveRankMeta

	buf []byte
}

type namedFile struct {
	name string
	pf   *storage.PageFile
}

func newVariantBuilders(fs storage.FS, dir string, opts BuildOptions) (*variantBuilders, error) {
	b := &variantBuilders{
		fs:            fs,
		naiveIDMeta:   make(map[string]Loc),
		naiveRankMeta: make(map[string]NaiveRankMeta),
	}
	var err error
	create := func(name string) *storage.PageFile {
		if err != nil {
			return nil
		}
		var pf *storage.PageFile
		if pf, err = storage.CreatePageFileFS(fs, filepath.Join(dir, name)); err == nil {
			b.files = append(b.files, namedFile{name, pf})
		}
		return pf
	}
	for i, names := range [3][3]string{
		{fileDILPost, fileDILSkip, fileDILLex},
		{fileRDILPost, fileRDILSkip, fileRDILLex},
		{fileHDILRank, fileHDILRankSkip, fileHDILLex},
	} {
		b.dewey[i] = &listBuilder{
			skip: names[1], lex: names[2],
			w:    newPostWriter(create(names[0])),
			locs: make(map[string]Loc),
			refs: make(map[string][]BlockRef),
		}
	}
	if !opts.SkipNaive {
		b.naiveIDW = newPostWriter(create(fileNaiveIDPost))
		b.naiveRankW = newPostWriter(create(fileNaiveRankPost))
		b.hashB = newHashBuilder(create(fileNaiveRankHash))
	}
	if err != nil {
		b.closeAll()
		return nil, err
	}
	return b, nil
}

func (b *variantBuilders) closeAll() {
	for _, f := range b.files {
		f.pf.Close()
	}
}

// addTerm writes one term's postings into every variant. It returns the
// number of naive entries produced (the ancestor closure size).
func (b *variantBuilders) addTerm(term string, td *termData, opts BuildOptions, ranks []float64) (int, error) {
	posts := td.posts
	dil, rdil, hdil := b.dewey[0], b.dewey[1], b.dewey[2]

	// DIL: Dewey order (the natural order postings were collected in).
	if err := dil.add(term, posts, nil); err != nil {
		return 0, err
	}
	// RDIL: the whole list in rank order.
	byRank := rankOrder(posts)
	if err := rdil.add(term, posts, byRank); err != nil {
		return 0, err
	}
	// HDIL: a rank-ordered prefix; its full list is the DIL list.
	prefixLen := int(math.Ceil(opts.RankFraction * float64(len(posts))))
	if prefixLen < opts.MinRankPrefix {
		prefixLen = opts.MinRankPrefix
	}
	if prefixLen > len(posts) {
		prefixLen = len(posts)
	}
	if err := hdil.add(term, posts, byRank[:prefixLen]); err != nil {
		return 0, err
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
	b.naiveIDMeta[term] = idLoc

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

// add writes term's postings (in the order given by perm, or natural
// order when perm is nil) as delta-coded blocks, recording the list's
// location and block refs.
func (l *listBuilder) add(term string, posts []Posting, perm []int) error {
	bw := blockListWriter{w: l.w}
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
			return err
		}
	}
	loc, refs, err := bw.finish()
	if err != nil {
		return err
	}
	l.locs[term], l.refs[term] = loc, refs
	return nil
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

// finish flushes all writers, syncs every page file, persists the skip
// indexes and lexicons atomically, and returns the size+checksum of every
// data file for the meta.json commit record. Fault injection numbers
// write boundaries by execution order, so every step runs in a fixed
// order: page files, then skip indexes, then lexicons.
func (b *variantBuilders) finish(dir string, terms []string) (map[string]storage.FileSum, error) {
	for _, l := range b.dewey {
		if err := l.w.flush(); err != nil {
			return nil, err
		}
	}
	if b.hashB != nil {
		for _, w := range []*postWriter{b.naiveIDW, b.naiveRankW} {
			if err := w.flush(); err != nil {
				return nil, err
			}
		}
		if err := b.hashB.flush(); err != nil {
			return nil, err
		}
	}
	files := make(map[string]storage.FileSum)
	for _, f := range b.files {
		if err := f.pf.Sync(); err != nil {
			return nil, err
		}
		sum, err := f.pf.Checksum()
		if err != nil {
			return nil, err
		}
		files[f.name] = sum
	}
	for _, l := range b.dewey {
		sum, err := writeSkipIndex(b.fs, filepath.Join(dir, l.skip), terms, l.refs)
		if err != nil {
			return nil, err
		}
		files[l.skip] = sum
	}
	type lexicon struct {
		name string
		enc  func(t string, buf []byte) []byte
	}
	var lexicons []lexicon
	for _, l := range b.dewey {
		lexicons = append(lexicons, lexicon{l.lex, func(t string, buf []byte) []byte { return appendLoc(buf, l.locs[t]) }})
	}
	if b.hashB != nil {
		lexicons = append(lexicons,
			lexicon{fileNaiveIDLex, func(t string, buf []byte) []byte { return appendLoc(buf, b.naiveIDMeta[t]) }},
			lexicon{fileNaiveRankLex, func(t string, buf []byte) []byte { return b.naiveRankMeta[t].encode(buf) }},
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
