package index

import (
	"cmp"
	"fmt"
	"math"
	"path/filepath"
	"sort"

	"xrank/internal/storage"
	"xrank/internal/xmldoc"
)

// File names inside an index directory.
const (
	fileDILPost  = "dil.post"
	fileDILSkip  = "dil.skip"
	fileRDILPost = "rdil.post"
	fileRDILSkip = "rdil.skip"
	fileMeta     = "meta.json"
)

// BuildOptions configure index construction.
type BuildOptions struct {
	// RankFraction is the fraction of each inverted list HDIL reads in rank
	// order, a prefix of RDIL's list (Section 4.4.1: "store only a small
	// fraction of the inverted list sorted by rank"). Default 0.10.
	RankFraction float64
	// MinRankPrefix is the minimum rank-prefix length per term (bounded by
	// the list length). Default 64.
	MinRankPrefix int
	// MaxPositions caps the posList stored per entry. Default
	// MaxPositionsDefault.
	MaxPositions int
	// DocFilter, when non-nil, restricts the index to the documents for
	// which it returns true (doc is the document's position in the
	// collection, i.e. the first Dewey component). Sharded builds pass the
	// shard's hash predicate here. The element-ID and Dewey spaces — and
	// Meta.NumDocs/NumElements — remain those of the FULL collection, so
	// ranks and result IDs are identical whether a document is scored
	// from a shard or from a monolithic index.
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
		o.MinRankPrefix = defaultMinRankPrefix
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
	NumDocs      int `json:"num_docs"`
	NumElements  int `json:"num_elements"`
	Terms        int `json:"terms"`
	DeweyEntries int `json:"dewey_entries"`
	// RankFraction and MinRankPrefix fix HDIL's rank prefix. A meta.json
	// without min_rank_prefix was built with the default.
	RankFraction  float64 `json:"rank_fraction"`
	MinRankPrefix int     `json:"min_rank_prefix"`
	MaxPositions  int     `json:"max_positions"`
	// PostingsFormat is the directory's on-disk format; Open accepts only
	// the package's PostingsFormat.
	PostingsFormat int `json:"postings_format"`
	// Files records the expected size and checksum of every data file in
	// the directory, keyed by file name.
	Files map[string]storage.FileSum `json:"files"`
}

// defaultMinRankPrefix is BuildOptions.MinRankPrefix's default.
const defaultMinRankPrefix = 64

// RankPrefixLen is the length of HDIL's rank-ordered prefix of a list of
// n entries: the first ceil(RankFraction·n) entries of RDIL's list, at
// least MinRankPrefix of them, at most n.
func (m *Meta) RankPrefixLen(n int) int {
	p := max(int(math.Ceil(m.RankFraction*float64(n))), cmp.Or(m.MinRankPrefix, defaultMinRankPrefix))
	return min(p, n)
}

// BuildStats reports per-component on-disk sizes in bytes, the data for
// Table 1.
type BuildStats struct {
	Meta     Meta
	DILList  int64 // dil.post — also HDIL's full list, which RDIL's Dewey probes read too
	RDILList int64 // rdil.post
	HDILRank int64 // the rdil.post blocks holding HDIL's rank prefixes
	// DILSkip and RDILSkip are the sparse per-block skip indexes of the two
	// lists above, the only Dewey-side access structures; HDILSkip is what
	// a skip index over HDILRank's blocks alone would take.
	DILSkip  int64
	RDILSkip int64
	HDILSkip int64
	// PageWrites counts the pages written to the page files above: the
	// pages they hold, since the build appends each page once. The engine
	// reports it as IOStats().Writes.
	PageWrites int64

	// shardFiles holds the Files record of every shard's meta.json.
	shardFiles []map[string]storage.FileSum
}

// IndexBytes is the total size of the files the build's meta.json
// manifests record: postings and skip indexes alike, summed over shards.
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
	s.PageWrites += o.PageWrites
	s.shardFiles = append(s.shardFiles, o.shardFiles...)
}

// Build constructs the Dewey-family lists — DIL, and RDIL, whose
// rank-ordered list HDIL also reads a prefix of — and their skip indexes
// for the collection in dir, which is created if needed. ranks holds
// ElemRank scores by global element index.
func Build(c *xmldoc.Collection, ranks []float64, dir string, opts BuildOptions) (*BuildStats, error) {
	opts.fill()
	fs := storage.DefaultFS(opts.FS)
	if len(ranks) != c.NumElements() {
		return nil, fmt.Errorf("index: %d ranks for %d elements", len(ranks), c.NumElements())
	}
	if err := fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("index: mkdir %s: %w", dir, err)
	}
	terms, sorted := collectPostings(c, ranks, opts)

	// Stream every variant term by term.
	b, err := newVariantBuilders(fs, dir)
	if err != nil {
		return nil, err
	}
	defer b.closeAll()

	meta := Meta{
		NumDocs:        c.NumDocs(),
		NumElements:    c.NumElements(),
		Terms:          len(sorted),
		RankFraction:   opts.RankFraction,
		MinRankPrefix:  opts.MinRankPrefix,
		MaxPositions:   opts.MaxPositions,
		PostingsFormat: PostingsFormat,
	}
	for _, term := range sorted {
		posts := terms[term]
		if err := b.addTerm(term, posts); err != nil {
			return nil, fmt.Errorf("index: term %q: %w", term, err)
		}
		meta.DeweyEntries += len(posts)
		delete(terms, term) // release memory as we go
	}
	files, err := b.finish(dir, sorted)
	if err != nil {
		return nil, err
	}
	meta.Files = files

	// meta.json is the commit point: everything above is synced, so once
	// this manifest lands atomically the directory opens; until then Open
	// reports the directory as absent or corrupt, never half-built.
	if err := storage.WriteManifestAtomic(fs, filepath.Join(dir, fileMeta), &meta); err != nil {
		return nil, err
	}

	size := func(name string) int64 { return files[name].Size }
	stats := &BuildStats{
		Meta:       meta,
		DILList:    size(fileDILPost),
		RDILList:   size(fileRDILPost),
		DILSkip:    size(fileDILSkip),
		RDILSkip:   size(fileRDILSkip),
		shardFiles: []map[string]storage.FileSum{files},
	}
	prefix := make(map[string][]BlockRef, len(sorted))
	for t, rs := range b.dewey[1].refs {
		prefix[t], _ = rankPrefix(rs, meta.RankPrefixLen(int(locOf(rs).Count)))
		stats.HDILRank += int64(locOf(prefix[t]).Bytes)
	}
	skip, err := encodeSkipIndex(sorted, prefix)
	if err != nil {
		return nil, err
	}
	stats.HDILSkip = int64(len(skip))
	for _, f := range b.files {
		stats.PageWrites += int64(f.pf.NumPages())
	}
	return stats, nil
}

// listBuilder is one Dewey-family list under construction: its postings
// file and, per term, the list's block refs, which finish persists as the
// list's skip index.
type listBuilder struct {
	skip string // skip index file name
	w    *postWriter
	refs map[string][]BlockRef
}

// variantBuilders holds the open files and per-term metadata accumulated
// while streaming the index variants.
type variantBuilders struct {
	fs storage.FS
	// files are the page files this build created, in creation order,
	// which is also the fixed order finish syncs them in.
	files []namedFile

	// dewey holds the Dewey-ordered list and the rank-ordered list, in
	// that (fixed) order.
	dewey [2]*listBuilder
}

type namedFile struct {
	name string
	pf   *storage.PageFile
}

func newVariantBuilders(fs storage.FS, dir string) (*variantBuilders, error) {
	b := &variantBuilders{fs: fs}
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
	for i, names := range [2][2]string{
		{fileDILPost, fileDILSkip},
		{fileRDILPost, fileRDILSkip},
	} {
		b.dewey[i] = &listBuilder{
			skip: names[1],
			w:    newPostWriter(create(names[0])),
			refs: make(map[string][]BlockRef),
		}
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

// addTerm writes one term's postings into every variant.
func (b *variantBuilders) addTerm(term string, posts []Posting) error {
	// DIL: Dewey order (the natural order postings were collected in).
	if err := b.dewey[0].add(term, posts, nil); err != nil {
		return err
	}
	// RDIL: the whole list in rank order. HDIL's rank prefix is its head.
	return b.dewey[1].add(term, posts, rankOrder(posts))
}

// add writes term's postings (in the order given by perm, or natural
// order when perm is nil) as delta-coded blocks, recording the list's
// block refs.
func (l *listBuilder) add(term string, posts []Posting, perm []int) error {
	bw := blockListWriter{w: l.w}
	for i := range posts {
		p := &posts[i]
		if perm != nil {
			p = &posts[perm[i]]
		}
		if err := bw.add(p.ID, p.Rank, p.Positions); err != nil {
			return err
		}
	}
	refs, err := bw.finish()
	if err != nil {
		return err
	}
	l.refs[term] = refs
	return nil
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

// finish flushes all writers, syncs every page file, persists the skip
// indexes atomically, and returns the size+checksum of every data file
// for the meta.json commit record. Fault injection numbers write
// boundaries by execution order, so every step runs in a fixed order:
// page files, then skip indexes.
func (b *variantBuilders) finish(dir string, terms []string) (map[string]storage.FileSum, error) {
	for _, l := range b.dewey {
		if err := l.w.flush(); err != nil {
			return nil, err
		}
	}
	files, err := syncPageFiles(b.files)
	if err != nil {
		return nil, err
	}
	for _, l := range b.dewey {
		out, err := encodeSkipIndex(terms, l.refs)
		if err != nil {
			return nil, err
		}
		if err := storage.WriteFileAtomic(b.fs, filepath.Join(dir, l.skip), out); err != nil {
			return nil, fmt.Errorf("index: write skip index %s: %w", l.skip, err)
		}
		files[l.skip] = storage.FileSum{Size: int64(len(out)), CRC32: storage.Checksum(out)}
	}
	return files, nil
}

// syncPageFiles syncs each page file in order and returns its size and
// checksum for a manifest's Files record.
func syncPageFiles(pfs []namedFile) (map[string]storage.FileSum, error) {
	files := make(map[string]storage.FileSum)
	for _, f := range pfs {
		if err := f.pf.Sync(); err != nil {
			return nil, err
		}
		sum, err := f.pf.Checksum()
		if err != nil {
			return nil, err
		}
		files[f.name] = sum
	}
	return files, nil
}

// collectPostings gathers every term's direct postings (Dewey order: the
// order documents and their elements are walked in) from the documents
// opts.DocFilter admits, and returns them with the sorted term list.
func collectPostings(c *xmldoc.Collection, ranks []float64, opts BuildOptions) (map[string][]Posting, []string) {
	terms := make(map[string][]Posting)
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
				if len(positions) > opts.MaxPositions {
					positions = positions[:opts.MaxPositions]
				}
				terms[term] = append(terms[term], Posting{
					ID:        id,
					Elem:      g,
					Rank:      float32(ranks[g]),
					Positions: append([]uint32(nil), positions...),
				})
			}
		}
	}
	sorted := make([]string, 0, len(terms))
	for t := range terms {
		sorted = append(sorted, t)
	}
	sort.Strings(sorted)
	return terms, sorted
}
