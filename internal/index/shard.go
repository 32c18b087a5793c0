package index

import (
	"fmt"
	"path/filepath"

	"xrank/internal/storage"
	"xrank/internal/xmldoc"
)

// Sharding partitions the inverted index by the Dewey document-ID
// component: document d lives entirely in shard ShardOf(d, S). Every
// XRANK scoring decision is intra-document (the DIL stack merge never
// carries state across a document boundary, and RDIL/HDIL probe within
// one document's Dewey subtree), so per-shard merges produce exactly the
// scores a monolithic merge would, and a global top-k is the top-k of
// the concatenated per-shard top-k's. Element IDs and Dewey IDs stay
// those of the full collection (see BuildOptions.DocFilter), which keeps
// results bit-identical across shard counts.

const (
	fileShards = "shards.json"
	// shardHashName identifies the document→shard hash so an index built
	// with one placement function is never opened with another.
	shardHashName = "fnv1a32"
)

// ShardMeta is persisted to shards.json in a sharded index directory.
type ShardMeta struct {
	NumShards int    `json:"num_shards"`
	Hash      string `json:"hash"`
}

// ShardOf maps a document (its position in the collection, i.e. the
// first Dewey component) to a shard in [0, shards). FNV-1a over the
// little-endian bytes spreads the sequential document IDs a collection
// assigns, so consecutive documents land on different shards.
func ShardOf(doc uint32, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := uint32(2166136261)
	for i := 0; i < 32; i += 8 {
		h ^= doc >> i & 0xff
		h *= 16777619
	}
	return int(h % uint32(shards))
}

func shardDir(dir string, s int) string {
	return filepath.Join(dir, fmt.Sprintf("shard%03d", s))
}

// Sharded is an opened index partitioned across one or more shards.
type Sharded struct {
	Dir string

	shards []*Index
}

// BuildSharded constructs the index in dir as shardNNN/ directories under
// a shards.json manifest (shards < 1 is one shard). Each shard holds the
// complete per-term structures — the DIL and RDIL postings files and
// their skip indexes — restricted to its documents.
func BuildSharded(c *xmldoc.Collection, ranks []float64, dir string, opts BuildOptions, shards int) (*BuildStats, error) {
	if shards < 1 {
		shards = 1
	}
	fs := storage.DefaultFS(opts.FS)
	if err := fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("index: mkdir %s: %w", dir, err)
	}
	// A caller DocFilter (the engine restricting the build to a delta
	// segment's documents) composes with the shard placement predicate.
	base := opts.DocFilter
	var total BuildStats
	for s := 0; s < shards; s++ {
		so := opts
		sn := s
		so.DocFilter = func(doc uint32) bool {
			return (base == nil || base(doc)) && ShardOf(doc, shards) == sn
		}
		st, err := Build(c, ranks, shardDir(dir, s), so)
		if err != nil {
			return nil, fmt.Errorf("index: shard %d: %w", s, err)
		}
		if s == 0 {
			total.Meta = st.Meta
			total.Meta.Terms = 0
		}
		total.Meta.DeweyEntries += st.Meta.DeweyEntries
		total.add(st)
	}
	total.Meta.Terms = countDistinctTerms(c, base)
	// shards.json is the directory's commit point: every shard
	// directory above is fully durable (each ends with its own atomic
	// meta.json), so once this manifest lands the whole index opens.
	sm := ShardMeta{NumShards: shards, Hash: shardHashName}
	if err := storage.WriteManifestAtomic(fs, filepath.Join(dir, fileShards), &sm); err != nil {
		return nil, err
	}
	return &total, nil
}

// countDistinctTerms counts the vocabulary of the documents passing
// filter (per-shard term counts overlap, so the aggregate can't just sum
// them). A nil filter covers the whole collection.
func countDistinctTerms(c *xmldoc.Collection, filter func(doc uint32) bool) int {
	seen := make(map[string]struct{})
	for _, d := range c.Docs {
		if filter != nil && !filter(d.ID) {
			continue
		}
		for _, e := range d.Elements {
			for _, tok := range e.Tokens {
				seen[tok.Term] = struct{}{}
			}
		}
	}
	return len(seen)
}

// OpenSharded opens a directory written by BuildSharded.
func OpenSharded(dir string, opts OpenOptions) (*Sharded, error) {
	fs := storage.DefaultFS(opts.FS)
	var sm ShardMeta
	if err := storage.ReadManifest(fs, filepath.Join(dir, fileShards), &sm); err != nil {
		return nil, fmt.Errorf("index: open %s: %w", dir, err)
	}
	if sm.NumShards < 1 {
		return nil, fmt.Errorf("index: shards.json declares %d shards", sm.NumShards)
	}
	if sm.Hash != shardHashName {
		return nil, fmt.Errorf("index: shard hash %q, this build understands %q", sm.Hash, shardHashName)
	}
	sh := &Sharded{Dir: dir}
	for s := 0; s < sm.NumShards; s++ {
		ix, err := Open(shardDir(dir, s), opts)
		if err != nil {
			sh.Close()
			return nil, fmt.Errorf("index: shard %d: %w", s, err)
		}
		sh.shards = append(sh.shards, ix)
	}
	return sh, nil
}

// NumShards returns the number of partitions.
func (sh *Sharded) NumShards() int { return len(sh.shards) }

// Shards returns the per-shard indexes, in shard order. Callers must not
// modify the slice.
func (sh *Sharded) Shards() []*Index { return sh.shards }

// Shard returns partition s.
func (sh *Sharded) Shard(s int) *Index { return sh.shards[s] }

// Close closes every shard, returning the first error.
func (sh *Sharded) Close() error {
	var first error
	for _, ix := range sh.shards {
		if ix == nil {
			continue
		}
		if err := ix.Close(); err != nil && first == nil {
			first = err
		}
	}
	sh.shards = nil
	return first
}
