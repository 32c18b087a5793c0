// Package xrank implements ranked keyword search over hyperlinked XML and
// HTML documents, reproducing the XRANK system of Guo, Shao, Botev and
// Shanmugasundaram (SIGMOD 2003).
//
// XRANK answers conjunctive keyword queries with the most specific XML
// elements that contain all keywords, ranked by ElemRank — a PageRank
// generalization computed at element granularity over hyperlink and
// containment edges — scaled by result specificity and two-dimensional
// keyword proximity. On a two-level corpus (HTML pages with links) it
// degenerates exactly to a PageRank-style HTML search engine, so mixed
// XML/HTML collections work in one framework.
//
// Basic use:
//
//	e := xrank.NewEngine(nil)
//	e.AddXML("proceedings", xmlReader)
//	info, err := e.Build()
//	results, err := e.Search("xql language")
//
// The engine persists its indexes (and the source documents) in the
// configured directory; xrank.OpenEngine reopens it later.
package xrank

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"xrank/internal/breaker"
	"xrank/internal/cache"
	"xrank/internal/elemrank"
	"xrank/internal/index"
	"xrank/internal/query"
	"xrank/internal/storage"
	"xrank/internal/text"
	"xrank/internal/xmldoc"
)

// Config tunes an Engine. The zero value (or nil) selects the paper's
// experimental settings. Build stores the settings that define the
// index directory — Decay, MaxPositions, Shards, AnswerTags and
// MaxSegments — in its engine.json, and OpenEngine reads them back; the
// others are the caller's on every open.
type Config struct {
	// IndexDir is where the index files and document store live. Empty
	// means a fresh temporary directory (removed on Close).
	IndexDir string

	// Decay is the per-level rank decay for result specificity
	// (Section 2.3.2.1), in (0,1]. Default 0.75.
	Decay float64

	// MaxPositions caps the posList stored per index entry; see the
	// DESIGN document. Zero selects the default (1024).
	MaxPositions int
	// Deprecated: SkipNaive is ignored. The naive baselines (Naive-ID,
	// Naive-Rank) are never part of an engine's index; only the
	// experiment harness builds them. The field remains so configurations
	// that set it still decode.
	SkipNaive bool
	// Deprecated: BlockPostings is ignored. Every index is written and read
	// in the one postings format, block-encoded lists with per-term skip
	// indexes; the field remains so configurations that set it still
	// decode.
	BlockPostings bool

	// Shards partitions the index by the Dewey document-ID component:
	// each document's postings live entirely in shard
	// index.ShardOf(doc, Shards), and queries run one merge per shard in
	// parallel, combining the per-shard top-m's. Results — scores, order,
	// tie-breaks — are identical for every shard count; see DESIGN.md.
	// Zero means one shard.
	Shards int

	// AnswerTags optionally restricts results to elements with these tags
	// (the pre-defined answer nodes of Section 2.2). Each raw result is
	// mapped to its nearest ancestor-or-self answer node; HTML documents'
	// roots are always answer nodes. Empty means every element is an
	// answer node.
	AnswerTags []string

	// CacheBytes bounds the in-memory query result cache: repeated
	// queries with the same canonical fingerprint (normalized keywords +
	// algorithm + k + ranking options) are answered from memory without
	// touching the index. Entries are guarded by the engine's generation
	// counter — Build, AddDocs and ColdCache bump it, while DeleteDoc
	// evicts only the entries mentioning the deleted document, so a
	// stale result is never served. Zero (the default) disables the cache;
	// the serve command enables a 32 MiB cache unless told otherwise.
	// Degraded (partial-shard) results are never cached. Not stored: a
	// reopened engine sets it with ConfigureResultCache.
	CacheBytes int64
	// CoalesceQueries collapses concurrent identical queries into one
	// execution (singleflight): N callers asking the same canonical
	// query share one merge, each still honoring its own context
	// deadline. Off by default; the serve command turns it on. Not
	// stored: a reopened engine sets it with SetCoalesceQueries.
	CoalesceQueries bool

	// MaxSegments bounds the live segments AddDocs leaves behind: each
	// batch folds the trailing segments that are no larger than its new
	// segment already holds, and as many more as it takes to keep at most
	// MaxSegments live (see DESIGN.md, "Folds"). Zero selects 4; negative
	// sets no count bound, leaving the size rule alone. CompactOnce folds
	// every segment into one on demand.
	MaxSegments int

	// FS is the file system every persisted artifact goes through (nil =
	// the real file system). Fault-injection and crash-simulation tests
	// substitute a storage.FaultFS.
	FS storage.FS `json:"-"`
}

func (c *Config) fill() {
	if c.Decay == 0 {
		c.Decay = 0.75
	}
}

// ErrBudgetExceeded is returned (wrapped) by SearchContext when a query
// exhausts its SearchOptions.MaxPageReads budget of device page reads.
var ErrBudgetExceeded = storage.ErrBudgetExceeded

// ErrDegraded is returned (wrapped) by SearchContext when index shards
// had to be excluded from the query and SetFailOnDegraded demanded
// all-or-nothing answers.
var ErrDegraded = errors.New("xrank: degraded: unhealthy shards excluded")

// ErrCorrupt is wrapped by every checksum, size or format-version
// mismatch OpenEngine detects in persisted state.
var ErrCorrupt = storage.ErrCorrupt

// ErrNoKeywords is returned (wrapped) by SearchContext for a query
// that tokenizes to no keywords: an invalid request, not a failure.
var ErrNoKeywords = errors.New("xrank: query contains no keywords")

// ErrClosed is returned by a query that starts executing after Close.
var ErrClosed = errors.New("xrank: engine closed")

// Engine is an XRANK search engine over one document collection.
//
// Once built, an Engine serves queries concurrently: any number of
// Search/SearchDetailed/SearchContext calls may run in
// parallel, and DeleteDoc may interleave with them. Each query runs
// under a private storage.ExecContext, so its QueryStats.IO is exactly
// its own page traffic regardless of concurrency; IOStats and
// ShardIOStats sum those. ColdCache and the shared buffer pools are
// intentionally not per-query: see ColdCache for what it means while
// queries are in flight.
type Engine struct {
	cfg     Config
	col     *xmldoc.Collection
	tempDir bool
	built   bool
	docs    []docEntry // document store manifest
	met     *engineMetrics

	// snapMu guards the queryable snapshot: col, rank, docs, segs,
	// rankVer and nextSeg. Queries hold the read lock for their entire
	// execution; AddDocs and CompactOnce take the write lock only for
	// the in-memory field swap after their manifest has committed, so
	// acquiring it doubles as the drain barrier proving no in-flight
	// query still pins cursors into a retired segment. Lock order:
	// snapMu before mu.
	snapMu sync.RWMutex
	// updateMu serializes the mutators (AddDocs, DeleteDoc, CompactOnce)
	// against each other without blocking queries.
	updateMu sync.Mutex

	// segs are the live immutable index segments in commit order (never
	// empty once built). See segment.go.
	segs []*engineSegment
	// rankVer is the global ElemRank version; each AddDocs batch
	// recomputes every element's rank and bumps it, and so does
	// solveRanks when the ranks it recomputes are not the ones the
	// segments were baked from.
	rankVer int
	// rank is the ElemRank of the current rank version. Replaced only
	// with the snapshot, so a failed batch, whose document IDs are
	// reused, leaves no solution behind.
	rank rankState
	// retiredRanks names the ranks blob that vouched for the ranks of a
	// manifest written while ranks were stored; the next commit removes it.
	retiredRanks string
	// nextSeg is the next unused segment ID.
	nextSeg int

	// mu guards deleted. Queries may run concurrently; DeleteDoc may run
	// concurrently with them.
	mu sync.RWMutex
	// deleted holds tombstoned document IDs; their elements are filtered
	// from results at query time (Section 4.5).
	deleted map[uint32]bool

	// gen is the cache-invalidation generation: result-cache entries
	// are stored under the generation current when their execution
	// began, and served only while it is still current. Build, AddDocs
	// and ColdCache bump it — O(1) whole-cache invalidation. DeleteDoc
	// does not: it evicts exactly the cached results that mention the
	// tombstoned document (see invalidateDocResults).
	gen atomic.Uint64
	// rcache is the query result cache (nil when Config.CacheBytes
	// leaves it disabled).
	rcache *cache.Cache
	// flights coalesces concurrent identical queries when
	// Config.CoalesceQueries is set.
	flights cache.Group

	// pageWrites counts the index pages every segment build so far wrote
	// (Build, AddDocs, compaction); IOStats reports it as Writes.
	pageWrites atomic.Int64
	// shardIO is the I/O of every query executed since the last
	// ColdCache, by shard (ShardIOStats; nil before Build), guarded by
	// ioMu.
	ioMu    sync.Mutex
	shardIO []storage.Stats

	// failOnDegraded is SetFailOnDegraded's strict mode.
	failOnDegraded bool
}

type docEntry struct {
	Name    string `json:"name"`
	File    string `json:"file"`
	HTML    bool   `json:"html"`
	Deleted bool   `json:"deleted,omitempty"`
	// Size and CRC32 checksum the document-store file so OpenEngine can
	// detect a truncated or bit-rotted source document before reparsing it.
	Size  int64  `json:"size"`
	CRC32 uint32 `json:"crc32"`

	raw []byte `json:"-"` // pending document-store bytes (until Build)
}

// BuildInfo summarizes a Build: the ElemRank computation and the on-disk
// index component sizes (the Table 1 measurements).
type BuildInfo struct {
	NumDocs     int
	NumElements int
	Terms       int
	// ElemRankIterations is the power-iteration count of the largest
	// connected component (ElemRank is solved per component; see
	// computeRanks); ElemRankConverged reports that every component
	// converged. For a fully linked collection that is the one global
	// solve.
	ElemRankIterations int
	ElemRankConverged  bool
	ElemRankTime       time.Duration
	IndexBuildTime     time.Duration
	Sizes              index.BuildStats
	DanglingLinks      int
	ResolvedLinks      int
}

// NewEngine creates an empty engine. A nil cfg selects all defaults.
func NewEngine(cfg *Config) *Engine {
	var c Config
	if cfg != nil {
		c = *cfg
	}
	c.fill()
	e := &Engine{cfg: c, col: xmldoc.NewCollection(), met: newEngineMetrics(), deleted: map[uint32]bool{}}
	if c.CacheBytes > 0 {
		e.rcache = cache.New(c.CacheBytes, 0)
	}
	return e
}

// AddXML parses and adds an XML document under a collection-unique name
// (the name is the target of XLink references). Must precede Build.
func (e *Engine) AddXML(name string, r io.Reader) error {
	return e.add(name, r, false)
}

// AddHTML parses and adds an HTML document. HTML pages are modeled as a
// single element (presentation structure dropped), so they behave like
// classic web search documents.
func (e *Engine) AddHTML(name string, r io.Reader) error {
	return e.add(name, r, true)
}

// AddFile adds a document from disk, deciding XML vs HTML by extension
// (.html/.htm are HTML). The file's base name becomes the document name.
func (e *Engine) AddFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return e.add(filepath.Base(path), f, isHTMLName(path))
}

func (e *Engine) add(name string, r io.Reader, html bool) error {
	if e.built {
		return fmt.Errorf("xrank: collection is sealed after Build (document-granularity updates require a rebuild; see Section 4.5)")
	}
	// Tee the raw bytes into the document store so the engine can be
	// reopened later.
	raw, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("xrank: read %s: %w", name, err)
	}
	if e.col.DocByName(name) != nil {
		return fmt.Errorf("xrank: duplicate document name %q", name)
	}
	return e.addVersion(name, raw, html)
}

// rankState is one rank version's ElemRank: the ranks by global element
// index and the per-component solutions behind them, which the next
// AddDocs reuses for every component it leaves unchanged, plus the
// ranks' rankCRC. It is derived, never stored: Build and AddDocs solve
// it, and an opened engine re-solves it (solveRanks); until then
// Ranking is nil and crc is the one the segments were baked from.
type rankState struct {
	*elemrank.Ranking
	crc uint32
}

// solveRanks solves the current rank version's ElemRank if OpenEngine
// deferred it (every segment fresh) to its first use: ElemRank, AddDocs
// or CompactOnce. If the ranks' CRC is not the one the segments were
// baked from — a binary whose ElemRank computes other bits — every
// segment turns stale, as after an AddDocs that moved the ranks: answers
// then equal a rebuild by this binary, and the next fold re-bakes.
// Callers hold updateMu (or own the engine, at open).
func (e *Engine) solveRanks() error {
	if e.rank.Ranking != nil {
		return nil
	}
	r, err := e.computeRanks(e.col, nil)
	if err != nil {
		return err
	}
	e.snapMu.Lock()
	defer e.snapMu.Unlock()
	if r.crc != e.rank.crc {
		e.rankVer++
		e.gen.Add(1) // results cached from the baked ranks are void
	}
	e.rank = r
	return nil
}

// computeRanks runs the paper's ElemRank computation over col. Build,
// AddDocs and solveRanks use it: ElemRank is a global fixpoint, but it
// decomposes exactly over the collection's connected components (see
// elemrank.ComputeComponents), so only the components missing from prev —
// the solutions of the last committed rank version — are solved.
func (e *Engine) computeRanks(col *xmldoc.Collection, prev map[string]*elemrank.Component) (rankState, error) {
	t0 := time.Now()
	r, err := elemrank.ComputeComponents(col, elemrank.DefaultParams(), prev)
	if err != nil {
		return rankState{}, err
	}
	e.met.rankTime.Add(int64(time.Since(t0)))
	e.met.componentsSolved.Add(int64(r.Solved))
	e.met.elementsSolved.Add(int64(r.ElementsSolved))
	return rankState{r, rankCRC(r.Scores)}, nil
}

// Build computes ElemRanks and commits the whole collection as segment 0:
// documents and the segment directory first, then engine.json and
// finally segments.json, the commit point. The collection is sealed
// afterwards; incremental AddDocs batches land in delta segments beside
// segment 0.
func (e *Engine) Build() (*BuildInfo, error) {
	if e.built {
		return nil, fmt.Errorf("xrank: already built")
	}
	if e.col.NumDocs() == 0 {
		return nil, fmt.Errorf("xrank: no documents added")
	}
	dir := e.cfg.IndexDir
	if dir == "" {
		td, err := os.MkdirTemp("", "xrank-*")
		if err != nil {
			return nil, err
		}
		dir, e.cfg.IndexDir, e.tempDir = td, td, true
	}

	info := &BuildInfo{NumDocs: e.col.NumDocs(), NumElements: e.col.NumElements()}

	t0 := time.Now()
	rank, err := e.computeRanks(e.col, nil)
	if err != nil {
		return nil, err
	}
	info.DanglingLinks = rank.Links.Dangling
	info.ResolvedLinks = rank.Links.Resolved
	info.ElemRankTime = time.Since(t0)
	info.ElemRankIterations = rank.Iterations
	info.ElemRankConverged = rank.Converged
	e.rank = rank

	if err := e.writeDocs(e.docs, 0); err != nil {
		return nil, err
	}
	t1 := time.Now()
	seg, stats, err := e.buildSegment(0, 0, e.col, rank.Scores, allDocIDs(e.col.NumDocs()), e.cfg.FS)
	if err != nil {
		return nil, err
	}
	info.IndexBuildTime = time.Since(t1)
	info.Sizes = *stats
	info.Terms = stats.Meta.Terms

	segs := []*engineSegment{seg}
	c := e.cfg
	err = storage.WriteManifestAtomic(e.fs(), filepath.Join(dir, fileEngine), engineManifest{Config: storedConfig{
		Decay: c.Decay, MaxPositions: c.MaxPositions, Shards: c.Shards, AnswerTags: c.AnswerTags, MaxSegments: c.MaxSegments}})
	if err == nil {
		err = e.commitSegments(1, 0, rank.crc, e.docs, segs)
	}
	if err != nil {
		seg.ix.Close()
		return nil, err
	}
	e.segs, e.rankVer, e.nextSeg = segs, 0, 1
	e.built = true
	e.met.shards.Set(int64(seg.ix.NumShards()))
	e.shardIO = make([]storage.Stats, seg.ix.NumShards())
	e.met.segments.Set(1)
	e.updateSuggestGauge()
	e.gen.Add(1) // anything cached against the pre-build engine is void
	return info, nil
}

// Close releases every segment's index files and removes the index
// directory if it was a temporary one. It waits for executing queries; a
// query that starts executing afterwards fails with ErrClosed.
func (e *Engine) Close() error {
	e.snapMu.Lock()
	defer e.snapMu.Unlock()
	var err error
	for _, s := range e.segs {
		if cerr := s.ix.Close(); err == nil {
			err = cerr
		}
	}
	e.segs = nil
	if e.tempDir {
		os.RemoveAll(e.cfg.IndexDir)
	}
	return err
}

// ColdCache drops all index buffer pools and zeroes IOStats and
// ShardIOStats, simulating the paper's cold-operating-system-cache
// measurement protocol. It is an engine-wide, single-tenant measurement
// knob: calling it while other queries run is race-free but evicts their
// cached pages, and a query in flight across it is counted in full when
// it finishes (its own QueryStats.IO is unaffected).
func (e *Engine) ColdCache() error {
	e.snapMu.RLock()
	defer e.snapMu.RUnlock()
	if len(e.segs) == 0 {
		return fmt.Errorf("xrank: not built")
	}
	// A cold measurement must not be answered from the result cache
	// either: bump the generation so prior results read as stale.
	e.gen.Add(1)
	var err error
	for _, s := range e.segs {
		for _, ix := range s.ix.Shards() {
			if cerr := ix.ColdCache(); err == nil {
				err = cerr
			}
		}
	}
	e.ioMu.Lock()
	clear(e.shardIO)
	e.ioMu.Unlock()
	return err
}

// IOStats returns cumulative page-level I/O statistics: as reads, hits
// and the rest the sum of every executed query's QueryStats.IO since the
// last ColdCache (failed queries and segments folded since included;
// result-cache hits and coalesced waiters read nothing), and as Writes
// the index pages written by every segment build (Build, AddDocs,
// compaction) over the engine's lifetime. Between two ColdCache calls no
// count ever decreases.
func (e *Engine) IOStats() storage.Stats {
	e.ioMu.Lock()
	defer e.ioMu.Unlock()
	var st storage.Stats
	for _, s := range e.shardIO {
		st.Add(s)
	}
	st.Writes = e.pageWrites.Load()
	return st
}

// countShardIO adds one query's I/O by shard (query.ShardReport.ShardIO)
// to the engine's totals. Build sizes them to the first segment's shard
// count; a later segment with more shards (only a hand-edited directory
// has one) extends them.
func (e *Engine) countShardIO(per []storage.Stats) {
	e.ioMu.Lock()
	defer e.ioMu.Unlock()
	if n := len(per) - len(e.shardIO); n > 0 {
		e.shardIO = append(e.shardIO, make([]storage.Stats, n)...)
	}
	for s, st := range per {
		e.shardIO[s].Add(st)
	}
}

// Collection and index accessors for the benchmark harness and tests.

// NumDocs returns the number of documents.
func (e *Engine) NumDocs() int {
	e.snapMu.RLock()
	defer e.snapMu.RUnlock()
	return e.col.NumDocs()
}

// NumElements returns the number of element nodes.
func (e *Engine) NumElements() int {
	e.snapMu.RLock()
	defer e.snapMu.RUnlock()
	return e.col.NumElements()
}

// NumShards returns the number of index partitions every segment is
// split into (0 before Build).
func (e *Engine) NumShards() int {
	e.snapMu.RLock()
	defer e.snapMu.RUnlock()
	if len(e.segs) == 0 {
		return 0
	}
	return e.segs[0].ix.NumShards()
}

// ShardIOStats returns IOStats' reads and hits per shard, in shard
// order (nil before Build): every executed query's partitions of that
// shard since the last ColdCache, in whichever segment they ran, each
// read classified as sequential or random within its own partition's
// access stream. Summed over the shards they are IOStats less its Writes.
func (e *Engine) ShardIOStats() []storage.Stats {
	e.ioMu.Lock()
	defer e.ioMu.Unlock()
	return slices.Clone(e.shardIO)
}

// ShardHealth is a snapshot of one shard's availability, surfaced through
// the /api/shards endpoint.
type ShardHealth struct {
	Shard int `json:"shard"`
	breaker.Health
}

// ShardHealth returns every shard's availability snapshot, in shard
// order (nil before Build): whether it serves queries, its
// consecutive-failure streak, and the last error that excluded it. Each
// segment tracks its own shards; a shard reads as its worst segment
// (unhealthy before healthy, then the longer failure streak).
func (e *Engine) ShardHealth() []ShardHealth {
	e.snapMu.RLock()
	defer e.snapMu.RUnlock()
	if len(e.segs) == 0 {
		return nil
	}
	keys := make([]int, e.segs[0].ix.NumShards())
	out := make([]ShardHealth, len(keys))
	for i := range keys {
		keys[i] = i
		out[i] = ShardHealth{i, breaker.Health{Healthy: true}}
	}
	for _, s := range e.segs {
		for i, h := range s.health.Health(keys) {
			if w := &out[i]; (w.Healthy && !h.Healthy) || (w.Healthy == h.Healthy && h.Failures > w.Failures) {
				w.Health = h
			}
		}
	}
	return out
}

// ResetShardHealth returns every shard of every segment to the healthy
// state — the operator's lever after replacing or remounting a failed
// device.
func (e *Engine) ResetShardHealth() {
	e.snapMu.RLock()
	defer e.snapMu.RUnlock()
	for _, s := range e.segs {
		s.health.Reset()
	}
	e.met.unhealthy.Set(0)
}

// unhealthyShards counts the shards excluded from queries in at least
// one segment. Callers hold snapMu.
func (e *Engine) unhealthyShards() int {
	n := 0
	for sh := 0; sh < e.segs[0].ix.NumShards(); sh++ {
		for _, s := range e.segs {
			if s.health.Open(sh) {
				n++
				break
			}
		}
	}
	return n
}

// SetFailOnDegraded makes queries fail with ErrDegraded instead of
// returning partial results when index shards had to be excluded
// (device faults, unhealthy shards). The default serves the healthy
// remainder with QueryStats.Degraded set. Call before serving queries;
// it is not synchronized with in-flight searches.
func (e *Engine) SetFailOnDegraded(v bool) { e.failOnDegraded = v }

// ConfigureResultCache replaces the query result cache with one bounded
// to the given byte size (<= 0 disables it), discarding all cached
// results. Like SetFailOnDegraded it is a pre-serving knob: call it
// before queries are in flight.
func (e *Engine) ConfigureResultCache(bytes int64) {
	e.cfg.CacheBytes = bytes
	if bytes > 0 {
		e.rcache = cache.New(bytes, 0)
	} else {
		e.rcache = nil
	}
}

// SetCoalesceQueries sets Config.CoalesceQueries (the serve command's
// -coalesce flag). Call before serving queries.
func (e *Engine) SetCoalesceQueries(v bool) { e.cfg.CoalesceQueries = v }

// Generation returns the engine's cache-invalidation generation. Build,
// AddDocs and ColdCache bump it (DeleteDoc instead evicts the entries
// that mention the deleted document); result-cache entries from an
// older generation are never served.
func (e *Engine) Generation() uint64 { return e.gen.Load() }

// CacheStats describes the query result cache and coalescing activity.
type CacheStats struct {
	// Enabled reports whether a result cache is configured.
	Enabled bool `json:"enabled"`
	// Capacity, Bytes and Entries describe occupancy; Hits, Misses,
	// Stale and Evictions are cumulative counters (Stale counts lookups
	// that found an entry from an older generation and dropped it).
	Capacity  int64 `json:"capacity_bytes"`
	Bytes     int64 `json:"bytes"`
	Entries   int   `json:"entries"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Stale     int64 `json:"stale"`
	Evictions int64 `json:"evictions"`
	// Coalesced counts queries served by joining another caller's
	// in-flight execution rather than running their own.
	Coalesced int64 `json:"coalesced"`
	// Generation is the current cache-invalidation generation.
	Generation uint64 `json:"generation"`
}

// CacheStats snapshots the result cache's counters (all zero, Enabled
// false, when the cache is disabled; Coalesced counts even then).
func (e *Engine) CacheStats() CacheStats {
	st := CacheStats{
		Coalesced:  e.met.coalesced.Value(),
		Generation: e.gen.Load(),
	}
	if e.rcache == nil {
		return st
	}
	cs := e.rcache.Stats()
	st.Enabled = true
	st.Capacity = cs.Capacity
	st.Bytes = cs.Bytes
	st.Entries = cs.Entries
	st.Hits = cs.Hits
	st.Misses = cs.Misses
	st.Stale = cs.Stale
	st.Evictions = cs.Evictions
	return st
}

// fs returns the engine's file system (the real one unless Config.FS
// substitutes a faulty double).
func (e *Engine) fs() storage.FS { return storage.DefaultFS(e.cfg.FS) }

// ElemRank returns the computed ElemRank of the element identified by the
// dotted Dewey ID (e.g. "0.2.1"), or an error if it does not exist.
func (e *Engine) ElemRank(deweyID string) (float64, error) {
	if e.built {
		e.updateMu.Lock()
		err := e.solveRanks()
		e.updateMu.Unlock()
		if err != nil {
			return 0, err
		}
	}
	e.snapMu.RLock()
	defer e.snapMu.RUnlock()
	el, err := e.elementAt(deweyID)
	if err != nil {
		return 0, err
	}
	return e.rank.Scores[e.col.GlobalIndex(el)], nil
}

// queryOptions converts engine config to query options.
func (e *Engine) queryOptions(topM int) query.Options {
	o := query.DefaultOptions()
	o.TopM = topM
	o.Decay = e.cfg.Decay
	return o
}

// tokenizeQuery splits a free-text query into normalized keywords.
func tokenizeQuery(q string) []string { return text.Tokenize(q) }
