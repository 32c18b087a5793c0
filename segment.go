package xrank

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"path/filepath"
	"sort"
	"strings"

	"xrank/internal/breaker"
	"xrank/internal/index"
	"xrank/internal/query"
	"xrank/internal/storage"
	"xrank/internal/xmldoc"
)

// Segment-based incremental indexing. The paper handles additions by
// rebuilding (Section 4.5); this layer amortizes that: Build commits the
// whole collection as segment 0, and each AddDocs batch goes into one
// immutable segment built over the new documents plus the small trailing
// segments it folds (size-tiered, see foldPoint in compact.go). Queries
// merge the per-segment top-m's (every scoring decision is
// intra-document and every document lives in exactly one segment, so
// the merge is exact).
//
// ElemRank is global: adding any document changes N_d and the link
// graph, so every element's rank moves with each batch. Each segment
// therefore records the rank version its postings were baked under;
// segments at an older version are "stale" and queries substitute the
// current global ElemRanks at merge time (rounded through float32,
// matching what a rebuild would bake into the postings — scores stay
// bit-identical to a from-scratch build). Because the rank-ordered
// lists of a stale segment are sorted by outdated ranks, the threshold
// algorithms are unsound there; stale segments route RDIL/HDIL to DIL.
// The ranks themselves are derived, never stored: a reopened engine
// re-solves them from the reparsed documents (solveRanks), and
// segments.json records only their CRC (rankCRC), so that a binary whose
// ElemRank computes different bits serves every segment as stale rather
// than mixing two computations.
//
// Durability: every mutation — Build, AddDocs, CompactOnce, DeleteDoc —
// writes its document-store files and segment directory first, all
// under fresh names (inert orphans until referenced); segments.json is
// then atomically replaced and is the sole commit point. A crash
// anywhere leaves the previous manifest — and thus the previous engine
// state, or for Build no engine at all — fully intact.

// fileSegments is the index directory's manifest and commit point.
const fileSegments = "segments.json"

// engineSegment is one live immutable segment.
type engineSegment struct {
	id      int
	dir     string // "seg-NNNNNN", relative to IndexDir
	rankVer int    // ElemRank version the postings were baked under
	docs    []uint32
	ix      *index.Sharded
	// health is the segment's per-shard breaker (query.NewHealth): a new
	// segment starts with every shard healthy.
	health *breaker.Breaker[int]
	// sug is the segment's autosuggest dictionary (nil for a segment of a
	// directory built with suggestions disabled); see suggest.go.
	sug *suggestTrie
}

// segmentEntry is one segment in the persisted manifest.
type segmentEntry struct {
	ID      int      `json:"id"`
	Dir     string   `json:"dir"`
	RankVer int      `json:"rank_ver"`
	Docs    []uint32 `json:"docs"`
}

// segmentsManifest is the segments.json payload: everything about the
// engine that changes after Build (engine.json holds the Config, which
// never does).
type segmentsManifest struct {
	NextSeg int `json:"next_seg"`
	RankVer int `json:"rank_ver"`
	// RankCRC is rankCRC of the rank version's ElemRanks. A manifest
	// written while ranks were stored has none; its ranks blob vouches for
	// them instead (see OpenEngineFS).
	RankCRC  *uint32        `json:"rank_crc,omitempty"`
	Docs     []docEntry     `json:"docs"`
	Segments []segmentEntry `json:"segments"`
}

// validateSegmentsManifest checks the structural invariants a
// well-formed manifest must satisfy: at least one segment, unique IDs
// below NextSeg, sane directory names, and the segments partitioning
// the document list exactly. The fuzz target drives this directly.
func validateSegmentsManifest(sm *segmentsManifest) error {
	if len(sm.Segments) == 0 {
		return fmt.Errorf("no segments")
	}
	if sm.RankVer < 0 {
		return fmt.Errorf("negative rank_ver %d", sm.RankVer)
	}
	owner := make([]bool, len(sm.Docs))
	ids := make(map[int]bool, len(sm.Segments))
	for _, seg := range sm.Segments {
		if seg.ID < 0 || seg.ID >= sm.NextSeg {
			return fmt.Errorf("segment id %d outside [0, next_seg %d)", seg.ID, sm.NextSeg)
		}
		if ids[seg.ID] {
			return fmt.Errorf("duplicate segment id %d", seg.ID)
		}
		ids[seg.ID] = true
		if seg.Dir == "" || seg.Dir == "." || seg.Dir == ".." || strings.ContainsAny(seg.Dir, `/\`) {
			return fmt.Errorf("segment %d: invalid dir %q", seg.ID, seg.Dir)
		}
		if seg.RankVer < 0 || seg.RankVer > sm.RankVer {
			return fmt.Errorf("segment %d: rank_ver %d outside [0, %d]", seg.ID, seg.RankVer, sm.RankVer)
		}
		for _, d := range seg.Docs {
			if int(d) >= len(owner) {
				return fmt.Errorf("segment %d: document %d beyond the %d-entry manifest", seg.ID, d, len(owner))
			}
			if owner[d] {
				return fmt.Errorf("document %d owned by two segments", d)
			}
			owner[d] = true
		}
	}
	for d, ok := range owner {
		if !ok {
			return fmt.Errorf("document %d not owned by any segment", d)
		}
	}
	return nil
}

// rankCRC is the CRC-32C of ranks' float64 bits, little-endian: the
// fingerprint segments.json records of the ElemRanks its segments were
// baked from.
func rankCRC(ranks []float64) uint32 {
	tab, crc := crc32.MakeTable(crc32.Castagnoli), uint32(0)
	var b [8]byte
	for _, r := range ranks {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(r))
		crc = crc32.Update(crc, tab, b[:])
	}
	return crc
}

func segmentDirName(id int) string { return fmt.Sprintf("seg-%06d", id) }

// allDocIDs lists the documents of an n-document collection.
func allDocIDs(n int) []uint32 {
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = uint32(i)
	}
	return ids
}

// writeDocs persists the document-store files of docs[from:], filling in
// their manifest entries.
func (e *Engine) writeDocs(docs []docEntry, from int) error {
	fs := e.fs()
	docsDir := filepath.Join(e.cfg.IndexDir, "docs")
	if err := fs.MkdirAll(docsDir); err != nil {
		return err
	}
	for i := from; i < len(docs); i++ {
		d := &docs[i]
		ext := ".xml"
		if d.HTML {
			ext = ".html"
		}
		d.File = fmt.Sprintf("%06d%s", i, ext)
		if err := storage.WriteFileAtomic(fs, filepath.Join(docsDir, d.File), d.raw); err != nil {
			return err
		}
		d.Size = int64(len(d.raw))
		d.CRC32 = storage.Checksum(d.raw)
		d.raw = nil // the store owns the bytes now
	}
	return nil
}

// buildSegment is the one segment writer: it builds segment id's sharded
// index over docs (document IDs of col, baked at ranks/rankVer) through
// buildFS, opens it, and builds and persists its suggest dictionary.
// Everything lands inside the fresh seg-NNNNNN directory, an orphan until
// a commitSegments names it.
func (e *Engine) buildSegment(id, rankVer int, col *xmldoc.Collection, ranks []float64, docs []uint32, buildFS storage.FS) (*engineSegment, *index.BuildStats, error) {
	seg := &engineSegment{id: id, dir: segmentDirName(id), rankVer: rankVer, docs: docs, health: query.NewHealth()}
	path := filepath.Join(e.cfg.IndexDir, seg.dir)
	opts := index.BuildOptions{
		MaxPositions: e.cfg.MaxPositions,
		FS:           buildFS,
	}
	if len(docs) < col.NumDocs() {
		in := make(map[uint32]bool, len(docs))
		for _, d := range docs {
			in[d] = true
		}
		opts.DocFilter = func(doc uint32) bool { return in[doc] }
	}
	st, err := index.BuildSharded(col, ranks, path, opts, e.cfg.Shards)
	if err != nil {
		return nil, nil, err
	}
	e.pageWrites.Add(st.PageWrites)
	if seg.ix, err = e.openSegmentIndex(path); err != nil {
		return nil, nil, err
	}
	seg.sug = buildSegmentSuggest(col, ranks, docs)
	if err := e.writeSegmentSuggest(path, seg.sug); err != nil {
		seg.ix.Close()
		return nil, nil, err
	}
	return seg, st, nil
}

func (e *Engine) openSegmentIndex(path string) (*index.Sharded, error) {
	return index.OpenSharded(path, index.OpenOptions{FS: e.cfg.FS})
}

// commitSegments atomically replaces segments.json — the commit point of
// every mutation. Before this write a reopen sees the old state; after
// it, the given one. crc is the rank version's rankCRC.
func (e *Engine) commitSegments(nextSeg, rankVer int, crc uint32, docs []docEntry, segs []*engineSegment) error {
	sm := &segmentsManifest{NextSeg: nextSeg, RankVer: rankVer, RankCRC: &crc, Docs: docs}
	for _, s := range segs {
		sm.Segments = append(sm.Segments, segmentEntry{ID: s.id, Dir: s.dir, RankVer: s.rankVer, Docs: s.docs})
	}
	if err := storage.WriteManifestAtomic(e.fs(), filepath.Join(e.cfg.IndexDir, fileSegments), sm); err != nil {
		return err
	}
	if e.retiredRanks != "" {
		// The manifest now records the rank CRC the blob stood in for.
		e.fs().Remove(filepath.Join(e.cfg.IndexDir, e.retiredRanks))
		e.retiredRanks = ""
	}
	return nil
}

// parseVersion parses raw, an HTML page if html, as the newest version
// of name in col.
func parseVersion(col *xmldoc.Collection, name string, raw []byte, html bool) (*xmldoc.Document, error) {
	if html {
		return col.AddHTMLVersion(name, bytes.NewReader(raw), nil)
	}
	return col.AddXMLVersion(name, bytes.NewReader(raw), nil)
}

func isHTMLName(name string) bool {
	ext := filepath.Ext(name)
	return ext == ".html" || ext == ".htm"
}

// AddDocs incrementally adds documents to a built engine: the batch is
// parsed into the collection, global ElemRanks are recomputed (adding
// any document moves every element's rank; only the connected components
// the batch creates or changes are solved, the rest rescaled), and one
// segment covering the
// new documents plus the trailing segments the size-tiered rule folds
// (see foldPoint; at most Config.MaxSegments stay live) is built and
// committed via segments.json — the full index is rebuilt only once the
// deltas together reach the base's size. A name that already
// exists replaces that document: the old version is tombstoned and the
// new one takes over its name. Names ending in .html/.htm parse as
// HTML. On error the engine is unchanged (half-written files are
// orphans no manifest references).
//
// Scores after AddDocs are bit-identical to a from-scratch rebuild
// over the same documents; see the package comments above on stale
// segments. The whole result cache is invalidated (every cached score
// predates the new ElemRanks).
func (e *Engine) AddDocs(add map[string]io.Reader) error {
	if !e.built {
		return fmt.Errorf("xrank: AddDocs before Build")
	}
	if len(add) == 0 {
		return nil
	}
	e.updateMu.Lock()
	defer e.updateMu.Unlock()

	names := make([]string, 0, len(add))
	for n := range add {
		names = append(names, n)
	}
	sort.Strings(names)

	// Parse everything into a copy-on-write clone first: a parse error
	// must leave the live collection untouched.
	col2 := e.col.Clone()
	docs2 := append([]docEntry(nil), e.docs...)
	var shadowed []uint32
	var segDocs []uint32
	for _, n := range names {
		raw, err := io.ReadAll(add[n])
		if err != nil {
			return fmt.Errorf("xrank: read %s: %w", n, err)
		}
		if old := col2.DocByName(n); old != nil && !docs2[old.ID].Deleted {
			shadowed = append(shadowed, old.ID)
		}
		html := isHTMLName(n)
		d, err := parseVersion(col2, n, raw, html)
		if err != nil {
			return err
		}
		segDocs = append(segDocs, d.ID)
		docs2 = append(docs2, docEntry{Name: n, HTML: html, raw: raw})
	}

	if err := e.solveRanks(); err != nil {
		return err
	}
	rank2, err := e.computeRanks(col2, e.rank.Components)
	if err != nil {
		return err
	}
	rankVer2 := e.rankVer + 1

	// Durable but uncommitted: document-store files and the batch's
	// segment — which covers the batch plus the trailing segments it
	// folds, at the batch's rank version. All land under fresh names, so
	// until segments.json flips they are invisible orphans.
	if err := e.writeDocs(docs2, len(e.docs)); err != nil {
		return err
	}
	var batchBytes int64
	for _, d := range docs2[len(e.docs):] {
		batchBytes += d.Size
	}
	for _, id := range shadowed {
		docs2[id].Deleted = true
	}
	_, _, err = e.fold(e.foldPoint(batchBytes), segDocs, col2, rank2, rankVer2, docs2, e.cfg.FS, func() {
		// Queries hold the snapshot read lock end to end, so no query
		// observes a torn mix of old and new fields (or a tombstone-free
		// shadowed version).
		e.mu.Lock()
		for _, id := range shadowed {
			e.deleted[id] = true
		}
		e.mu.Unlock()
		e.col = col2
		e.rank = rank2
		e.rankVer = rankVer2
		e.docs = docs2
	})
	if err != nil {
		return err
	}

	// Every element's ElemRank changed, so every cached score is wrong:
	// this is the one update that still voids the whole result cache.
	e.gen.Add(1)
	return nil
}

// AddDoc is AddDocs for a single document.
func (e *Engine) AddDoc(name string, r io.Reader) error {
	return e.AddDocs(map[string]io.Reader{name: r})
}

// SegmentInfo describes one live segment (the /api/segments payload).
type SegmentInfo struct {
	ID      int    `json:"id"`
	Dir     string `json:"dir"`
	RankVer int    `json:"rank_ver"`
	// Stale reports the segment's baked ElemRanks predate the current
	// rank version (queries substitute the live values).
	Stale    bool `json:"stale"`
	Docs     int  `json:"docs"`
	LiveDocs int  `json:"live_docs"`
	Shards   int  `json:"shards"`
}

// Segments returns the live segments in commit order (nil before
// Build).
func (e *Engine) Segments() []SegmentInfo {
	e.snapMu.RLock()
	defer e.snapMu.RUnlock()
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]SegmentInfo, 0, len(e.segs))
	for _, s := range e.segs {
		live := 0
		for _, id := range s.docs {
			if !e.deleted[id] {
				live++
			}
		}
		out = append(out, SegmentInfo{
			ID:       s.id,
			Dir:      s.dir,
			RankVer:  s.rankVer,
			Stale:    s.rankVer != e.rankVer,
			Docs:     len(s.docs),
			LiveDocs: live,
			Shards:   s.ix.NumShards(),
		})
	}
	return out
}

// SegmentCount returns the number of live segments (0 before Build).
func (e *Engine) SegmentCount() int {
	e.snapMu.RLock()
	defer e.snapMu.RUnlock()
	return len(e.segs)
}

// RankVersion returns the current global ElemRank version (0 after
// Build, incremented by every AddDocs batch).
func (e *Engine) RankVersion() int {
	e.snapMu.RLock()
	defer e.snapMu.RUnlock()
	return e.rankVer
}

// addVersion adds raw as the newest version of name before Build; add
// refuses a second version. It and deleteDocID are also test seams: the
// differential harness replays an engine's full document history
// (including shadowed and tombstoned versions, preserving document IDs)
// into a from-scratch engine and then re-applies the tombstones by ID.
func (e *Engine) addVersion(name string, raw []byte, html bool) error {
	if e.built {
		return fmt.Errorf("xrank: collection is sealed after Build")
	}
	if _, err := parseVersion(e.col, name, raw, html); err != nil {
		return err
	}
	e.docs = append(e.docs, docEntry{Name: name, HTML: html, raw: raw})
	return nil
}

func (e *Engine) deleteDocID(id uint32) {
	e.mu.Lock()
	e.deleted[id] = true
	e.mu.Unlock()
	if int(id) < len(e.docs) {
		e.docs[id].Deleted = true
	}
}
