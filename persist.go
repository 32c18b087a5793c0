package xrank

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"xrank/internal/query"
	"xrank/internal/storage"
)

// Engine persistence. An index directory always has one shape:
//
//	engine.json   — the settings that define the directory (storedConfig:
//	                decay, answer nodes, posList cap, shard count and fold
//	                bound; checksummed envelope), written once by Build
//	segments.json — document manifest, tombstones, rank version and its
//	                rank CRC, and the live segment set: the commit point of
//	                every mutation
//	docs/         — the raw source documents (sizes/CRCs in segments.json)
//	seg-NNNNNN/   — one immutable segment each: shards.json, shardNNN/
//	                index directories, suggest.bin
//
// Everything goes through the atomic-write protocol (temp file → fsync →
// rename → parent-dir fsync), and segments.json is written last, after
// everything it references is durable. A crash anywhere therefore leaves
// the previous segments.json — the previous engine state, or for a first
// Build a directory that does not open — never a half-committed one.
//
// OpenEngine reloads all of it, verifying every checksum up front;
// parsing is deterministic, so the rebuilt in-memory collection has
// identical Dewey IDs and global indexes. ElemRank is not stored: it is
// re-solved from that collection, at open when a segment is stale (its
// queries need current ranks), else at the first use of the ranks. A
// directory written while ranks were still stored holds a
// ranks-NNNNNN.bin blob and no rank CRC; open takes the CRC from the
// blob, and the next commit removes it.

// fileEngine holds the settings that define the directory.
const fileEngine = "engine.json"

// rebuildHint ends the refusal of a directory this build cannot serve.
const rebuildHint = "rebuild with `xrank index` (the sources are in docs/)"

// engineManifest is engine.json's payload. Its settings stay under
// "config", where earlier engines stored their whole Config, so every
// engine.json decodes; the keys storedConfig does not name (IndexDir, the
// serving settings, retired knobs) are ignored.
type engineManifest struct {
	Config storedConfig `json:"config"`
}

// storedConfig is what defines an index directory: its ranking (Decay,
// AnswerTags) and its layout (MaxPositions, Shards, MaxSegments). Where
// the directory lives, its file system and how it is served are the
// opener's, so the directory's bytes are a function of its history alone.
type storedConfig struct {
	Decay        float64
	MaxPositions int
	Shards       int
	AnswerTags   []string
	MaxSegments  int
	// SuggestDisabled is read, never written: a directory built with the
	// retired knob set has segments without a suggest.bin (openSegment).
	SuggestDisabled bool `json:",omitempty"`
}

// OpenEngine reopens an engine previously built with IndexDir set (or a
// still-existing temporary directory) under the settings its engine.json
// stores; the result cache, query coalescing, the slow-query threshold
// and strict degraded mode start at their defaults (off, off, 250 ms,
// off) and are set on the engine. The source documents are reparsed
// from the directory's document store, and ElemRank is recomputed from
// them (see solveRanks). Every persisted artifact — manifests, documents,
// index files — is checksum-verified before use: a torn or corrupted
// directory fails with a precise "xrank: corrupt <file>" error rather
// than opening silently wrong.
func OpenEngine(dir string) (*Engine, error) {
	return OpenEngineFS(dir, nil)
}

// OpenEngineFS is OpenEngine reading through fs (nil means the real file
// system) — the seam the fault-injection and crash-recovery tests use.
func OpenEngineFS(dir string, fs storage.FS) (*Engine, error) {
	fs = storage.DefaultFS(fs)
	var man engineManifest
	if err := storage.ReadManifest(fs, filepath.Join(dir, fileEngine), &man); err != nil {
		return nil, fmt.Errorf("xrank: open %s: %w", dir, err)
	}
	var sm segmentsManifest
	if err := storage.ReadManifest(fs, filepath.Join(dir, fileSegments), &sm); err != nil {
		if errors.Is(err, os.ErrNotExist) {
			// engine.json alone is a Build that never committed, or a
			// directory from before segments.json was the commit point.
			return nil, fmt.Errorf("xrank: open %s: %w: %s without %s; %s",
				dir, storage.ErrCorrupt, fileEngine, fileSegments, rebuildHint)
		}
		return nil, fmt.Errorf("xrank: open %s: %w", dir, err)
	}
	if err := validateSegmentsManifest(&sm); err != nil {
		return nil, fmt.Errorf("xrank: %w %s: %v; %s", storage.ErrCorrupt, fileSegments, err, rebuildHint)
	}
	sc := man.Config
	e := NewEngine(&Config{IndexDir: dir, FS: fs, Decay: sc.Decay, MaxPositions: sc.MaxPositions,
		Shards: sc.Shards, AnswerTags: sc.AnswerTags, MaxSegments: sc.MaxSegments})
	// Reparse every document-store entry in manifest order — including
	// tombstoned and shadowed versions. Document IDs are positional, so
	// dropping a dead entry would renumber every later document and
	// desynchronize the collection from the segments' Dewey spaces.
	for i, d := range sm.Docs {
		data, err := fs.ReadFile(filepath.Join(dir, "docs", d.File))
		if err != nil {
			if os.IsNotExist(err) {
				return nil, fmt.Errorf("xrank: %w %s: document store is missing %s (document %q)",
					storage.ErrCorrupt, fileSegments, d.File, d.Name)
			}
			return nil, fmt.Errorf("xrank: open document %s: %w", d.File, err)
		}
		if int64(len(data)) != d.Size || storage.Checksum(data) != d.CRC32 {
			return nil, fmt.Errorf("xrank: %w docs/%s: size %d crc %08x, manifest says size %d crc %08x",
				storage.ErrCorrupt, d.File, len(data), storage.Checksum(data), d.Size, d.CRC32)
		}
		if _, err := parseVersion(e.col, d.Name, data, d.HTML); err != nil {
			return nil, fmt.Errorf("xrank: reparse %s: %w", d.File, err)
		}
		if d.Deleted {
			e.deleted[uint32(i)] = true
		}
	}
	e.docs = sm.Docs
	e.rankVer = sm.RankVer
	if sm.RankCRC != nil {
		e.rank.crc = *sm.RankCRC
	} else {
		// Written while ranks were stored: the blob's payload is the
		// ranks' float64 bits, so its checksum is their rankCRC. With no
		// readable blob nothing vouches for them, and the first solve
		// finds a mismatch.
		e.retiredRanks = fmt.Sprintf("ranks-%06d.bin", sm.RankVer)
		if rb, err := storage.ReadBlob(fs, filepath.Join(dir, e.retiredRanks), 0x584b4e52 /* "XRNK" */); err == nil {
			e.rank.crc = storage.Checksum(rb)
		}
	}

	if slices.ContainsFunc(sm.Segments, func(se segmentEntry) bool { return se.RankVer != e.rankVer }) {
		// Queries on a stale segment read current ranks; over fresh
		// segments they read only baked ones, and the solve waits.
		if err := e.solveRanks(); err != nil {
			return nil, fmt.Errorf("xrank: open %s: %w", dir, err)
		}
	}

	for _, se := range sm.Segments {
		seg, err := e.openSegment(se, sc.SuggestDisabled)
		if err != nil {
			for _, s := range e.segs {
				s.ix.Close()
			}
			return nil, fmt.Errorf("xrank: open segment %d (%s): %w", se.ID, se.Dir, err)
		}
		e.segs = append(e.segs, seg)
	}
	e.nextSeg = sm.NextSeg
	e.built = true
	e.met.shards.Set(int64(e.segs[0].ix.NumShards()))
	e.shardIO = make([]storage.Stats, e.segs[0].ix.NumShards())
	e.met.segments.Set(int64(len(e.segs)))
	e.updateSuggestGauge()
	return e, nil
}

// openSegment opens one committed segment's index and suggest dictionary.
// noSuggest marks a directory built with suggestions disabled: a segment
// written then has no suggest.bin and gives no completions, one a later
// fold wrote has its dictionary.
func (e *Engine) openSegment(se segmentEntry, noSuggest bool) (*engineSegment, error) {
	path := filepath.Join(e.cfg.IndexDir, se.Dir)
	ix, err := e.openSegmentIndex(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			// The manifest committed this segment, so a missing piece of it
			// (the directory, or the shards.json every segment has) is damage.
			return nil, fmt.Errorf("%w: %v; %s", storage.ErrCorrupt, err, rebuildHint)
		}
		if errors.Is(err, storage.ErrCorrupt) {
			// A damaged segment, or one in a retired postings format: the
			// document store was verified above, so a rebuild recovers.
			return nil, fmt.Errorf("%w; %s", err, rebuildHint)
		}
		return nil, err
	}
	seg := &engineSegment{id: se.ID, dir: se.Dir, rankVer: se.RankVer, docs: se.Docs, ix: ix, health: query.NewHealth()}
	if seg.sug, err = loadSegmentSuggest(e.fs(), path, noSuggest); err != nil {
		ix.Close()
		return nil, err
	}
	return seg, nil
}
