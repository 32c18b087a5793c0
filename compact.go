package xrank

import (
	"fmt"
	"path/filepath"

	"xrank/internal/storage"
	"xrank/internal/xmldoc"
)

// defaultMaxSegments is the live-segment bound AddDocs enforces when
// Config.MaxSegments is zero.
const defaultMaxSegments = 4

// CompactionStats reports what one CompactOnce call did.
type CompactionStats struct {
	// Compacted is false when the engine was already fully compacted
	// (one segment at the current rank version) and nothing happened.
	Compacted      bool `json:"compacted"`
	SegmentsBefore int  `json:"segments_before"`
	SegmentsAfter  int  `json:"segments_after"`
	// Bytes is the total size of the merged segment's index files: every
	// file its shards' meta.json manifests record.
	Bytes int64  `json:"bytes"`
	Dir   string `json:"dir"`
}

// CompactOnce folds every live segment into one fresh segment built at
// the current ElemRank version: the fold AddDocs runs on its trailing
// segments, with all of them selected. The merged segment covers the
// whole collection — including tombstoned documents, whose space is only
// reclaimed by a full Update/rebuild, matching the paper's Section 4.5
// treatment of deletions; keeping them preserves every term's document
// frequency, so compaction is score-neutral and invalidates no cached
// results. budgetPages > 0 bounds the build's write I/O to that many
// page-equivalents (see storage.BudgetFS); on budget exhaustion — or
// any other failure before the manifest swap — the engine is unchanged
// and the half-built segment is an orphan.
//
// Queries run concurrently with the build; they only block for the
// brief snapshot swap.
func (e *Engine) CompactOnce(budgetPages int64) (CompactionStats, error) {
	var cs CompactionStats
	if !e.built {
		return cs, fmt.Errorf("xrank: CompactOnce before Build")
	}
	e.updateMu.Lock()
	defer e.updateMu.Unlock()

	cs.SegmentsBefore = len(e.segs)
	cs.SegmentsAfter = len(e.segs)
	if len(e.segs) == 1 && e.segs[0].rankVer == e.rankVer {
		return cs, nil
	}

	if err := e.solveRanks(); err != nil {
		return cs, err
	}
	buildFS := e.cfg.FS
	if budgetPages > 0 {
		ec := storage.NewExecContext(nil)
		ec.SetBudget(budgetPages)
		buildFS = storage.NewBudgetFS(e.cfg.FS, ec)
	}
	seg, bytes, err := e.fold(0, nil, e.col, e.rank, e.rankVer, e.docs, buildFS, func() {})
	if err != nil {
		return cs, err
	}
	cs.Compacted = true
	cs.SegmentsAfter = 1
	cs.Dir = seg.dir
	cs.Bytes = bytes
	return cs, nil
}

// SetMaxSegments overrides Config.MaxSegments at runtime (the serve
// command's -max-segments flag): the live-segment bound later AddDocs
// batches enforce.
func (e *Engine) SetMaxSegments(n int) {
	e.updateMu.Lock()
	e.cfg.MaxSegments = n
	e.updateMu.Unlock()
}

// foldPoint returns how many leading segments survive an AddDocs batch of
// batchBytes XML bytes; the rest fold into the batch's segment. Walking
// back from the newest, a segment is folded while it is no larger — in
// XML bytes of its documents — than what the new segment already holds,
// and while keeping it would leave more than the MaxSegments bound (zero
// selects defaultMaxSegments, negative sets no count bound). Equal
// batches therefore fold like a binary counter, and the base is
// rewritten only once the deltas together reach its size. Callers hold
// updateMu.
func (e *Engine) foldPoint(batchBytes int64) int {
	limit := e.cfg.MaxSegments
	if limit == 0 {
		limit = defaultMaxSegments
	}
	held := batchBytes
	keep := len(e.segs)
	for ; keep > 0; keep-- {
		var size int64
		for _, d := range e.segs[keep-1].docs {
			size += e.docs[d].Size
		}
		if size > held && (limit < 0 || keep+1 <= limit) {
			break
		}
		held += size
	}
	return keep
}

// fold is the one merge-and-retire routine: it builds, through buildFS,
// one segment over the documents of the trailing segments e.segs[keep:]
// followed by add (documents of col, baked at rank/rankVer), commits
// segments.json with e.segs[:keep] plus that segment over docs/rankVer,
// and publishes the new segment set — running swap, for the caller's own
// fields, under the same snapshot write lock. Queries hold the read lock
// for their whole execution, so acquiring it drains every cursor into the
// folded segments, whose directories are then retired. On error the
// engine is unchanged. It returns the new segment and its index bytes.
// Callers hold updateMu.
func (e *Engine) fold(keep int, add []uint32, col *xmldoc.Collection, rank rankState, rankVer int, docs []docEntry, buildFS storage.FS, swap func()) (*engineSegment, int64, error) {
	folded := e.segs[keep:]
	var segDocs []uint32
	for _, s := range folded {
		segDocs = append(segDocs, s.docs...)
	}
	segDocs = append(segDocs, add...)
	seg, st, err := e.buildSegment(e.nextSeg, rankVer, col, rank.Scores, segDocs, buildFS)
	if err != nil {
		return nil, 0, fmt.Errorf("xrank: build %s: %w", segmentDirName(e.nextSeg), err)
	}
	segs := append(append([]*engineSegment(nil), e.segs[:keep]...), seg)
	// After this commit a reopen sees only the new segment set; before
	// it, only the old one.
	if err := e.commitSegments(seg.id+1, rankVer, rank.crc, docs, segs); err != nil {
		seg.ix.Close()
		return nil, 0, err
	}

	e.snapMu.Lock()
	swap()
	e.segs = segs
	e.nextSeg = seg.id + 1
	e.updateSuggestGauge()
	e.snapMu.Unlock()
	e.met.segments.Set(int64(len(segs)))

	bytes := st.IndexBytes()
	if len(folded) == 0 {
		return seg, bytes, nil
	}
	// Retirement, all best-effort: the manifest no longer references the
	// folded segments, so leftover files after a crash are mere orphans.
	fs := e.fs()
	for _, s := range folded {
		dir := filepath.Join(e.cfg.IndexDir, s.dir)
		s.ix.RemoveFiles(fs)
		s.ix.Close()
		fs.Remove(filepath.Join(dir, fileSuggest))
		fs.Remove(dir)
	}
	e.met.compactions.Inc()
	e.met.compactionBytes.Add(bytes)
	return seg, bytes, nil
}
