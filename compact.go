package xrank

import (
	"fmt"
	"path/filepath"
	"time"

	"xrank/internal/storage"
)

// CompactionStats reports what one CompactOnce call did.
type CompactionStats struct {
	// Compacted is false when the engine was already fully compacted
	// (one segment at the current rank version) and nothing happened.
	Compacted      bool `json:"compacted"`
	SegmentsBefore int  `json:"segments_before"`
	SegmentsAfter  int  `json:"segments_after"`
	// Bytes is the total size of the merged segment's index files.
	Bytes int64  `json:"bytes"`
	Dir   string `json:"dir"`
}

// CompactOnce merges every live segment into one fresh segment built at
// the current ElemRank version, swaps the manifest atomically, and
// retires the old segments' files. The merged segment covers the whole
// collection — including tombstoned documents, whose space is only
// reclaimed by a full Update/rebuild, matching the paper's Section 4.5
// treatment of deletions; keeping them preserves every term's document
// frequency, so compaction is score-neutral and invalidates no cached
// results. budgetPages > 0 bounds the build's write I/O to that many
// page-equivalents (see storage.BudgetFS); on budget exhaustion — or
// any other failure before the manifest swap — the engine is unchanged
// and the half-built segment is an orphan.
//
// Queries run concurrently with the build; they only block for the
// brief snapshot swap. Acquiring the write lock also guarantees no
// in-flight query still holds cursors into the retired segments.
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

	buildFS := e.cfg.FS
	if budgetPages > 0 {
		ec := storage.NewExecContext(nil)
		ec.SetBudget(budgetPages)
		buildFS = storage.NewBudgetFS(e.cfg.FS, ec)
	}
	// The merged segment — postings and suggest dictionary alike — covers
	// the whole collection (tombstones included, which keeps it
	// score-neutral) at the current rank version.
	newSeg, st, err := e.buildSegment(e.nextSeg, e.rankVer, e.col, e.ranks, allDocIDs(e.col.NumDocs()), buildFS)
	if err != nil {
		return cs, fmt.Errorf("xrank: compaction: %w", err)
	}
	// After this commit a reopen sees only the merged segment; before it,
	// only the old ones.
	if err := e.commitSegments(newSeg.id+1, e.rankVer, e.docs, []*engineSegment{newSeg}); err != nil {
		newSeg.ix.Close()
		return cs, err
	}

	old := e.segs
	e.snapMu.Lock()
	e.segs = []*engineSegment{newSeg}
	e.nextSeg = newSeg.id + 1
	e.updateSuggestGauge()
	e.snapMu.Unlock()

	// Retirement: the write lock above drained every query that could
	// pin cursors into the old segments, so their directories can go. All
	// best-effort — the manifest no longer references them, so leftover
	// files after a crash are mere orphans.
	fs := e.fs()
	for _, s := range old {
		dir := filepath.Join(e.cfg.IndexDir, s.dir)
		s.ix.RemoveFiles(fs)
		s.ix.Close()
		fs.Remove(filepath.Join(dir, fileSuggest))
		fs.Remove(dir)
	}

	cs.Compacted = true
	cs.SegmentsAfter = 1
	cs.Dir = newSeg.dir
	cs.Bytes = st.DILList + st.RDILList + st.RDILIndex + st.HDILRank + st.HDILIndex +
		st.NaiveIDList + st.NaiveRankList + st.NaiveIndex
	e.met.compactions.Inc()
	e.met.compactionBytes.Add(cs.Bytes)
	e.met.segments.Set(1)
	return cs, nil
}

// StartCompactor runs a background goroutine that checks every interval
// whether the engine has accumulated more than maxSegments live
// segments and, if so, compacts them with the
// given write budget. interval <= 0 defaults to one second; maxSegments
// < 1 is treated as 1. Errors are dropped — the next tick retries.
// Close stops the compactor and waits for it to exit; starting a second
// compactor on an engine whose first is still running is an error.
func (e *Engine) StartCompactor(interval time.Duration, maxSegments int, budgetPages int64) error {
	if !e.built {
		return fmt.Errorf("xrank: StartCompactor before Build")
	}
	if e.compactStop != nil {
		return fmt.Errorf("xrank: compactor already running")
	}
	if interval <= 0 {
		interval = time.Second
	}
	if maxSegments < 1 {
		maxSegments = 1
	}
	e.compactStop = make(chan struct{})
	e.compactDone = make(chan struct{})
	stop, done := e.compactStop, e.compactDone
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if e.SegmentCount() > maxSegments {
					e.CompactOnce(budgetPages)
				}
			}
		}
	}()
	return nil
}

// stopCompactor halts the background compactor if one is running and
// waits for it to finish any in-flight compaction.
func (e *Engine) stopCompactor() {
	if e.compactStop == nil {
		return
	}
	close(e.compactStop)
	<-e.compactDone
	e.compactStop, e.compactDone = nil, nil
}
