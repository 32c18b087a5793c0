package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"xrank"
)

// The ingestion-throughput experiment (E12, an extension beyond the
// paper): the paper handles additions by rebuilding the index (Section
// 4.5); segment-based incremental indexing amortizes that into small
// delta-segment flushes. This experiment ingests a stream of XMark-shaped
// documents batch by batch through AddDocs — interleaving a fixed query
// probe after every batch to confirm and price concurrent serving — and
// compares the per-batch flush cost against a from-scratch rebuild over
// the same final corpus. It closes with one compaction, pricing the fold
// back to a single segment. Results go to BENCH_ingest.json for CI trend
// tracking (non-gating: wall times on shared runners are noise; the
// artifact history shows throughput drift).

// IngestBatch is the measurement of one AddDocs flush.
type IngestBatch struct {
	Batch        int   `json:"batch"`
	Docs         int   `json:"docs"`
	AddMillis    int64 `json:"add_millis"`
	Segments     int   `json:"segments"`
	ProbeMicros  int64 `json:"probe_micros"`
	ProbeResults int   `json:"probe_results"`
}

// IngestBenchReport is the JSON artifact (BENCH_ingest.json) of E12.
type IngestBenchReport struct {
	Corpus      string `json:"corpus"`
	InitialDocs int    `json:"initial_docs"`
	Batches     int    `json:"batches"`
	BatchSize   int    `json:"batch_size"`
	Shards      int    `json:"shards"`
	Workers     int    `json:"workers"`
	Elements    int    `json:"final_elements"`

	Runs []IngestBatch `json:"runs"`

	// The headline: total documents ingested incrementally, the wall time
	// of those flushes, the resulting throughput, and how one average
	// flush compares to rebuilding the whole final corpus from scratch.
	IngestedDocs     int     `json:"ingested_docs"`
	IngestMillis     int64   `json:"ingest_millis"`
	DocsPerSec       float64 `json:"docs_per_sec"`
	AvgAddMillis     int64   `json:"avg_add_millis"`
	RebuildMillis    int64   `json:"rebuild_millis"`
	SpeedupVsRebuild float64 `json:"speedup_vs_rebuild"`

	// The closing compaction: segments folded, wall time, bytes written.
	SegmentsBeforeCompact int   `json:"segments_before_compact"`
	CompactMillis         int64 `json:"compact_millis"`
	CompactBytes          int64 `json:"compact_bytes"`
}

// WriteJSON writes the report to path, indented.
func (r *IngestBenchReport) WriteJSON(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// E12Ingest builds an engine over the first initialDocs documents of an
// XMark-shaped corpus, then ingests the rest in batches AddDocs-style.
func E12Ingest(baseDir string, initialDocs, batches, batchSize int, scale float64, seed int64) (*Table, *IngestBenchReport, error) {
	const shards = 4
	const probe = "w0 w1"
	total := initialDocs + batches*batchSize
	corpus := shardCorpus(total, scale, seed)
	name := func(d int) string { return fmt.Sprintf("xmark%02d", d) }

	e := xrank.NewEngine(&xrank.Config{
		IndexDir: baseDir + "/inc",
		Shards:   shards,
	})
	for d := 0; d < initialDocs; d++ {
		if err := e.AddXML(name(d), strings.NewReader(corpus[d])); err != nil {
			return nil, nil, err
		}
	}
	if _, err := e.Build(); err != nil {
		return nil, nil, err
	}
	defer e.Close()

	rep := &IngestBenchReport{
		Corpus:      "xmark",
		InitialDocs: initialDocs,
		Batches:     batches,
		BatchSize:   batchSize,
		Shards:      shards,
		Workers:     runtime.GOMAXPROCS(0),
	}
	t := &Table{
		Title:  fmt.Sprintf("E12 (extension): incremental ingestion, %d initial + %d batches x %d docs", initialDocs, batches, batchSize),
		Header: []string{"batch", "docs", "AddDocs", "segments", "probe"},
		Comment: "Each batch is one AddDocs flush: parse + global ElemRank recompute + delta-segment\n" +
			"build + manifest swap, with the full index left untouched. The probe query runs right\n" +
			"after the flush, so it merges across every live segment. The rebuild row is the\n" +
			"from-scratch Build over the same final corpus that Section 4.5 would pay per change.",
	}

	next := initialDocs
	var ingestWall time.Duration
	for b := 0; b < batches; b++ {
		batch := make(map[string]io.Reader, batchSize)
		for i := 0; i < batchSize; i++ {
			batch[name(next)] = strings.NewReader(corpus[next])
			next++
		}
		t0 := time.Now()
		if err := e.AddDocs(batch); err != nil {
			return nil, nil, fmt.Errorf("bench: ingest batch %d: %w", b, err)
		}
		add := time.Since(t0)
		ingestWall += add

		rs, stats, err := e.SearchDetailed(probe, xrank.SearchOptions{TopM: 10, Algorithm: xrank.AlgoDIL})
		if err != nil {
			return nil, nil, fmt.Errorf("bench: ingest probe after batch %d: %w", b, err)
		}
		run := IngestBatch{
			Batch:        b,
			Docs:         batchSize,
			AddMillis:    add.Milliseconds(),
			Segments:     e.SegmentCount(),
			ProbeMicros:  stats.WallTime.Microseconds(),
			ProbeResults: len(rs),
		}
		rep.Runs = append(rep.Runs, run)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", b),
			fmt.Sprintf("%d", batchSize),
			fmt.Sprintf("%dms", run.AddMillis),
			fmt.Sprintf("%d", run.Segments),
			fmt.Sprintf("%dµs/%d", run.ProbeMicros, run.ProbeResults),
		})
	}
	rep.IngestedDocs = batches * batchSize
	rep.IngestMillis = ingestWall.Milliseconds()
	if s := ingestWall.Seconds(); s > 0 {
		rep.DocsPerSec = float64(rep.IngestedDocs) / s
	}
	if batches > 0 {
		rep.AvgAddMillis = ingestWall.Milliseconds() / int64(batches)
	}

	// The Section 4.5 baseline: one from-scratch build over the final
	// corpus, i.e. what every batch would have cost without segments.
	rb := xrank.NewEngine(&xrank.Config{
		IndexDir: baseDir + "/rebuild",
		Shards:   shards,
	})
	for d := 0; d < total; d++ {
		if err := rb.AddXML(name(d), strings.NewReader(corpus[d])); err != nil {
			return nil, nil, err
		}
	}
	t0 := time.Now()
	info, err := rb.Build()
	if err != nil {
		return nil, nil, err
	}
	rebuild := time.Since(t0)
	rb.Close()
	rep.Elements = info.NumElements
	rep.RebuildMillis = rebuild.Milliseconds()
	if rep.AvgAddMillis > 0 {
		rep.SpeedupVsRebuild = float64(rep.RebuildMillis) / float64(rep.AvgAddMillis)
	}
	t.Rows = append(t.Rows, []string{"rebuild", fmt.Sprintf("%d", total),
		fmt.Sprintf("%dms", rep.RebuildMillis), "1",
		fmt.Sprintf("%.1fx avg flush", rep.SpeedupVsRebuild)})

	rep.SegmentsBeforeCompact = e.SegmentCount()
	t0 = time.Now()
	cs, err := e.CompactOnce(0)
	if err != nil {
		return nil, nil, fmt.Errorf("bench: closing compaction: %w", err)
	}
	rep.CompactMillis = time.Since(t0).Milliseconds()
	rep.CompactBytes = cs.Bytes
	t.Rows = append(t.Rows, []string{"compact", fmt.Sprintf("%d", rep.SegmentsBeforeCompact),
		fmt.Sprintf("%dms", rep.CompactMillis), "1",
		fmt.Sprintf("%.1fMB", float64(cs.Bytes)/(1<<20))})
	return t, rep, nil
}
