package storage

import "time"

// Stats counts page-level I/O, classifying reads as sequential or random.
// The distinction drives the cost model: DIL scans inverted lists
// sequentially while RDIL performs random Dewey probes, and that
// difference — not CPU time — is what separates them on the paper's
// cold-cache hardware. An ExecContext is the one place reads and hits
// are counted; page files and buffer pools keep no counters of their own.
//
// Sequentiality is detected per stream, the way operating-system
// readahead does: the tracker remembers the heads of the most recent
// maxStreams access streams, and a read that extends any of them counts
// as sequential. A k-keyword DIL merge interleaves k scans of different
// file regions; each scan is still sequential on disk.
type Stats struct {
	Reads     int64 // total page reads reaching the device
	SeqReads  int64 // reads extending one of the recent access streams
	RandReads int64 // all other reads
	Writes    int64 // page writes (the engine's index builds; no query writes)
	CacheHits int64 // reads absorbed by a buffer pool (no device access)

	// Posting-block accounting (Dewey-family lists, see internal/index).
	BlocksDecoded int64 // posting blocks materialized by a cursor
	BlocksSkipped int64 // posting blocks pruned without decoding

	// Postings counts inverted-list entries read by cursors and probers
	// (block and naive lists alike), whether decoded or, by a probe, only
	// stepped over by Dewey ID. Stepped is the subset a probe passed by
	// Dewey ID without decoding. Together they are the CPU terms of the
	// cost model.
	Postings int64
	Stepped  int64

	heads   [maxStreams]PageID
	headAge [maxStreams]int64
	nHeads  int
	clock   int64
}

// maxStreams is how many concurrent sequential streams the classifier
// tracks (Linux readahead handles dozens; queries here need one per
// keyword list).
const maxStreams = 8

func (s *Stats) recordRead(id PageID) {
	s.Reads++
	s.clock++
	for i := 0; i < s.nHeads; i++ {
		if id == s.heads[i]+1 || id == s.heads[i] {
			s.SeqReads++
			s.heads[i] = id
			s.headAge[i] = s.clock
			return
		}
	}
	s.RandReads++
	// Start a new stream, evicting the least recently extended head.
	slot := s.nHeads
	if s.nHeads < maxStreams {
		s.nHeads++
	} else {
		slot = 0
		for i := 1; i < maxStreams; i++ {
			if s.headAge[i] < s.headAge[slot] {
				slot = i
			}
		}
	}
	s.heads[slot] = id
	s.headAge[slot] = s.clock
}

// Add accumulates other into s (cache-position tracking is not merged).
func (s *Stats) Add(other Stats) {
	s.Reads += other.Reads
	s.SeqReads += other.SeqReads
	s.RandReads += other.RandReads
	s.Writes += other.Writes
	s.CacheHits += other.CacheHits
	s.BlocksDecoded += other.BlocksDecoded
	s.BlocksSkipped += other.BlocksSkipped
	s.Postings += other.Postings
	s.Stepped += other.Stepped
}

// Sub returns s minus other, for measuring an interval between snapshots.
func (s Stats) Sub(other Stats) Stats {
	return Stats{
		Reads:         s.Reads - other.Reads,
		SeqReads:      s.SeqReads - other.SeqReads,
		RandReads:     s.RandReads - other.RandReads,
		Writes:        s.Writes - other.Writes,
		CacheHits:     s.CacheHits - other.CacheHits,
		BlocksDecoded: s.BlocksDecoded - other.BlocksDecoded,
		BlocksSkipped: s.BlocksSkipped - other.BlocksSkipped,
		Postings:      s.Postings - other.Postings,
		Stepped:       s.Stepped - other.Stepped,
	}
}

// CostModel converts a query's page and posting counts into time on one
// device. HDIL's switch estimator prices both of its sides with it
// (Section 4.4.2), so the model has to describe the device the query is
// actually served from: DefaultCostModel is the engine's serving model
// (index files resident in the OS page cache, CPU the dominant cost) and
// PaperDiskCostModel is the 2003 disk behind the paper's cold-cache
// figures.
type CostModel struct {
	RandRead time.Duration // cost of one random page read
	SeqRead  time.Duration // cost of one sequential page read
	CacheHit time.Duration // cost of a buffer-pool hit (CPU only)
	Posting  time.Duration // cost of decoding and consuming one inverted-list entry (CPU only)
	Step     time.Duration // cost of a probe stepping over one entry by Dewey ID (CPU only)
}

// DefaultCostModel returns the serving model: a buffer-pool miss is one
// 8 KiB pread from the OS page cache, so random and sequential reads cost
// the same, and CPU is what a query mostly pays for. A decoded posting is
// priced as what a DIL merge spends on one — decode, Dewey-stack merge,
// proximity, heap — and an entry a probe steps over by Dewey ID at a fifth
// of that. The constants are rounded from the committed micro-benchmarks
// on the 2-core 2.1 GHz sandbox of record (EXPERIMENTS.md, "Serving cost
// model"): BenchmarkPoolGetMiss 1.0–2.1 µs per miss, BenchmarkPoolGetHit
// 55–110 ns per hit, BenchmarkDILLoCorr 211–269 ns per posting and
// BenchmarkProbeLCP 44–61 ns per entry stepped. Only their ratios matter
// to the estimator.
func DefaultCostModel() CostModel {
	return CostModel{
		RandRead: 2 * time.Microsecond,
		SeqRead:  2 * time.Microsecond,
		CacheHit: 100 * time.Nanosecond,
		Posting:  250 * time.Nanosecond,
		Step:     50 * time.Nanosecond,
	}
}

// PaperDiskCostModel returns the paper's reference disk (Section 5.1): an
// 8ms average positioning time for a random page and ~50MB/s sequential
// transfer (≈0.16ms per 8KB page), with CPU free. QueryStats.SimulatedTime
// and every cold-cache (SearchOptions.ColdCache) experiment use it, so
// the experiment shapes match the paper's whatever the host hardware.
func PaperDiskCostModel() CostModel {
	return CostModel{
		RandRead: 8 * time.Millisecond,
		SeqRead:  160 * time.Microsecond,
		CacheHit: 2 * time.Microsecond,
	}
}

// SimulatedTime converts the stats into simulated elapsed time under m.
func (m CostModel) SimulatedTime(s Stats) time.Duration {
	return time.Duration(s.RandReads)*m.RandRead +
		time.Duration(s.SeqReads)*m.SeqRead +
		time.Duration(s.CacheHits)*m.CacheHit +
		time.Duration(s.Postings-s.Stepped)*m.Posting +
		time.Duration(s.Stepped)*m.Step
}
