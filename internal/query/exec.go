package query

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"xrank/internal/breaker"
	"xrank/internal/index"
	"xrank/internal/storage"
)

// One executor serves every query: it runs a processor once per
// partition — one shard of one live segment — and merges the
// per-partition top-m's once. Correctness rests on two facts:
//
//   - Scores are partition-invariant. Every scoring decision is
//     intra-document (the Dewey-stack merge never carries state across a
//     document boundary, and RDIL/HDIL probes stay inside one document's
//     subtree), every scoring input (ElemRank, decay, proximity, weights)
//     is a property of one document, documents are partitioned whole —
//     by time into segments and by hash into shards — and every
//     partition keeps the global element-ID/Dewey spaces. A result
//     therefore gets the same score from its partition as it would from
//     a monolithic index.
//
//   - Top-m composes. Under the strict total order (score descending,
//     Dewey ID ascending) the global top-m of a disjoint union is a
//     subset of the concatenated per-partition top-m's, so MergeTopM
//     loses nothing. The threshold-algorithm stopping rule survives
//     partitioning: partition p stops once its threshold T_p falls to
//     its local m-th score k_p, and since p's candidates are a subset of
//     the collection's, k_p ≤ the global m-th score k — so every
//     partition's stopping point satisfies the paper's global rule
//     max_p T_p ≤ k without any cross-partition coordination.

// Partition is one shard of one live segment: the unit a query fans out
// over.
type Partition struct {
	Ix *index.Index
	// Shard is the partition's shard number. It seeds the retry backoff,
	// keys Health and the query's ShardReport (its faults and its I/O),
	// and names the partition's shardNN.exec span.
	Shard int
	// Stale marks a segment whose baked ElemRanks predate the current
	// ones, so the processor substitutes the live values (Options.Rank).
	Stale  bool
	Health *breaker.Breaker[int] // the segment's per-shard breaker
}

// Partitions lists the shards of one segment's index as partitions, in
// shard order, admitted through and recording into health (NewHealth).
func Partitions(sh *index.Sharded, stale bool, health *breaker.Breaker[int]) []Partition {
	parts := make([]Partition, sh.NumShards())
	for s, ix := range sh.Shards() {
		parts[s] = Partition{Ix: ix, Shard: s, Stale: stale, Health: health}
	}
	return parts
}

// Processor evaluates one query on one partition. The trace is HDIL's
// and nil for every other processor.
type Processor func(p Partition, opts Options) ([]Result, *HDILTrace, error)

// The engine's partition fault policy. A transient device fault (an
// error wrapping storage.ErrIO) is retried up to shardRetries times;
// retry k first waits a draw uniform in [0, shardRetryBackoff<<k] from a
// stream seeded per shard number (see breaker.Backoff), so synchronized
// queries spread out and a schedule replays exactly. After
// shardFailureThreshold consecutive post-retry failures a shard's
// breaker opens and later queries skip it. There are no half-open
// probes: exclusion is sticky until a Reset (after an operator replaces
// the device), or until a success lands anyway — a query admitted before
// the breaker opened, or the only shard of a one-shard layout, which is
// never skipped.
const (
	shardRetries          = 2
	shardRetryBackoff     = 5 * time.Millisecond
	shardRetrySeed        = 1
	shardFailureThreshold = 3
)

// NewHealth returns a per-shard breaker under the policy above, every
// shard healthy.
func NewHealth() *breaker.Breaker[int] {
	return breaker.New[int](shardFailureThreshold, 0, nil)
}

// partitionRun is one partition's outcome.
type partitionRun struct {
	rs       []Result
	trace    *HDILTrace
	err      error
	excluded bool // absent from the merge; err is nil if skipped up front
}

// attempt invokes proc on p under the retry policy above, aborting a
// backoff wait early if the query is cancelled, and records the retries
// it consumed in opts.Report.
func attempt(p Partition, opts Options, proc Processor) ([]Result, *HDILTrace, error) {
	var rng *rand.Rand // created on first retry; most attempts never pay for it
	for n := 0; ; n++ {
		rs, tr, err := proc(p, opts)
		if err == nil || !retryable(err) || n >= shardRetries {
			opts.Report.noteRetries(n)
			return rs, tr, err
		}
		if rng == nil {
			rng = breaker.NewRand(shardRetrySeed, int64(p.Shard))
		}
		if err := breaker.Wait(opts.Exec.Context(), breaker.Backoff(rng, shardRetryBackoff, n)); err != nil {
			opts.Report.noteRetries(n)
			return nil, nil, err
		}
	}
}

// Execute runs proc on every partition and merges the per-partition
// top-m's into the query's top-opts.TopM. Every partition runs under its
// own child of opts.Exec (sharing its cancellation, deadline and
// page-read budget, and adding its I/O to the parent's), and that I/O is
// added to opts.Report under the partition's shard, failed partitions
// included. Several partitions run on one pool of min(partitions,
// GOMAXPROCS) workers, each under a shardNN.exec span, followed by one
// merge.topk span; a single partition runs on the caller's goroutine
// without spans. The returned trace aggregates HDIL's:
// SwitchedToDIL if any partition switched, SwitchReason from the first
// that did in partition order, and RankedEntriesRead summed.
//
// Degraded mode applies when the partitions span more than one shard.
// A partition whose shard's breaker is open is skipped up front, and one
// that still fails with a device fault after its retries is excluded
// from the merge and charged to its breaker, while the query completes
// over the rest and records the exclusions in opts.Report; a success
// closes the breaker. Only when every partition is excluded does the
// query fail. On a one-shard layout there is nothing to degrade to: no
// partition is skipped and a device fault is fatal, its health still
// recorded. Non-device errors — cancellation, deadline, budget, semantic
// — are always fatal and poison the ExecContext family so sibling
// partitions abort promptly.
func Execute(parts []Partition, opts Options, proc Processor) ([]Result, *HDILTrace, error) {
	if err := opts.fill(); err != nil {
		return nil, nil, err
	}
	degrade := slices.ContainsFunc(parts, func(p Partition) bool { return p.Shard > 0 })
	runs := make([]partitionRun, len(parts))
	for i, p := range parts {
		if degrade {
			ok, _ := p.Health.Allow(p.Shard)
			runs[i].excluded = !ok
		}
	}
	fanOut := len(parts) > 1
	var (
		mu    sync.Mutex
		fatal error // first error that fails the whole query
	)
	run := func(i int) {
		p, r := parts[i], &runs[i]
		mu.Lock()
		doomed := fatal != nil
		mu.Unlock()
		if r.excluded || doomed {
			return // skipped up front, or no new work for a failed query
		}
		so := opts
		so.Exec = opts.Exec.Child()
		if fanOut {
			defer so.Exec.StartSpan(fmt.Sprintf("shard%02d.exec", p.Shard))()
		}
		var err error
		r.rs, r.trace, err = attempt(p, so, proc)
		opts.Report.noteIO(p.Shard, so.Exec.Stats())
		switch {
		case err == nil:
			p.Health.Success(p.Shard)
			return
		case retryable(err):
			p.Health.Failure(p.Shard, err)
			if degrade {
				// A transient fault that survived its retries: exclude the
				// partition and let the siblings finish.
				r.excluded, r.err = true, err
				return
			}
		}
		mu.Lock()
		if fatal == nil {
			fatal = err
		}
		mu.Unlock()
		// Poison the family so running siblings abort at their next page
		// access rather than completing a doomed query.
		opts.Exec.Fail(err)
	}
	if fanOut {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := min(len(parts), runtime.GOMAXPROCS(0)); w > 0; w-- {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1)) - 1; i < len(parts); i = int(next.Add(1)) - 1 {
					run(i)
				}
			}()
		}
		wg.Wait()
	} else if len(parts) == 1 {
		run(0)
	}
	if fatal != nil {
		return nil, nil, fatal
	}

	perPart := make([][]Result, 0, len(parts))
	agg := &HDILTrace{}
	var failed error // the first post-retry fault, in partition order
	for i, r := range runs {
		if tr := r.trace; tr != nil {
			if tr.SwitchedToDIL && !agg.SwitchedToDIL {
				agg.SwitchedToDIL, agg.SwitchReason = true, tr.SwitchReason
			}
			agg.RankedEntriesRead += tr.RankedEntriesRead
		}
		if !r.excluded {
			perPart = append(perPart, r.rs)
		} else if failed == nil && r.err != nil {
			failed = fmt.Errorf("shard %d: %w", parts[i].Shard, r.err)
		}
	}
	if len(perPart) == 0 {
		if failed != nil {
			return nil, nil, fmt.Errorf("query: all %d partitions failed, %w", len(parts), failed)
		}
		return nil, nil, fmt.Errorf("query: all %d partitions are marked unhealthy", len(parts))
	}
	for i, r := range runs {
		if r.excluded {
			opts.Report.noteFailed(parts[i].Shard, r.err)
		}
	}
	endMerge := func() {}
	if fanOut {
		endMerge = opts.Exec.StartSpan("merge.topk")
	}
	out := MergeTopM(perPart, opts.TopM)
	endMerge()
	return out, agg, nil
}

// MergeTopM combines per-partition ranked prefixes into the global
// top-m: concatenate, re-sort under the total order, truncate. Each
// input slice must be that partition's top-m (or more) under the same
// order.
func MergeTopM(perPart [][]Result, topM int) []Result {
	n := 0
	for _, rs := range perPart {
		n += len(rs)
	}
	all := make([]Result, 0, n)
	for _, rs := range perPart {
		all = append(all, rs...)
	}
	SortResults(all)
	if len(all) > topM {
		all = all[:topM]
	}
	return all
}

// HDILSharded evaluates HDIL on every shard of sh through Execute, under
// a breaker of its own. workers is ignored: the executor sizes its own
// pool.
func HDILSharded(sh *index.Sharded, keywords []string, opts Options, workers int, cm storage.CostModel) ([]Result, *HDILTrace, error) {
	return Execute(Partitions(sh, false, NewHealth()), opts, func(p Partition, so Options) ([]Result, *HDILTrace, error) {
		return HDIL(p.Ix, keywords, so, cm)
	})
}
