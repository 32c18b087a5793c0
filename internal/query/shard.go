package query

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"xrank/internal/breaker"
	"xrank/internal/index"
	"xrank/internal/storage"
)

// Sharded execution runs one instance of an algorithm per index shard and
// merges the per-shard top-m's. Correctness rests on two facts:
//
//   - Scores are shard-invariant. Every scoring decision is
//     intra-document (the Dewey-stack merge never carries state across a
//     document boundary, and RDIL/HDIL probes stay inside one document's
//     subtree), every scoring input (ElemRank, decay, proximity, weights)
//     is a property of one document, documents are partitioned whole,
//     and shards keep the global element-ID/Dewey spaces. A result
//     therefore gets the same score from its shard as it would from a
//     monolithic index.
//
//   - Top-m composes. Under the strict total order (score descending,
//     Dewey ID ascending) the global top-m of a disjoint union is a
//     subset of the concatenated per-shard top-m's, so MergeTopM loses
//     nothing. The threshold-algorithm stopping rule survives sharding:
//     shard s stops once its threshold T_s falls to its local m-th score
//     k_s, and since shard s's candidates are a subset of the
//     collection's, k_s ≤ the global m-th score k — so every shard's
//     stopping point satisfies the paper's global rule max_s T_s ≤ k
//     without any cross-shard coordination.
//
// Each shard worker runs under a child of the query's ExecContext:
// cancellation, deadlines and the page-read budget fan out (one shared
// pool), per-shard I/O aggregates back into the parent's Stats, and a
// failing shard poisons the family so its siblings abort at their next
// page access instead of running to completion.

// shardWorkers bounds the worker pool: the caller's preference (0 means
// "one per shard"), clamped to the shard count and GOMAXPROCS.
func shardWorkers(requested, shards int) int {
	w := requested
	if w <= 0 || w > shards {
		w = shards
	}
	if gp := runtime.GOMAXPROCS(0); w > gp {
		w = gp
	}
	if w < 1 {
		w = 1
	}
	return w
}

// The engine's shard fault policy. A transient device fault (an error
// wrapping storage.ErrIO) is retried up to shardRetries times; retry k
// first waits a draw uniform in [0, shardRetryBackoff<<k] from a stream
// seeded per shard (see breaker.Backoff), so synchronized queries spread
// out and a schedule replays exactly. The consecutive-failure threshold
// that marks a shard unhealthy belongs to index.Sharded's breaker.
const (
	shardRetries      = 2
	shardRetryBackoff = 5 * time.Millisecond
	shardRetrySeed    = 1
)

// runShardAttempts invokes run on one shard under the retry policy
// above, aborting a backoff wait early if the query is cancelled. It
// returns the last result plus how many retry attempts were consumed.
func runShardAttempts(s int, ix *index.Index, so Options,
	run func(s int, ix *index.Index, so Options) ([]Result, error)) ([]Result, error, int) {
	var rng *rand.Rand // created on first retry; most attempts never pay for it
	for attempt := 0; ; attempt++ {
		rs, err := run(s, ix, so)
		if err == nil || !retryable(err) || attempt >= shardRetries {
			return rs, err, attempt
		}
		if rng == nil {
			rng = breaker.NewRand(shardRetrySeed, int64(s))
		}
		if err := breaker.Wait(so.Exec.Context(), breaker.Backoff(rng, shardRetryBackoff, attempt)); err != nil {
			return nil, err, attempt
		}
	}
}

// runSharded fans run out over the healthy shards under a bounded worker
// pool and merges the per-shard top-m's. run receives the shard number,
// the shard index and a per-shard Options whose Exec is a child of
// opts.Exec. With a single shard it degenerates to a direct call on the
// caller's goroutine — no pool, no child context (retries still apply).
//
// Degraded mode: shards whose health breaker is open are skipped up
// front. A shard whose execution still fails with a device fault after
// retries is excluded from this merge (and charged to its breaker) while
// the query completes over the remaining shards, recording the
// exclusions in opts.Report; a success closes the shard's breaker.
// Non-device errors — cancellation, deadline, budget, semantic — stay
// fatal and poison the ExecContext family so sibling shards abort
// promptly. Only when every shard is excluded does the query fail.
func runSharded(sh *index.Sharded, opts Options, workers int,
	run func(s int, ix *index.Index, so Options) ([]Result, error)) ([]Result, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	shards := sh.Shards()
	health := sh.Breaker()
	if len(shards) == 1 {
		// A one-shard index has nothing to degrade to: retry transient faults,
		// then surface the error. Health is still recorded so /api/shards
		// shows the failing device, but the shard is never skipped.
		rs, err, retries := runShardAttempts(0, shards[0], opts, run)
		opts.Report.noteRetries(retries)
		if err != nil && retryable(err) {
			health.Failure(0, err)
		} else if err == nil {
			health.Success(0)
		}
		return rs, err
	}
	workers = shardWorkers(workers, len(shards))
	sem := make(chan struct{}, workers)
	perShard := make([][]Result, len(shards))
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		fatalErr error             // non-device error: fails the whole query
		excluded = map[int]error{} // shard → why it is absent from the merge
	)
	for s, ix := range shards {
		if ok, _ := health.Allow(s); !ok {
			// Skipped up front; nil marks "already unhealthy". Workers
			// started earlier in this loop write excluded too.
			mu.Lock()
			excluded[s] = nil
			mu.Unlock()
			continue
		}
		wg.Add(1)
		go func(s int, ix *index.Index) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			mu.Lock()
			failed := fatalErr != nil
			mu.Unlock()
			if failed {
				return // the query is already doomed; don't start new work
			}
			so := opts
			so.Exec = opts.Exec.Child()
			endShard := so.Exec.StartSpan(fmt.Sprintf("shard%02d.exec", s))
			rs, err, retries := runShardAttempts(s, ix, so, run)
			endShard()
			mu.Lock()
			defer mu.Unlock()
			opts.Report.noteRetries(retries)
			if err != nil {
				if retryable(err) {
					// Transient fault that survived retries: exclude the
					// shard from this merge, count it toward the unhealthy
					// threshold, and let the siblings finish.
					excluded[s] = err
					health.Failure(s, err)
					return
				}
				if fatalErr == nil {
					fatalErr = err
				}
				// Poison the family so running siblings abort at their
				// next page access rather than completing a doomed query.
				opts.Exec.Fail(err)
				return
			}
			health.Success(s)
			perShard[s] = rs
		}(s, ix)
	}
	wg.Wait()
	if fatalErr != nil {
		return nil, fatalErr
	}
	if len(excluded) == len(shards) {
		for s, err := range excluded {
			if err != nil {
				return nil, fmt.Errorf("query: all %d shards failed, shard %d: %w", len(shards), s, err)
			}
		}
		return nil, fmt.Errorf("query: all %d shards are marked unhealthy", len(shards))
	}
	for s, err := range excluded {
		opts.Report.noteFailed(s, err)
	}
	endMerge := opts.Exec.StartSpan("merge.topk")
	out := MergeTopM(perShard, opts.TopM)
	endMerge()
	return out, nil
}

// MergeTopM combines per-shard ranked prefixes into the global top-m:
// concatenate, re-sort under the total order, truncate. Each input slice
// must be that shard's top-m (or more) under the same order.
func MergeTopM(perShard [][]Result, topM int) []Result {
	n := 0
	for _, rs := range perShard {
		n += len(rs)
	}
	all := make([]Result, 0, n)
	for _, rs := range perShard {
		all = append(all, rs...)
	}
	SortResults(all)
	if len(all) > topM {
		all = all[:topM]
	}
	return all
}

// DILSharded evaluates DIL on every shard in parallel and merges the
// per-shard top-m's; see the package notes above for why the result is
// identical to DIL over a monolithic index.
func DILSharded(sh *index.Sharded, keywords []string, opts Options, workers int) ([]Result, error) {
	return runSharded(sh, opts, workers, func(_ int, ix *index.Index, so Options) ([]Result, error) {
		return DIL(ix, keywords, so)
	})
}

// RDILSharded evaluates RDIL on every shard in parallel. Each shard's
// threshold algorithm terminates on its own: its stopping rule is
// strictly stronger than the global one (see the package notes).
func RDILSharded(sh *index.Sharded, keywords []string, opts Options, workers int) ([]Result, error) {
	return runSharded(sh, opts, workers, func(_ int, ix *index.Index, so Options) ([]Result, error) {
		return RDIL(ix, keywords, so)
	})
}

// HDILSharded evaluates HDIL on every shard in parallel. The adaptive
// switch decision is per shard — one shard with unlucky rank prefixes can
// fall back to DIL while the others stay ranked. The returned trace
// aggregates: SwitchedToDIL if any shard switched (first switcher's
// reason), entries-read summed.
func HDILSharded(sh *index.Sharded, keywords []string, opts Options, workers int, cm storage.CostModel) ([]Result, *HDILTrace, error) {
	traces := make([]*HDILTrace, sh.NumShards())
	rs, err := runSharded(sh, opts, workers, func(s int, ix *index.Index, so Options) ([]Result, error) {
		res, tr, err := HDIL(ix, keywords, so, cm)
		traces[s] = tr // one writer per slot; no lock needed
		return res, err
	})
	agg := &HDILTrace{}
	for _, tr := range traces {
		if tr == nil {
			continue
		}
		if tr.SwitchedToDIL && !agg.SwitchedToDIL {
			agg.SwitchedToDIL = true
			agg.SwitchReason = tr.SwitchReason
		}
		agg.RankedEntriesRead += tr.RankedEntriesRead
	}
	return rs, agg, err
}

// DisjunctiveSharded evaluates the disjunctive processor on every shard
// in parallel. A keyword absent from one shard contributes nothing there
// but still scores on the shards that hold it.
func DisjunctiveSharded(sh *index.Sharded, keywords []string, opts Options, workers int) ([]Result, error) {
	return runSharded(sh, opts, workers, func(_ int, ix *index.Index, so Options) ([]Result, error) {
		return Disjunctive(ix, keywords, so)
	})
}
