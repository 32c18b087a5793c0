package query

import (
	"errors"
	"slices"
	"sort"
	"sync"

	"xrank/internal/storage"
)

// ShardReport accumulates degraded-execution facts and page traffic by
// shard across the algorithm invocations that share it (the engine's
// over-fetch loop can run the same query several times). All methods are
// safe for concurrent use and nil-safe, so call sites never need to
// guard.
type ShardReport struct {
	mu      sync.Mutex
	failed  map[int]string // shard → last post-retry error
	retries int
	io      []storage.Stats // by shard
}

// noteIO adds one partition run's I/O to shard s.
func (r *ShardReport) noteIO(s int, st storage.Stats) {
	if r == nil {
		return
	}
	r.mu.Lock()
	for len(r.io) <= s {
		r.io = append(r.io, storage.Stats{})
	}
	r.io[s].Add(st)
	r.mu.Unlock()
}

// ShardIO returns the I/O of every partition run so far, summed by
// shard and indexed by shard number (shorter than the shard count when
// the highest shards never ran).
func (r *ShardReport) ShardIO() []storage.Stats {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.io)
}

// noteRetries adds n retry attempts to the report.
func (r *ShardReport) noteRetries(n int) {
	if r == nil || n == 0 {
		return
	}
	r.mu.Lock()
	r.retries += n
	r.mu.Unlock()
}

// noteFailed records that shard s was excluded from a merge — either it
// failed after retries or it was already unhealthy and skipped up front.
func (r *ShardReport) noteFailed(s int, err error) {
	if r == nil {
		return
	}
	msg := "skipped: marked unhealthy"
	if err != nil {
		msg = err.Error()
	}
	r.mu.Lock()
	if r.failed == nil {
		r.failed = make(map[int]string)
	}
	r.failed[s] = msg
	r.mu.Unlock()
}

// Degraded reports whether any merge this report observed excluded at
// least one shard.
func (r *ShardReport) Degraded() bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.failed) > 0
}

// FailedShards returns the sorted set of shards excluded from at least
// one merge.
func (r *ShardReport) FailedShards() []int {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]int, 0, len(r.failed))
	for s := range r.failed {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// Retries returns the total retry attempts across all invocations.
func (r *ShardReport) Retries() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.retries
}

// retryable reports whether a shard error is worth retrying or degrading
// around: only device-level I/O faults (storage.ErrIO) qualify.
// Cancellation, deadline expiry, budget exhaustion and semantic errors
// would fail identically on every attempt and every shard.
func retryable(err error) bool {
	return errors.Is(err, storage.ErrIO)
}
