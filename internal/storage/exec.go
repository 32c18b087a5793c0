package storage

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrBudgetExceeded is returned (wrapped) when a query's page-read budget
// runs out; see ExecContext.SetBudget.
var ErrBudgetExceeded = errors.New("storage: page-read budget exceeded")

// ExecContext is the per-query execution context threaded from the engine
// down through the query processors, cursors, Dewey probes and buffer
// pools to the page file. It owns three things:
//
//   - a context.Context checked at every page access (device read or
//     buffer-pool hit) and at merge-loop boundaries, so a cancelled or
//     deadline-expired query aborts promptly mid-merge;
//   - a private Stats accumulator, so the I/O of one query is attributed
//     to exactly that query even when many queries run concurrently
//     against the same index (the engine's totals are sums of these
//     accumulators). The accumulator carries its own
//     sequential/random stream classifier: a query's reads are classified
//     by the query's own access pattern, not by how concurrent queries
//     happen to interleave on the shared file;
//   - an optional page-read budget: once the query has performed that
//     many device reads, every further page access fails with an error
//     wrapping ErrBudgetExceeded (admission control's per-query knob).
//
// It additionally carries an optional SpanRecorder so every layer can
// report per-stage timings (StartSpan) into one per-query trace; see
// SetSpanRecorder.
//
// A query that fans out across index shards gives each parallel branch a
// Child context: children share the parent's cancellation, deadline,
// read budget and sticky failure (one family-wide pool of all three),
// while each child classifies its own access stream and accumulates its
// own Stats, which the parent's Stats aggregates race-free.
//
// A nil *ExecContext is valid everywhere and disables all three concerns,
// so index-building and legacy single-tenant callers need no changes.
// Methods are safe for concurrent use, but an ExecContext family
// represents one query: do not share one across queries you want
// attributed separately.
type ExecContext struct {
	ctx    context.Context
	shared *execShared

	mu       sync.Mutex
	stats    Stats
	children []*ExecContext
}

// execShared is the state one query's whole ExecContext family shares:
// the device-read budget, the sticky failure, and the span recorder. It
// has its own mutex so budget accounting across parallel shard workers
// stays consistent without serializing their per-branch stats updates.
type execShared struct {
	mu       sync.Mutex
	maxReads int64
	reads    int64 // device reads across the whole family
	err      error // sticky failure (budget exhaustion or Fail)
	recorder SpanRecorder
}

// SpanRecorder receives finished per-stage spans. The engine installs
// one per query (an obs.Trace satisfies this structurally); every layer
// below reports stage timings through StartSpan without knowing where
// they go. Implementations must be safe for concurrent use — parallel
// shard branches record into the same recorder.
type SpanRecorder interface {
	RecordSpan(name string, start time.Time, d time.Duration)
}

// NewExecContext creates an execution context for one query. A nil ctx
// means context.Background().
func NewExecContext(ctx context.Context) *ExecContext {
	if ctx == nil {
		ctx = context.Background()
	}
	return &ExecContext{ctx: ctx, shared: &execShared{}}
}

// SetBudget caps the number of device page reads this query — including
// every child branch — may perform; zero or negative means unlimited.
// Buffer-pool hits are free: the budget bounds actual disk traffic, not
// logical accesses. Call before the query starts.
func (ec *ExecContext) SetBudget(maxReads int64) {
	ec.shared.mu.Lock()
	ec.shared.maxReads = maxReads
	ec.shared.mu.Unlock()
}

// SetSpanRecorder installs the per-stage span sink for this query's
// whole ExecContext family (children created before or after see it
// too, since the recorder lives in the shared state). Call before the
// query starts; a nil receiver is a no-op.
func (ec *ExecContext) SetSpanRecorder(r SpanRecorder) {
	if ec == nil {
		return
	}
	ec.shared.mu.Lock()
	ec.shared.recorder = r
	ec.shared.mu.Unlock()
}

// StartSpan begins a named stage and returns the function that ends it,
// recording the elapsed time into the family's SpanRecorder:
//
//	defer ec.StartSpan("dil.merge")()
//
// A nil receiver or an unset recorder returns a no-op, so span-annotated
// code costs nothing for callers that don't trace (index builds, legacy
// single-tenant paths). Safe to call from parallel shard branches.
func (ec *ExecContext) StartSpan(name string) func() {
	if ec == nil {
		return func() {}
	}
	ec.shared.mu.Lock()
	r := ec.shared.recorder
	ec.shared.mu.Unlock()
	if r == nil {
		return func() {}
	}
	start := time.Now()
	return func() { r.RecordSpan(name, start, time.Since(start)) }
}

// Child derives an execution context for one parallel branch of this
// query (a shard worker). The child shares the parent's context (so
// cancellation and deadlines fan out), its read budget (the family draws
// from one pool) and its sticky failure (a branch that fails — or a
// Fail call — stops the siblings at their next page access). The child
// has its own Stats accumulator and stream classifier, so concurrent
// branches never contend on one counter and each branch's reads are
// classified by that branch's own access pattern; the parent's Stats
// aggregates every descendant. A nil receiver returns nil.
func (ec *ExecContext) Child() *ExecContext {
	if ec == nil {
		return nil
	}
	child := &ExecContext{ctx: ec.ctx, shared: ec.shared}
	ec.mu.Lock()
	ec.children = append(ec.children, child)
	ec.mu.Unlock()
	return child
}

// Fail records err as the family's sticky failure (unless one is already
// set): every subsequent page access and Err check across the parent and
// all children returns it. The sharded query executor uses this so one
// shard's failure promptly aborts the other shards' workers instead of
// letting them run to completion. A nil receiver or nil err is a no-op.
func (ec *ExecContext) Fail(err error) {
	if ec == nil || err == nil {
		return
	}
	ec.shared.mu.Lock()
	if ec.shared.err == nil {
		ec.shared.err = err
	}
	ec.shared.mu.Unlock()
}

// Context returns the underlying context (context.Background() for a nil
// receiver).
func (ec *ExecContext) Context() context.Context {
	if ec == nil {
		return context.Background()
	}
	return ec.ctx
}

// Err reports why the query must stop: the context's error if it was
// cancelled or its deadline passed, the family's sticky error once the
// page-read budget is exhausted (or a branch failed), and nil otherwise
// (always nil on a nil receiver). Query merge loops call this between
// iterations.
func (ec *ExecContext) Err() error {
	if ec == nil {
		return nil
	}
	if err := ec.ctx.Err(); err != nil {
		return err
	}
	ec.shared.mu.Lock()
	defer ec.shared.mu.Unlock()
	return ec.shared.err
}

// Stats returns a snapshot of the I/O attributed to this query so far,
// including every child branch. A nil receiver reports zeroes.
func (ec *ExecContext) Stats() Stats {
	if ec == nil {
		return Stats{}
	}
	ec.mu.Lock()
	s := ec.stats
	kids := make([]*ExecContext, len(ec.children))
	copy(kids, ec.children)
	ec.mu.Unlock()
	for _, c := range kids {
		s.Add(c.Stats())
	}
	return s
}

// CountBlocks attributes posting-block outcomes to this query: decoded
// blocks were materialized by a cursor, skipped blocks were pruned
// without decoding (doc-range leapfrog or a threshold-algorithm early
// stop). Naive lists have no blocks and never call this. A nil receiver
// is a no-op.
func (ec *ExecContext) CountBlocks(decoded, skipped int64) {
	if ec == nil || (decoded == 0 && skipped == 0) {
		return
	}
	ec.mu.Lock()
	ec.stats.BlocksDecoded += decoded
	ec.stats.BlocksSkipped += skipped
	ec.mu.Unlock()
}

// CountPostings attributes n inverted-list entries read to this query
// (the cost model's CPU terms), of which stepped were only stepped over
// by a probe's Dewey IDs and the rest decoded. Cursors and probers batch
// their counts — per block, page or probe — so the posting loop itself
// never takes the lock. A nil receiver is a no-op.
func (ec *ExecContext) CountPostings(n, stepped int64) {
	if ec == nil || n == 0 {
		return
	}
	ec.mu.Lock()
	ec.stats.Postings += n
	ec.stats.Stepped += stepped
	ec.mu.Unlock()
}

// pageRead accounts one device page read against this query, enforcing
// cancellation and the family-wide read budget. Called by
// PageFile.ReadPageExec before the read reaches the device.
func (ec *ExecContext) pageRead(id PageID) error {
	if ec == nil {
		return nil
	}
	if err := ec.ctx.Err(); err != nil {
		return err
	}
	sh := ec.shared
	sh.mu.Lock()
	if sh.err != nil {
		err := sh.err
		sh.mu.Unlock()
		return err
	}
	if sh.maxReads > 0 && sh.reads >= sh.maxReads {
		sh.err = fmt.Errorf("%w (limit %d device page reads)", ErrBudgetExceeded, sh.maxReads)
		err := sh.err
		sh.mu.Unlock()
		return err
	}
	sh.reads++
	sh.mu.Unlock()
	ec.mu.Lock()
	ec.stats.recordRead(id)
	ec.mu.Unlock()
	return nil
}

// Charge debits pages page-equivalents from the family's read budget
// without attributing a device read to the stats classifier. The
// compactor uses it (through BudgetFS) to meter segment-merge writes
// with the same budget machinery queries use for reads: once the pool
// is exhausted every further Charge — and every page read sharing the
// family — fails with an error wrapping ErrBudgetExceeded. A nil
// receiver, a non-positive charge, or an unset budget is a no-op.
func (ec *ExecContext) Charge(pages int64) error {
	if ec == nil || pages <= 0 {
		return nil
	}
	if err := ec.ctx.Err(); err != nil {
		return err
	}
	sh := ec.shared
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.err != nil {
		return sh.err
	}
	if sh.maxReads > 0 && sh.reads >= sh.maxReads {
		sh.err = fmt.Errorf("%w (limit %d device page reads)", ErrBudgetExceeded, sh.maxReads)
		return sh.err
	}
	sh.reads += pages
	return nil
}

// cacheHit accounts one buffer-pool hit against this query. Hits are not
// budgeted, but a cancelled or already-over-budget query still stops here
// so that fully cached queries remain cancellable.
func (ec *ExecContext) cacheHit() error {
	if ec == nil {
		return nil
	}
	if err := ec.ctx.Err(); err != nil {
		return err
	}
	ec.shared.mu.Lock()
	if err := ec.shared.err; err != nil {
		ec.shared.mu.Unlock()
		return err
	}
	ec.shared.mu.Unlock()
	ec.mu.Lock()
	ec.stats.CacheHits++
	ec.mu.Unlock()
	return nil
}
