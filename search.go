package xrank

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"xrank/internal/cache"
	"xrank/internal/dewey"
	"xrank/internal/index"
	"xrank/internal/obs"
	"xrank/internal/query"
	"xrank/internal/storage"
	"xrank/internal/xmldoc"
)

// Algorithm selects the query processing strategy.
type Algorithm int

const (
	// AlgoHDIL is the paper's recommended default: the adaptive hybrid.
	AlgoHDIL Algorithm = iota
	// AlgoDIL is the single-pass Dewey-stack merge (Figure 5).
	AlgoDIL
	// AlgoRDIL is the rank-ordered threshold algorithm (Figure 7).
	AlgoRDIL
)

func (a Algorithm) String() string {
	switch a {
	case AlgoHDIL:
		return "HDIL"
	case AlgoDIL:
		return "DIL"
	case AlgoRDIL:
		return "RDIL"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// SearchOptions tune one query.
type SearchOptions struct {
	// TopM is the desired number of results (default 10).
	TopM int
	// Algorithm selects the processor (default AlgoHDIL).
	Algorithm Algorithm
	// ColdCache empties the buffer pools before the query, mimicking the
	// paper's measurement protocol; HDIL's switch estimator then prices
	// the query with the paper's disk (storage.PaperDiskCostModel) instead
	// of the serving model. It also zeroes Engine.IOStats and
	// ShardIOStats. The pools are shared by every query, so ColdCache is
	// a single-tenant measurement knob: emptying them while other queries
	// are in flight is safe (the race detector is clean) but yanks cached
	// pages out from under those queries, which then pay device reads
	// that a solo run would not. Per-query I/O attribution
	// (QueryStats.IO) stays exact.
	ColdCache bool
	// MaxPageReads caps the number of device page reads this query may
	// perform; once exceeded the query aborts with an error wrapping
	// ErrBudgetExceeded. Buffer-pool hits are free. Zero means
	// unlimited.
	MaxPageReads int64

	// Decay overrides the engine's per-level rank decay for this query
	// (0 keeps the engine default). Decay is a query-time parameter: the
	// index stores undecayed per-entry ElemRanks.
	Decay float64
	// ProximityOff makes the keyword proximity factor constantly 1 for
	// this query, the paper's recommendation for highly structured data.
	ProximityOff bool
	// SumAggregation uses f=sum instead of f=max over multiple keyword
	// occurrences (Section 2.3.2.1). Only the full-scan algorithm (DIL)
	// supports it; the threshold algorithms reject it.
	SumAggregation bool
	// Disjunctive switches to disjunctive keyword semantics (Section 2.2):
	// elements directly containing at least one keyword, scored by the
	// keywords present. Evaluated with a DIL-style merge; Algorithm is
	// ignored.
	Disjunctive bool
	// Weights assigns per-keyword weights (Section 2.3.2.2), aligned with
	// the distinct keywords of the query in order of first appearance.
	Weights []float64
}

// SearchResult is one ranked result.
type SearchResult struct {
	// DeweyID is the dotted Dewey ID of the result element.
	DeweyID string
	// Score is the overall rank R(v, Q).
	Score float64
	// Doc is the owning document's name.
	Doc string
	// Path is the tag path from the document root, e.g.
	// "workshop/proceedings/paper/title".
	Path string
	// Tag is the element's tag name.
	Tag string
	// Snippet is up to ~160 characters of the element's text content.
	Snippet string
}

// QueryStats reports the cost of one query.
type QueryStats struct {
	Algorithm     Algorithm
	Keywords      []string
	WallTime      time.Duration
	IO            storage.Stats
	SimulatedTime time.Duration // under the paper's disk model (storage.PaperDiskCostModel)
	SwitchedToDIL bool          // HDIL only: true if any partition switched
	// SwitchReason is why the first switching partition, in (segment,
	// shard) order, left the ranked strategy ("estimate" or
	// "prefix-exhausted"; empty without a switch), and RankedEntriesRead
	// how many rank-list entries the HDIL partitions consumed in total
	// before stopping or switching.
	SwitchReason      string
	RankedEntriesRead int
	// Shards is the index's shard count and Segments its live segment
	// count: the query fanned out over Shards × Segments partitions (one
	// shard of one segment each) and merged them once.
	Shards   int
	Segments int

	// Cached reports the results were served from the engine's result
	// cache: no index I/O happened on behalf of this call, and IO,
	// SimulatedTime and the execution spans of Trace are zero/absent.
	// Coalesced reports the results were shared from another caller's
	// concurrent identical execution (the I/O is attributed to that
	// execution, not this call). At most one of the two is set.
	Cached    bool
	Coalesced bool

	// ResultsJSON, set only when Cached or Coalesced, is json.Marshal of
	// the returned results, encoded once per shared entry and handed to
	// every caller the entry serves (the HTTP API splices it into its
	// reply instead of re-encoding). It is shared and read-only: callers
	// must not modify it. Nil when the results were executed for this
	// call, or when they cannot be encoded.
	ResultsJSON []byte `json:"-"`

	// Degraded reports that the query completed without some partitions
	// (shards of a segment): transient device faults survived the retry
	// budget, or shards already marked unhealthy were skipped. The
	// results are the correct top-k of the healthy partitions only.
	// FailedShards lists the shard numbers of the excluded partitions, in
	// any segment; Retries counts the partition executions retried after
	// transient faults (including ones that then succeeded).
	Degraded     bool
	FailedShards []int
	Retries      int

	// Trace holds the per-stage spans recorded while the query ran:
	// engine stages (tokenize, execute, materialize), algorithm stages
	// (e.g. dil.open, dil.merge, rdil.rounds, hdil.switch), and, when the
	// query fans out over more than one partition, one shardNN.exec per
	// partition and one merge.topk. Spans are sorted by start time;
	// parallel partition spans overlap.
	Trace []obs.Span
}

// Search runs a free-text conjunctive keyword query with default options
// and returns the top 10 results.
func (e *Engine) Search(q string) ([]SearchResult, error) {
	res, _, err := e.SearchDetailed(q, SearchOptions{})
	return res, err
}

// SearchDetailed runs the query with explicit options and returns cost
// statistics alongside the results. It is SearchContext with a background
// context: no cancellation and no deadline.
func (e *Engine) SearchDetailed(q string, opts SearchOptions) ([]SearchResult, *QueryStats, error) {
	return e.SearchContext(context.Background(), q, opts)
}

// Over-fetch factors for answer-node collapsing and tombstone filtering:
// the raw top-(m·overfetchBase) is fetched first, and if collapsing still
// leaves fewer than m results while the raw result set was full, the
// query retries once at m·overfetchBase·overfetchRetry. A collection
// whose raw results collapse more than overfetchBase·overfetchRetry-to-1
// onto the same answer nodes can still return fewer than m results.
const (
	overfetchBase  = 4
	overfetchRetry = 4
)

// SearchContext runs the query with explicit options under ctx and
// returns cost statistics alongside the results.
//
// SearchContext is the engine's concurrent query entry point: any number
// of calls may run in parallel against one engine (and interleave with
// DeleteDoc). Each call gets a private storage.ExecContext, so the
// returned QueryStats.IO describes exactly this query's page traffic —
// device reads, sequential/random classification and buffer-pool hits —
// with no bleed from concurrent queries. Cancellation or deadline
// expiration of ctx aborts the query at its next page access or
// merge-loop boundary with ctx's error; exceeding opts.MaxPageReads
// aborts it with an error wrapping ErrBudgetExceeded.
//
// With Config.CacheBytes > 0 a repeated query may be answered from the
// result cache (QueryStats.Cached); with Config.CoalesceQueries
// concurrent identical queries share one execution
// (QueryStats.Coalesced). Build, AddDocs and ColdCache invalidate all
// cached results; DeleteDoc evicts exactly the entries mentioning the
// deleted document; degraded results are never cached. Queries with
// opts.ColdCache or a page-read budget always execute fresh.
func (e *Engine) SearchContext(ctx context.Context, q string, opts SearchOptions) ([]SearchResult, *QueryStats, error) {
	if !e.built {
		return nil, nil, fmt.Errorf("xrank: engine not built")
	}
	trace := obs.NewTrace()
	start := time.Now()
	keywords := tokenizeQuery(q)
	trace.RecordSpan("tokenize", start, time.Since(start))
	if len(keywords) == 0 {
		// A keyword-free query is an invalid request, not a served query:
		// it never reaches the metrics.
		return nil, nil, fmt.Errorf("%w: %q", ErrNoKeywords, q)
	}
	if opts.TopM <= 0 {
		opts.TopM = 10
	}
	if opts.ColdCache {
		// ColdCache bumps the generation too, so a cold measurement is
		// never answered from the result cache.
		if err := e.ColdCache(); err != nil {
			return nil, nil, err
		}
	}

	// Result-cache and coalescing eligibility. ColdCache queries are
	// measurements and must execute. Budgeted queries execute too: the
	// budget changes whether a query errors, not what it returns, so
	// sharing one execution (or its cached result) across callers with
	// different budgets would serve the wrong outcome.
	shareable := !opts.ColdCache && opts.MaxPageReads == 0
	if !shareable || (e.rcache == nil && !e.cfg.CoalesceQueries) {
		return e.executeQuery(ctx, q, keywords, opts, trace, start)
	}

	// The generation is captured before the lookup and before execution
	// starts: a Build/DeleteDoc/ColdCache that lands mid-flight bumps the
	// counter past gen, so the entry stored below is already stale and can
	// never be served.
	gen := e.gen.Load()
	key := e.cacheKey(keywords, opts)

	if e.rcache != nil {
		if v, ok, stale := e.rcache.Get(key, gen); ok {
			fv := v.(*flightEntry)
			if e.docsLive(fv.docs) {
				return e.serveShared(fv, q, keywords, opts, trace, start, true)
			}
			// An execution that started before a DeleteDoc can store its
			// entry after the per-document eviction swept the cache; the
			// liveness check catches that race at serving time.
			e.rcache.Delete(key)
			e.met.resultStale.Inc()
		} else if stale {
			e.met.resultStale.Inc()
		}
		e.met.resultMisses.Inc()
	}

	if !e.cfg.CoalesceQueries {
		out, stats, err := e.executeQuery(ctx, q, keywords, opts, trace, start)
		if err == nil && !stats.Degraded {
			e.storeResult(key, gen, newFlightEntry(out, stats.Shards))
		}
		return out, stats, err
	}

	// Coalesced path: the flight runs executeQuery under its own context
	// (waiter-side cancellation, see cache.Group), records its own
	// metrics, and publishes an immutable flightEntry for the cache and
	// for every coalesced caller. leaderOut/leaderStats hand the
	// execution's own results back to the creator without a copy; the
	// close of the flight's done channel orders the writes before the
	// creator's read.
	var (
		leaderOut   []SearchResult
		leaderStats *QueryStats
	)
	v, err, leader := e.flights.Do(ctx, key, func(fctx context.Context) (any, error) {
		out, stats, err := e.executeQuery(fctx, q, keywords, opts, trace, start)
		if err != nil {
			return nil, err
		}
		fv := newFlightEntry(out, stats.Shards)
		if !stats.Degraded {
			e.storeResult(key, gen, fv)
		}
		leaderOut, leaderStats = out, stats
		return fv, nil
	})
	switch {
	case err == nil && leader:
		return leaderOut, leaderStats, nil
	case err == nil:
		return e.serveShared(v.(*flightEntry), q, keywords, opts, trace, start, false)
	case leader:
		// The execution itself already recorded the failure.
		return nil, nil, err
	default:
		// A waiter that ends with an error — the shared flight failed, or
		// this caller's own ctx died while waiting — is still a served
		// request: account it like any failed query.
		stats := &QueryStats{Algorithm: opts.Algorithm, Keywords: keywords, Coalesced: true}
		e.met.queryStarted()
		e.met.coalesced.Inc()
		stats.WallTime = time.Since(start)
		stats.Trace = trace.Spans()
		e.met.queryFinished(algoLabel(opts), q, stats, err)
		return nil, nil, err
	}
}

// flightEntry is the immutable value shared through the result cache and
// between coalesced callers: nothing mutates it after creation, and
// every shared serving copies results out (callers own their slices).
// docs lists the distinct document names the results mention, so
// DeleteDoc can evict exactly the entries that involve the tombstoned
// document.
//
// encoded is json.Marshal(results), computed by the first shared serving
// rather than at creation, so a result that is never served again (every
// entry on a write-heavy index) costs no encoding. results never change,
// so the bytes can be handed to every later caller as they are.
type flightEntry struct {
	results []SearchResult
	docs    []string
	shards  int

	encodeOnce sync.Once
	encoded    []byte
}

// newFlightEntry snapshots one completed execution's results for
// sharing, collecting the distinct document names in order of first
// appearance.
func newFlightEntry(out []SearchResult, shards int) *flightEntry {
	fv := &flightEntry{results: copyResults(out), shards: shards}
	seen := make(map[string]bool, len(out))
	for i := range out {
		if d := out[i].Doc; !seen[d] {
			seen[d] = true
			fv.docs = append(fv.docs, d)
		}
	}
	return fv
}

// resultsJSON returns the entry's results encoded as JSON, encoding them
// on the first call. It returns nil if they cannot be encoded (a
// non-finite score); callers then encode their own copy and see the
// error there.
func (f *flightEntry) resultsJSON() []byte {
	f.encodeOnce.Do(func() {
		if b, err := json.Marshal(f.results); err == nil {
			f.encoded = b
		}
	})
	return f.encoded
}

// size estimates the entry's resident bytes for the cache's byte bound,
// counting the JSON encoding the first hit adds: each result's strings a
// second time plus about 96 bytes of field names, quoting and score.
func (f *flightEntry) size(key string) int64 {
	n := int64(len(key)) + 160 // entry, map slot and struct overhead
	for i := range f.results {
		r := &f.results[i]
		n += 2*int64(len(r.DeweyID)+len(r.Doc)+len(r.Path)+len(r.Tag)+len(r.Snippet)) + 64 + 96
	}
	for _, d := range f.docs {
		n += int64(len(d)) + 24
	}
	return n
}

// docsLive reports whether every named document is still live (present
// and not tombstoned). Serving a cached entry re-checks this so a
// result set mentioning a deleted document is never served, even if its
// store raced past the per-document eviction.
func (e *Engine) docsLive(names []string) bool {
	if len(names) == 0 {
		return true
	}
	e.snapMu.RLock()
	defer e.snapMu.RUnlock()
	e.mu.RLock()
	defer e.mu.RUnlock()
	for _, n := range names {
		d := e.col.DocByName(n)
		if d == nil || e.deleted[d.ID] {
			return false
		}
	}
	return true
}

// copyResults copies rs. An empty answer stays an empty, non-nil slice,
// as a fresh execution returns it, so a shared serving encodes it the
// same way ("[]", not "null").
func copyResults(rs []SearchResult) []SearchResult {
	return append(make([]SearchResult, 0, len(rs)), rs...)
}

// cacheKey canonicalizes one query for the result cache and the
// coalescing group, with engine-level defaults resolved so that e.g. an
// explicit opts.Decay equal to the engine default still collides.
func (e *Engine) cacheKey(keywords []string, opts SearchOptions) string {
	decay := opts.Decay
	if decay == 0 {
		decay = e.cfg.Decay
	}
	return cache.Spec{
		Terms:     keywords,
		Weights:   opts.Weights,
		Algo:      algoLabel(opts),
		TopM:      opts.TopM,
		Decay:     decay,
		Proximity: !opts.ProximityOff,
		SumAgg:    opts.SumAggregation,
	}.Key()
}

// storeResult puts one completed query's entry into the result cache
// (no-op when disabled) and refreshes the cache gauges.
func (e *Engine) storeResult(key string, gen uint64, fv *flightEntry) {
	if e.rcache == nil {
		return
	}
	if ev := e.rcache.Put(key, fv, fv.size(key), gen); ev > 0 {
		e.met.resultEvictions.Add(int64(ev))
	}
	cs := e.rcache.Stats()
	e.met.resultBytes.Set(cs.Bytes)
	e.met.resultEntries.Set(int64(cs.Entries))
}

// serveShared answers one caller without executing: from the result
// cache (cached=true) or from another caller's completed flight. The
// request is fully accounted — one queries_total increment, its own
// wall time and slow-log entry — with zero I/O, since the index reads
// happened elsewhere (or never, for a cache hit).
func (e *Engine) serveShared(fv *flightEntry, q string, keywords []string, opts SearchOptions, trace *obs.Trace, start time.Time, cached bool) ([]SearchResult, *QueryStats, error) {
	stats := &QueryStats{
		Algorithm: opts.Algorithm,
		Keywords:  keywords,
		Shards:    fv.shards,
		Cached:    cached,
		Coalesced: !cached,

		ResultsJSON: fv.resultsJSON(),
	}
	e.met.queryStarted()
	if cached {
		e.met.resultHits.Inc()
	} else {
		e.met.coalesced.Inc()
	}
	stats.WallTime = time.Since(start)
	stats.Trace = trace.Spans()
	e.met.queryFinished(algoLabel(opts), q, stats, nil)
	return copyResults(fv.results), stats, nil
}

// executeQuery runs one query for real — private execution context, I/O
// attribution, metrics and slow-log recording — continuing the trace and
// clock the caller started at tokenization.
func (e *Engine) executeQuery(ctx context.Context, q string, keywords []string, opts SearchOptions, trace *obs.Trace, start time.Time) ([]SearchResult, *QueryStats, error) {
	// The snapshot read lock pins the segment set (and the collection,
	// ranks and manifest backing it) for the whole execution: AddDocs
	// and CompactOnce swap those fields only under the write lock, so no
	// cursor opened below can observe a retired segment or a torn
	// snapshot.
	e.snapMu.RLock()
	defer e.snapMu.RUnlock()
	if len(e.segs) == 0 {
		return nil, nil, ErrClosed
	}
	ec := storage.NewExecContext(ctx)
	if opts.MaxPageReads > 0 {
		ec.SetBudget(opts.MaxPageReads)
	}
	ec.SetSpanRecorder(trace)
	stats := &QueryStats{Algorithm: opts.Algorithm, Keywords: keywords}
	report := &query.ShardReport{}

	e.met.queryStarted()
	out, err := e.searchLoop(keywords, opts, ec, report, stats)

	// The single finish point: successful and failed queries alike get
	// their wall time, I/O attribution, span trace and degradation facts,
	// and are recorded into the engine's I/O totals, metrics registry and
	// slow-query log.
	stats.WallTime = time.Since(start)
	stats.IO = ec.Stats()
	e.countShardIO(report.ShardIO())
	stats.SimulatedTime = storage.PaperDiskCostModel().SimulatedTime(stats.IO)
	stats.Trace = trace.Spans()
	stats.Degraded = report.Degraded()
	stats.FailedShards = report.FailedShards()
	stats.Retries = report.Retries()
	e.met.unhealthy.Set(int64(e.unhealthyShards()))
	if err == nil && stats.Degraded && e.failOnDegraded {
		// Strict mode: a partial answer is an error. Decided before
		// queryFinished so the metrics and slow log see the failure.
		err = fmt.Errorf("%w (shards %v)", ErrDegraded, stats.FailedShards)
	}
	e.met.queryFinished(algoLabel(opts), q, stats, err)
	if err != nil {
		return nil, nil, err
	}
	return out, stats, nil
}

// searchLoop runs the over-fetch/materialize loop of one query under its
// execution context. Answer-node collapsing and tombstone filtering
// shrink the raw result set, so it over-fetches when either is active;
// if a full raw result set still collapses below topM, it retries once
// with a larger factor (see the overfetch constants).
func (e *Engine) searchLoop(keywords []string, opts SearchOptions, ec *storage.ExecContext, report *query.ShardReport, stats *QueryStats) ([]SearchResult, error) {
	parts, proc, err := e.plan(keywords, opts)
	if err != nil {
		return nil, err
	}
	stats.Segments = len(e.segs)
	stats.Shards = e.segs[0].ix.NumShards()
	overfetch := len(e.cfg.AnswerTags) > 0 || e.hasTombstones()
	mult := 1
	if overfetch {
		mult = overfetchBase
	}
	var out []SearchResult
	for {
		qopts := e.queryOptions(opts.TopM * mult)
		if opts.Decay != 0 {
			qopts.Decay = opts.Decay
		}
		if opts.ProximityOff {
			qopts.UseProximity = false
		}
		if opts.SumAggregation {
			qopts.Agg = query.AggSum
		}
		qopts.Weights = opts.Weights
		qopts.Exec = ec
		qopts.Report = report

		endExec := ec.StartSpan("execute")
		rs, trace, err := query.Execute(parts, qopts, proc)
		endExec()
		if err != nil {
			return nil, err
		}
		if trace.SwitchedToDIL && !stats.SwitchedToDIL {
			stats.SwitchedToDIL, stats.SwitchReason = true, trace.SwitchReason
		}
		stats.RankedEntriesRead += trace.RankedEntriesRead
		endMat := ec.StartSpan("materialize")
		out, err = e.materialize(rs, opts.TopM)
		endMat()
		if err != nil {
			return nil, err
		}
		if len(out) >= opts.TopM || !overfetch || mult > overfetchBase || len(rs) < qopts.TopM {
			// Done: topM filled, nothing collapsed, already retried, or
			// the raw result set was not even full (fetching more raw
			// results cannot yield more collapsed ones).
			return out, nil
		}
		mult *= overfetchRetry
	}
}

// plan lists every shard of every live segment as a partition, in
// (segment, shard) order, and returns the per-partition evaluation of
// the query. Each document lives in exactly one partition and every
// scoring decision is intra-document, so the merged top-m of the
// partitions' exact top-m's is exact — identical to a from-scratch
// rebuild over the same documents. Callers hold snapMu.
//
// Partitions of a segment whose baked ElemRanks predate the current rank
// version are queried with a rank override substituting the live values
// (rounded through float32, matching what a rebuild would bake). Their
// rank-ordered lists are sorted by the outdated ranks, which makes the
// threshold algorithms unsound there, so stale partitions route RDIL and
// HDIL to DIL — same results, document-order execution. The disjunctive
// merge is document-ordered; the override alone suffices.
func (e *Engine) plan(keywords []string, opts SearchOptions) ([]query.Partition, query.Processor, error) {
	if opts.Algorithm < AlgoHDIL || opts.Algorithm > AlgoRDIL {
		return nil, nil, fmt.Errorf("xrank: unknown algorithm %d", opts.Algorithm)
	}
	var parts []query.Partition
	var stale func(*index.Posting) float64
	for _, s := range e.segs {
		isStale := s.rankVer != e.rankVer
		if isStale && stale == nil {
			// Built once per query, and only for a stale segment: until
			// then an opened engine may not have solved its ranks.
			stale = e.rankOverride()
		}
		parts = append(parts, query.Partitions(s.ix, isStale, s.health)...)
	}
	// The estimator prices the device the query is served from: the OS
	// page cache normally, the paper's disk under its cold protocol.
	cm := storage.DefaultCostModel()
	if opts.ColdCache {
		cm = storage.PaperDiskCostModel()
	}
	proc := func(p query.Partition, so query.Options) ([]query.Result, *query.HDILTrace, error) {
		algo := opts.Algorithm
		if p.Stale {
			so.Rank, algo = stale, AlgoDIL
		}
		var rs []query.Result
		var err error
		switch {
		case opts.Disjunctive:
			rs, err = query.Disjunctive(p.Ix, keywords, so)
		case algo == AlgoDIL:
			rs, err = query.DIL(p.Ix, keywords, so)
		case algo == AlgoRDIL:
			rs, err = query.RDIL(p.Ix, keywords, so)
		default:
			return query.HDIL(p.Ix, keywords, so, cm)
		}
		return rs, nil, err
	}
	return parts, proc, nil
}

// rankOverride returns the posting-rank substitute for stale segments:
// the current global ElemRank of the posting's element, rounded through
// float32 exactly as index building would bake it. Dewey postings resolve
// through the documents' child-offset tables (xmldoc.Document.IndexAt),
// never through Element pointers: this runs once per posting scanned.
func (e *Engine) rankOverride() func(p *index.Posting) float64 {
	col, ranks := e.col, e.rank.Scores
	return func(p *index.Posting) float64 {
		if len(p.ID) == 0 || int(p.ID[0]) >= len(col.Docs) {
			return 0
		}
		d := col.Docs[p.ID[0]]
		i := d.IndexAt(p.ID)
		if i < 0 {
			return 0
		}
		return float64(float32(ranks[d.Base+i]))
	}
}

// materialize converts internal results to SearchResults, applying answer
// node mapping and deduplication.
func (e *Engine) materialize(rs []query.Result, topM int) ([]SearchResult, error) {
	out := make([]SearchResult, 0, len(rs))
	seen := make(map[string]bool)
	for _, r := range rs {
		el := e.elementAtID(r.ID)
		if el == nil {
			return nil, fmt.Errorf("xrank: result %v does not resolve to an element", r.ID)
		}
		if e.isDeleted(el.Doc.ID) {
			continue // tombstoned document (Section 4.5)
		}
		if len(e.cfg.AnswerTags) > 0 {
			el = e.answerNodeFor(el)
			if el == nil {
				continue
			}
		}
		id := el.DeweyID().String()
		if seen[id] {
			continue // several raw results collapsed to one answer node
		}
		seen[id] = true
		out = append(out, SearchResult{
			DeweyID: id,
			Score:   r.Score,
			Doc:     el.Doc.Name,
			Path:    xmldoc.Path(el),
			Tag:     el.Tag,
			Snippet: snippet(el),
		})
		if len(out) == topM {
			break
		}
	}
	return out, nil
}

func (e *Engine) hasTombstones() bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.deleted) > 0
}

func (e *Engine) isDeleted(docID uint32) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.deleted[docID]
}

// answerNodeFor maps an element to its nearest ancestor-or-self answer
// node (Section 2.2). HTML roots always qualify.
func (e *Engine) answerNodeFor(el *xmldoc.Element) *xmldoc.Element {
	for p := el; p != nil; p = p.Parent {
		if p.Kind == xmldoc.KindHTMLRoot {
			return p
		}
		for _, t := range e.cfg.AnswerTags {
			if p.Tag == t {
				return p
			}
		}
	}
	return nil
}

// snippet extracts up to ~160 characters of text from the element's
// subtree for display.
func snippet(el *xmldoc.Element) string {
	var b strings.Builder
	xmldoc.Walk(el, func(x *xmldoc.Element) bool {
		if x.Text != "" {
			if b.Len() > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(x.Text)
		}
		return b.Len() < snippetBytes
	})
	s := b.String()
	if len(s) > snippetBytes {
		// Truncate on a rune boundary: byte snippetBytes may land inside
		// a multi-byte UTF-8 sequence, and slicing there would emit a
		// broken rune before the ellipsis.
		cut := snippetBytes
		for cut > 0 && !utf8.RuneStart(s[cut]) {
			cut--
		}
		s = s[:cut] + "…"
	}
	return s
}

// snippetBytes bounds a snippet's length in bytes (before the ellipsis).
const snippetBytes = 160

// Ancestors returns the chain of elements from the given result element up
// to its document root (nearest first), supporting the paper's "navigate
// up for context" interaction (Section 2.2).
func (e *Engine) Ancestors(deweyID string) ([]SearchResult, error) {
	e.snapMu.RLock()
	defer e.snapMu.RUnlock()
	el, err := e.elementAt(deweyID)
	if err != nil {
		return nil, err
	}
	var out []SearchResult
	for p := el.Parent; p != nil; p = p.Parent {
		out = append(out, SearchResult{
			DeweyID: p.DeweyID().String(),
			Doc:     p.Doc.Name,
			Path:    xmldoc.Path(p),
			Tag:     p.Tag,
			Snippet: snippet(p),
		})
	}
	return out, nil
}

// Fragment serializes a result element (identified by its dotted Dewey
// ID) back to an XML fragment, up to maxDepth levels deep (0 = all).
// Text that originally interleaved with child elements is emitted before
// them; see xmldoc.WriteXML.
func (e *Engine) Fragment(deweyID string, maxDepth int) (string, error) {
	e.snapMu.RLock()
	defer e.snapMu.RUnlock()
	el, err := e.elementAt(deweyID)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	if err := xmldoc.WriteXML(&b, el, maxDepth); err != nil {
		return "", err
	}
	return b.String(), nil
}

// elementAt resolves a dotted Dewey ID in the current collection. Callers
// hold snapMu.
func (e *Engine) elementAt(deweyID string) (*xmldoc.Element, error) {
	id, err := dewey.Parse(deweyID)
	if err != nil {
		return nil, err
	}
	el := e.elementAtID(id)
	if el == nil {
		return nil, fmt.Errorf("xrank: no element %s", deweyID)
	}
	return el, nil
}

func (e *Engine) elementAtID(id dewey.ID) *xmldoc.Element {
	if len(id) == 0 || int(id[0]) >= len(e.col.Docs) {
		return nil
	}
	return e.col.Docs[id[0]].ElementAt(id)
}
