package xrank

import (
	"sync"
	"sync/atomic"
	"time"

	"xrank/internal/obs"
)

// Slow-query log settings: the default threshold (SlowLog().SetThreshold
// changes it) and the ring log's size.
const (
	defaultSlowQueryThreshold = 250 * time.Millisecond
	defaultSlowLogSize        = 128
)

// engineMetrics wires one engine's observability: the metrics registry
// served at /metrics and the bounded slow-query log served at
// /api/slowlog. Every handle is safe for concurrent use, so query
// goroutines record without coordination.
//
// The label-free handles below are resolved once at construction; the
// per-algorithm, per-reason and per-stage series once per label value,
// on that value's first use, so a series still appears in the exposition
// only once something has been recorded into it.
type engineMetrics struct {
	reg  *obs.Registry
	slow *obs.SlowLog

	queries     labeled[obs.Counter]   // by algo
	queryErrors labeled[obs.Counter]   // by algo
	latency     labeled[obs.Histogram] // by algo
	switches    labeled[obs.Counter]   // by reason
	stages      labeled[obs.Histogram] // by stage

	pageReads    *obs.Counter
	seqReads     *obs.Counter
	randReads    *obs.Counter
	cacheHits    *obs.Counter
	blocksRead   *obs.Counter
	blocksSkip   *obs.Counter
	postings     *obs.Counter
	slowTotal    *obs.Counter
	degraded     *obs.Counter
	shardRetries *obs.Counter
	shards       *obs.Gauge
	unhealthy    *obs.Gauge
	inflight     *obs.Gauge

	// Segment lifecycle series (see segment.go and compact.go).
	segments        *obs.Gauge
	compactions     *obs.Counter
	compactionBytes *obs.Counter

	// ElemRank work: the connected components Build and AddDocs solved
	// rather than reused, and their elements (see computeRanks).
	componentsSolved *obs.Counter
	elementsSolved   *obs.Counter
	// rankTime accumulates computeRanks' wall time in nanoseconds (read
	// by the write-path benchmarks; not exported).
	rankTime atomic.Int64

	// Result-cache and coalescing series. The xrank_cache_hits_total
	// family above predates the result cache and counts buffer-pool page
	// hits; these count whole-query reuse ("result" in the name keeps
	// the two apart).
	resultHits      *obs.Counter
	resultMisses    *obs.Counter
	resultStale     *obs.Counter
	resultEvictions *obs.Counter
	resultBytes     *obs.Gauge
	resultEntries   *obs.Gauge
	coalesced       *obs.Counter

	// Autosuggest series (see suggest.go).
	suggestQueries *obs.Counter
	suggestEmpty   *obs.Counter
	suggestNodes   *obs.Counter
	suggestTerms   *obs.Gauge
}

// Metric family names and help strings, shared by the per-query
// recording path and by anyone reading the exposition.
const (
	metricQueries     = "xrank_queries_total"
	metricQueryErrors = "xrank_query_errors_total"
	metricLatency     = "xrank_query_latency_seconds"
	metricStage       = "xrank_query_stage_seconds"
	metricSwitches    = "xrank_hdil_switches_total"

	helpQueries     = "Queries served, by algorithm (including failed ones)."
	helpQueryErrors = "Queries that ended in an error, by algorithm."
	helpLatency     = "End-to-end wall time of successful queries, by algorithm."
	helpStage       = "Per-stage time within queries, by span name."
	helpSwitches    = "HDIL queries where at least one shard switched to DIL, by the first switching shard's reason."
)

func newEngineMetrics() *engineMetrics {
	r := obs.NewRegistry()
	m := &engineMetrics{
		reg:  r,
		slow: obs.NewSlowLog(defaultSlowLogSize, defaultSlowQueryThreshold),

		queries: labeled[obs.Counter]{register: func(algo string) *obs.Counter {
			return r.Counter(metricQueries, helpQueries, "algo", algo)
		}},
		queryErrors: labeled[obs.Counter]{register: func(algo string) *obs.Counter {
			return r.Counter(metricQueryErrors, helpQueryErrors, "algo", algo)
		}},
		latency: labeled[obs.Histogram]{register: func(algo string) *obs.Histogram {
			return r.Histogram(metricLatency, helpLatency, obs.DefaultLatencyBuckets(), "algo", algo)
		}},
		switches: labeled[obs.Counter]{register: func(reason string) *obs.Counter {
			return r.Counter(metricSwitches, helpSwitches, "reason", reason)
		}},
		stages: labeled[obs.Histogram]{register: func(stage string) *obs.Histogram {
			return r.Histogram(metricStage, helpStage, obs.DefaultLatencyBuckets(), "stage", stage)
		}},

		pageReads:    r.Counter("xrank_page_reads_total", "Device page reads attributed to queries."),
		seqReads:     r.Counter("xrank_seq_reads_total", "Query page reads classified sequential."),
		randReads:    r.Counter("xrank_rand_reads_total", "Query page reads classified random."),
		cacheHits:    r.Counter("xrank_cache_hits_total", "Query page accesses absorbed by a buffer pool."),
		blocksRead:   r.Counter("xrank_blocks_decoded_total", "Posting blocks decoded by queries."),
		blocksSkip:   r.Counter("xrank_blocks_skipped_total", "Posting blocks skipped whole by pruning."),
		postings:     r.Counter("xrank_postings_decoded_total", "Inverted-list entries decoded by queries' cursors and probes."),
		slowTotal:    r.Counter("xrank_slow_queries_total", "Queries at or above the slow-query threshold."),
		degraded:     r.Counter("xrank_degraded_queries_total", "Queries served with at least one shard excluded."),
		shardRetries: r.Counter("xrank_shard_retries_total", "Shard executions retried after a transient device fault."),
		shards:       r.Gauge("xrank_index_shards", "Index partitions the engine fans queries out over."),
		unhealthy:    r.Gauge("xrank_shard_unhealthy", "Shards currently marked unhealthy and excluded from queries."),
		inflight:     r.Gauge("xrank_inflight_queries", "Queries currently executing."),

		segments:        r.Gauge("xrank_segments", "Live index segments the engine merges at query time."),
		compactions:     r.Counter("xrank_compactions_total", "Segment compactions completed."),
		compactionBytes: r.Counter("xrank_compaction_bytes_total", "Bytes of merged index files written by compactions."),

		componentsSolved: r.Counter("xrank_elemrank_components_solved_total", "Connected components whose ElemRank Build and AddDocs solved rather than reused."),
		elementsSolved:   r.Counter("xrank_elemrank_elements_solved_total", "Elements of the connected components Build and AddDocs solved."),

		resultHits:      r.Counter("xrank_cache_result_hits_total", "Queries answered from the result cache."),
		resultMisses:    r.Counter("xrank_cache_result_misses_total", "Cacheable queries that missed the result cache."),
		resultStale:     r.Counter("xrank_cache_result_stale_total", "Result-cache lookups that dropped an entry from an older generation."),
		resultEvictions: r.Counter("xrank_cache_result_evictions_total", "Result-cache entries evicted to stay under the byte bound."),
		resultBytes:     r.Gauge("xrank_cache_result_bytes", "Bytes resident in the result cache."),
		resultEntries:   r.Gauge("xrank_cache_result_entries", "Entries resident in the result cache."),
		coalesced:       r.Counter("xrank_coalesced_queries_total", "Queries served by joining another caller's in-flight execution."),

		suggestQueries: r.Counter("xrank_suggest_queries_total", "Autosuggest completions served (including empty ones)."),
		suggestEmpty:   r.Counter("xrank_suggest_empty_total", "Autosuggest completions that matched no dictionary term."),
		suggestNodes:   r.Counter("xrank_suggest_nodes_visited_total", "Radix-trie nodes expanded by best-first completion searches."),
		suggestTerms:   r.Gauge("xrank_suggest_terms", "Distinct terms in the live segments' suggest dictionaries (summed per segment)."),
	}
	// Both switch reasons exist from the start, so a scrape shows 0
	// rather than a missing series.
	for _, reason := range []string{"estimate", "prefix-exhausted"} {
		m.switches.get(reason)
	}
	return m
}

// labeled memoizes one metric family's handles by label value. Reads are
// a lock-free lookup in an immutable map; the first use of a value
// registers its series and publishes a copy of the map with it added.
type labeled[T any] struct {
	register func(label string) *T
	mu       sync.Mutex
	m        atomic.Pointer[map[string]*T]
}

// get returns the handle for label, registering it on first use.
func (l *labeled[T]) get(label string) *T {
	if m := l.m.Load(); m != nil {
		if h, ok := (*m)[label]; ok {
			return h
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var old map[string]*T
	if p := l.m.Load(); p != nil {
		old = *p
	}
	if h, ok := old[label]; ok {
		return h
	}
	next := make(map[string]*T, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	h := l.register(label)
	next[label] = h
	l.m.Store(&next)
	return h
}

// algoLabel is the metrics label for one query's strategy. Disjunctive
// queries ignore SearchOptions.Algorithm, so they get their own label
// rather than being misattributed to the default processor.
func algoLabel(opts SearchOptions) string {
	if opts.Disjunctive {
		return "Disjunctive"
	}
	return opts.Algorithm.String()
}

// queryStarted marks one query in flight.
func (m *engineMetrics) queryStarted() { m.inflight.Add(1) }

// queryFinished records one completed query — successful or not — into
// the registry and, if slow enough (or failed and slow enough), the
// slow-query log. stats must have its WallTime/IO/Trace fields filled.
func (m *engineMetrics) queryFinished(algo, q string, stats *QueryStats, err error) {
	m.inflight.Add(-1)
	m.queries.get(algo).Inc()
	m.pageReads.Add(stats.IO.Reads)
	m.seqReads.Add(stats.IO.SeqReads)
	m.randReads.Add(stats.IO.RandReads)
	m.cacheHits.Add(stats.IO.CacheHits)
	m.blocksRead.Add(stats.IO.BlocksDecoded)
	m.blocksSkip.Add(stats.IO.BlocksSkipped)
	m.postings.Add(stats.IO.Postings)
	if stats.SwitchedToDIL {
		m.switches.get(stats.SwitchReason).Inc()
	}
	if stats.Degraded {
		m.degraded.Inc()
	}
	m.shardRetries.Add(int64(stats.Retries))
	if err != nil {
		m.queryErrors.get(algo).Inc()
	} else {
		// Latency histograms describe successful queries only: a query
		// aborted by cancellation or budget exhaustion says nothing about
		// how long the work takes.
		m.latency.get(algo).Observe(stats.WallTime.Seconds())
	}
	for name, d := range obs.SumByName(stats.Trace) {
		m.stages.get(name).Observe(d.Seconds())
	}
	entry := obs.SlowLogEntry{
		Time:      time.Now(),
		Query:     q,
		Algorithm: algo,
		Shards:    stats.Shards,
		Wall:      stats.WallTime,
		Reads:     stats.IO.Reads,
		CacheHits: stats.IO.CacheHits,
		Degraded:  stats.Degraded,
		Cached:    stats.Cached,
		Coalesced: stats.Coalesced,
		Spans:     stats.Trace,

		SwitchReason:  stats.SwitchReason,
		RankedEntries: stats.RankedEntriesRead,
	}
	if err != nil {
		entry.Err = err.Error()
	}
	if m.slow.Observe(entry) {
		m.slowTotal.Inc()
	}
}

// Metrics returns the engine's metrics registry: per-algorithm query and
// error counters, latency and per-stage histograms, I/O counters, and
// shard/in-flight gauges. Serve it with Registry.WritePrometheus (the
// bundled HTTP server's /metrics endpoint does exactly that). Never nil.
func (e *Engine) Metrics() *obs.Registry { return e.met.reg }

// SlowLog returns the engine's bounded slow-query log. Queries whose
// wall time reaches its threshold (250 ms until SetThreshold changes
// it) are recorded — query text, algorithm, shard fan-out, I/O, and the
// per-stage span trace. Never nil; with a negative threshold the log
// stays empty.
func (e *Engine) SlowLog() *obs.SlowLog { return e.met.slow }

// QueryLatency returns a snapshot of the engine's query-latency
// histogram for one algorithm label (e.g. "DIL", "HDIL",
// "Disjunctive"), or a zero snapshot if no successful query with that
// label has been recorded. The bench harness diffs two snapshots around
// a measured run instead of keeping its own timers.
func (e *Engine) QueryLatency(algo string) obs.HistogramSnapshot {
	return e.met.reg.FindHistogram(metricLatency, "algo", algo).Snapshot()
}
