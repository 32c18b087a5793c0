package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"xrank"
	"xrank/internal/breaker"
	"xrank/internal/httpapi"
	"xrank/internal/obs"
)

// CoordinatorConfig describes one coordinator: the shard → replica-URL
// topology and the fault-handling knobs. Zero values select the
// defaults documented per field.
type CoordinatorConfig struct {
	// Shards lists the replica base URLs for each shard; index is the
	// shard id. Every shard needs at least one replica.
	Shards [][]string

	// Client issues replica requests (nil: http.DefaultClient). Tests
	// inject clients with DisableKeepAlives so chaos schedules see one
	// connection per request.
	Client *http.Client

	// ReplicaTimeout bounds one replica attempt (default 2s). It is
	// also forwarded to the replica as timeout_ms so the shard engine
	// self-cancels instead of burning I/O on an abandoned request.
	ReplicaTimeout time.Duration

	// Retries is the number of extra passes over a shard's admitted
	// replica list after the first (default 1; negative: none).
	Retries int

	// RetryBackoff is the base of the full-jitter exponential backoff
	// between attempts (breaker.Backoff): attempt k waits uniform in
	// [0, base<<k] (default 2ms).
	RetryBackoff time.Duration

	// RetrySeed makes backoff waits reproducible; 0 means seed 1,
	// matching the engine's shard-retry convention.
	RetrySeed int64

	// FailureThreshold opens a replica's breaker after this many
	// consecutive failed attempts (default 3, the engine's fixed shard
	// threshold).
	FailureThreshold int

	// ProbeInterval spaces half-open trials against an open breaker;
	// 0 keeps breakers sticky-open until Reset.
	ProbeInterval time.Duration

	// HedgeDelay controls hedged second requests on a shard's first
	// attempt: >0 is a fixed delay, 0 derives the delay from the p99 of
	// recent winning latencies, negative disables hedging.
	HedgeDelay time.Duration

	// FailOnDegraded answers 503 instead of serving a partial merge
	// when at least one shard is down, mirroring the engine option.
	FailOnDegraded bool

	// Metrics mounts /metrics on the coordinator handler.
	Metrics bool

	// Now is the breaker clock (nil: time.Now). Injectable for tests.
	Now func() time.Time
}

// coordinator defaults.
const (
	defaultReplicaTimeout   = 2 * time.Second
	defaultRetries          = 1
	defaultRetryBackoff     = 2 * time.Millisecond
	defaultFailureThreshold = 3
	defaultHedgeDelay       = 50 * time.Millisecond // until the digest has samples
	minHedgeDelay           = time.Millisecond
)

// Coordinator fans /api/search out to one replica per shard and merges
// the per-shard pages into a global top-m. See the package comment for
// the fault model.
type Coordinator struct {
	cfg        CoordinatorConfig
	client     *http.Client
	placements [][]string // per shard, rendezvous order
	breaker    *breaker.Breaker[string]
	digest     *latencyDigest
	reg        *obs.Registry

	requests     *obs.Counter
	reqErrors    *obs.Counter
	degradedTot  *obs.Counter
	attempts     *obs.Counter
	failures     *obs.Counter
	retries      *obs.Counter
	probes       *obs.Counter
	backpressure *obs.Counter
	hedges       *obs.Counter
	hedgeWins    *obs.Counter
	openGauge    *obs.Gauge
}

// NewCoordinator validates the topology and builds a coordinator.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("cluster: coordinator needs at least one shard")
	}
	for s, reps := range cfg.Shards {
		if len(reps) == 0 {
			return nil, fmt.Errorf("cluster: shard %d has no replicas", s)
		}
	}
	if cfg.ReplicaTimeout <= 0 {
		cfg.ReplicaTimeout = defaultReplicaTimeout
	}
	if cfg.Retries == 0 {
		cfg.Retries = defaultRetries
	} else if cfg.Retries < 0 {
		cfg.Retries = 0
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = defaultRetryBackoff
	}
	if cfg.RetrySeed == 0 {
		cfg.RetrySeed = 1
	}
	if cfg.FailureThreshold <= 0 {
		cfg.FailureThreshold = defaultFailureThreshold
	}
	client := cfg.Client
	if client == nil {
		client = http.DefaultClient
	}
	placements := make([][]string, len(cfg.Shards))
	for s, reps := range cfg.Shards {
		placements[s] = PlacementOrder(s, reps)
	}
	reg := obs.NewRegistry()
	c := &Coordinator{
		cfg:        cfg,
		client:     client,
		placements: placements,
		breaker:    breaker.New[string](cfg.FailureThreshold, cfg.ProbeInterval, cfg.Now),
		digest:     newLatencyDigest(),
		reg:        reg,

		requests:     reg.Counter("xrank_coord_requests_total", "Search requests the coordinator accepted for fan-out."),
		reqErrors:    reg.Counter("xrank_coord_errors_total", "Coordinator search requests that ended in a non-2xx response."),
		degradedTot:  reg.Counter("xrank_coord_degraded_total", "Coordinator responses served with at least one shard missing."),
		attempts:     reg.Counter("xrank_replica_attempts_total", "Replica requests issued (hedges included, cancelled losers excluded)."),
		failures:     reg.Counter("xrank_replica_failures_total", "Replica attempts that failed (transport error, timeout, or 5xx)."),
		retries:      reg.Counter("xrank_replica_retries_total", "Replica attempts issued after a jittered backoff wait."),
		probes:       reg.Counter("xrank_replica_probes_total", "Half-open trials admitted against open replica breakers."),
		backpressure: reg.Counter("xrank_replica_backpressure_total", "Replica attempts answered 429/503/504 (failover without a breaker charge)."),
		hedges:       reg.Counter("xrank_hedged_requests_total", "Hedged second requests issued after the hedge delay."),
		hedgeWins:    reg.Counter("xrank_hedge_wins_total", "Hedged requests whose second attempt produced the winning response."),
		openGauge:    reg.Gauge("xrank_replica_open", "Replicas with an open circuit breaker."),
	}
	return c, nil
}

// Metrics returns the coordinator's registry.
func (c *Coordinator) Metrics() *obs.Registry { return c.reg }

// Breaker exposes the replica breaker, keyed by replica URL (operator
// reset, tests).
func (c *Coordinator) Breaker() *breaker.Breaker[string] { return c.breaker }

// ReplicaHealth is one replica's breaker state, for /api/cluster.
type ReplicaHealth struct {
	URL string `json:"url"`
	breaker.Health
}

// shardPage is the subset of a shard's /api/search reply the
// coordinator consumes.
type shardPage struct {
	Results       []xrank.SearchResult `json:"results"`
	IOReads       int64                `json:"io_reads"`
	CacheHits     int64                `json:"cache_hits"`
	Cached        bool                 `json:"cached"`
	Degraded      bool                 `json:"degraded"`
	RankedEntries int                  `json:"ranked_entries"`
	Switched      bool                 `json:"switched"`
	SwitchReason  string               `json:"switch_reason"`
}

// attempt classification.
type attemptClass int

const (
	classSuccess      attemptClass = iota
	classRejected                  // 400: the request itself is invalid; passed through as is
	classBackpressure              // 429/503/504: alive, failover without breaker charge
	classFailure                   // transport error, timeout, 5xx, bad payload
	classCanceled                  // hedge loser or dying request: no accounting
)

// attemptResult is one replica attempt's outcome.
type attemptResult struct {
	class   attemptClass
	page    *shardPage
	reply   *httpapi.StatusError // the replica's 400 or backpressure answer, for passthrough
	err     error
	latency time.Duration
	url     string
	hedged  bool // produced by the hedge branch
}

// backpressureStatus reports whether an HTTP status means "alive but
// shedding": the replica answered, so failing over is right and
// charging the breaker is wrong.
func backpressureStatus(code int) bool {
	return code == http.StatusTooManyRequests ||
		code == http.StatusServiceUnavailable ||
		code == http.StatusGatewayTimeout
}

// doAttempt issues one replica request. It classifies but does not
// account — accounting is centralized in issueAccounted so a cancelled
// hedge loser can be discarded without touching breaker or metrics.
func (c *Coordinator) doAttempt(ctx context.Context, shard int, replica string, params url.Values) attemptResult {
	timeout := c.cfg.ReplicaTimeout
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem < timeout {
			timeout = rem
		}
	}
	if timeout <= 0 {
		return attemptResult{class: classCanceled, err: ctx.Err(), url: replica}
	}
	p := url.Values{}
	for k, vs := range params {
		p[k] = vs
	}
	p.Set("shard", strconv.Itoa(shard))
	p.Set("timeout_ms", strconv.FormatInt(int64(timeout/time.Millisecond)+1, 10))
	u := strings.TrimSuffix(replica, "/") + "/internal/shard/search?" + p.Encode()
	actx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodGet, u, nil)
	if err != nil {
		return attemptResult{class: classFailure, err: err, url: replica}
	}
	t0 := time.Now()
	resp, err := c.client.Do(req)
	lat := time.Since(t0)
	if err != nil {
		if ctx.Err() != nil {
			// The parent was cancelled — a hedge winner elsewhere or a
			// dying request, not a replica fault.
			return attemptResult{class: classCanceled, err: err, latency: lat, url: replica}
		}
		return attemptResult{class: classFailure, err: err, latency: lat, url: replica}
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK:
		var page shardPage
		if derr := json.NewDecoder(resp.Body).Decode(&page); derr != nil {
			return attemptResult{class: classFailure,
				err: fmt.Errorf("shard %d via %s: bad payload: %w", shard, replica, derr), latency: lat, url: replica}
		}
		return attemptResult{class: classSuccess, page: &page, latency: lat, url: replica}
	case resp.StatusCode == http.StatusBadRequest, backpressureStatus(resp.StatusCode):
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		res := attemptResult{class: classRejected, reply: &httpapi.StatusError{
			Status: resp.StatusCode, ContentType: resp.Header.Get("Content-Type"), Body: body},
			err:     fmt.Errorf("shard %d via %s: %s", shard, replica, resp.Status),
			latency: lat, url: replica}
		if resp.StatusCode != http.StatusBadRequest {
			// Passed on if every shard sheds, so the client keeps its
			// retry discipline: Retry-After is floored at 1 s, and an
			// empty body becomes a JSON error.
			res.class = classBackpressure
			if res.reply.RetryAfter = resp.Header.Get("Retry-After"); res.reply.RetryAfter == "" {
				res.reply.RetryAfter = "1"
			}
			if len(body) == 0 {
				res.reply.ContentType = "application/json"
				msg, _ := json.Marshal(map[string]string{"error": res.err.Error()})
				res.reply.Body = append(msg, '\n')
			}
		}
		return res
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return attemptResult{class: classFailure,
			err: fmt.Errorf("shard %d via %s: %s: %s", shard, replica, resp.Status,
				strings.TrimSpace(string(body))),
			latency: lat, url: replica}
	}
}

// issueAccounted runs one attempt and applies exactly-once accounting:
// breaker transitions, attempt/failure/backpressure counters and the
// latency digest. A classCanceled result touches none of them.
func (c *Coordinator) issueAccounted(ctx context.Context, shard int, replica string, params url.Values) attemptResult {
	res := c.doAttempt(ctx, shard, replica, params)
	switch res.class {
	case classCanceled:
		return res
	case classSuccess:
		c.attempts.Inc()
		c.breaker.Success(replica)
		c.digest.observe(res.latency)
	case classRejected:
		// The replica answered correctly: any replica would reject the
		// same request, so it is no fault of this one.
		c.attempts.Inc()
		c.breaker.Success(replica)
	case classBackpressure:
		c.attempts.Inc()
		c.backpressure.Inc()
		// Alive and answering: a shedding replica closes its breaker.
		c.breaker.Success(replica)
	case classFailure:
		c.attempts.Inc()
		c.failures.Inc()
		c.breaker.Failure(replica, res.err)
	}
	c.openGauge.Set(int64(c.breaker.OpenCount()))
	return res
}

// hedgeDelay resolves the configured hedging policy to a concrete
// delay; ok=false disables hedging.
func (c *Coordinator) hedgeDelay() (time.Duration, bool) {
	switch {
	case c.cfg.HedgeDelay < 0:
		return 0, false
	case c.cfg.HedgeDelay > 0:
		return c.cfg.HedgeDelay, true
	}
	d, ok := c.digest.quantile(0.99)
	if !ok {
		d = defaultHedgeDelay
	}
	if max := c.cfg.ReplicaTimeout / 2; d > max {
		d = max
	}
	if d < minHedgeDelay {
		d = minHedgeDelay
	}
	return d, true
}

// hedgedIssue races a primary attempt against a delayed secondary.
// Each branch runs under its own cancellable context and accounts for
// itself through issueAccounted; when one branch wins the other is
// cancelled and — arriving as classCanceled — discarded unaccounted.
// Preference order when both complete: success > backpressure >
// failure, so a slow success still beats a fast shed. A rejection ends
// the race at once, like a success: every replica would reject it.
func (c *Coordinator) hedgedIssue(ctx context.Context, shard int, primary, secondary string, delay time.Duration, params url.Values) attemptResult {
	pctx, pcancel := context.WithCancel(ctx)
	defer pcancel()
	ch := make(chan attemptResult, 2)
	go func() { ch <- c.issueAccounted(pctx, shard, primary, params) }()

	timer := time.NewTimer(delay)
	defer timer.Stop()
	var scancel context.CancelFunc
	launched := false
	outstanding := 1
	var best *attemptResult
	better := func(a, b *attemptResult) *attemptResult {
		if b == nil || a.class < b.class {
			return a
		}
		return b
	}
	for outstanding > 0 {
		select {
		case res := <-ch:
			outstanding--
			if res.class == classSuccess || res.class == classRejected {
				pcancel()
				if scancel != nil {
					scancel()
				}
				if res.hedged && res.class == classSuccess {
					c.hedgeWins.Inc()
				}
				return res
			}
			if res.class != classCanceled {
				best = better(&res, best)
			}
			if outstanding == 0 && !launched {
				// Primary failed before the hedge fired: hand the failure to
				// the caller's retry loop instead of hedging a lost cause.
				return res
			}
		case <-timer.C:
			if !launched && ctx.Err() == nil {
				launched = true
				var sctx context.Context
				sctx, scancel = context.WithCancel(ctx)
				defer scancel()
				outstanding++
				c.hedges.Inc()
				go func() {
					r := c.issueAccounted(sctx, shard, secondary, params)
					r.hedged = true
					ch <- r
				}()
			}
		}
	}
	if best != nil {
		return *best
	}
	return attemptResult{class: classCanceled, err: ctx.Err()}
}

// shardOutcome is one shard's contribution to the merge.
type shardOutcome struct {
	shard        int
	page         *shardPage
	err          error
	backpressure *httpapi.StatusError // last 429/503/504, for passthrough
	rejected     *httpapi.StatusError // a 400, for passthrough
}

// queryShard walks the shard's breaker-admitted replicas in placement
// order — hedging the first attempt, backing off with seeded full
// jitter between the rest — until one attempt succeeds or the attempt
// budget is spent. A retry skips a replica whose breaker is open: one
// that opened mid-request, or a half-open probe that already had its
// trial in the first pass. Once every replica is skipped, the shard
// fails without another attempt.
func (c *Coordinator) queryShard(ctx context.Context, shard int, params url.Values) shardOutcome {
	out := shardOutcome{shard: shard}
	var cands []string
	var probes []bool // admitted as a half-open probe, per candidate
	for _, u := range c.placements[shard] {
		ok, probe := c.breaker.Allow(u)
		if !ok {
			continue
		}
		if probe {
			c.probes.Inc()
		}
		cands = append(cands, u)
		probes = append(probes, probe)
	}
	if len(cands) == 0 {
		out.err = fmt.Errorf("shard %d: all %d replicas have open breakers", shard, len(c.placements[shard]))
		return out
	}
	rng := breaker.NewRand(c.cfg.RetrySeed, int64(shard))
	maxAttempts := len(cands) * (1 + c.cfg.Retries)
	delay, hedge := c.hedgeDelay()
	for i := 0; i < maxAttempts; i++ {
		if ctx.Err() != nil {
			out.err = ctx.Err()
			return out
		}
		if i > 0 {
			if k := i % len(cands); c.breaker.Open(cands[k]) && (!probes[k] || i >= len(cands)) {
				continue
			}
			if err := breaker.Wait(ctx, breaker.Backoff(rng, c.cfg.RetryBackoff, i-1)); err != nil {
				out.err = err
				return out
			}
			c.retries.Inc()
		}
		var res attemptResult
		if i == 0 && hedge && len(cands) > 1 {
			res = c.hedgedIssue(ctx, shard, cands[0], cands[1], delay, params)
		} else {
			res = c.issueAccounted(ctx, shard, cands[i%len(cands)], params)
		}
		switch res.class {
		case classSuccess:
			out.page = res.page
			return out
		case classRejected:
			out.rejected, out.err = res.reply, res.err
			return out
		case classCanceled:
			out.err = ctx.Err()
			if out.err == nil {
				out.err = res.err
			}
			return out
		case classBackpressure:
			out.backpressure = res.reply
			out.err = res.err
		case classFailure:
			out.err = res.err
		}
	}
	return out
}

// merge composes the shards' outcomes into one answer. Each page is its
// shard's top-m in the engine's order: score descending, ties in the
// shard's own document order. Shard-invariant scoring puts every global
// top-m element in its shard's page, so a stable sort by score over the
// pages concatenated in shard order is the exact global top-m, with
// ties in (shard, position) order. The top-m is therefore a prefix of
// the top-(m+1), and a one-shard cluster answers its shard's page as it
// is. A shard without a page is listed in FailedShards and contributes
// nothing; the stats sum the pages' I/O and HDIL counts.
func merge(outcomes []shardOutcome, m int) ([]xrank.SearchResult, *xrank.QueryStats) {
	stats := &xrank.QueryStats{Shards: len(outcomes)}
	results := []xrank.SearchResult{} // JSON [] rather than null
	cached := true
	for _, o := range outcomes {
		p := o.page
		if p == nil {
			stats.FailedShards = append(stats.FailedShards, o.shard)
			continue
		}
		results = append(results, p.Results...)
		stats.IO.Reads += p.IOReads
		stats.IO.CacheHits += p.CacheHits
		stats.RankedEntriesRead += p.RankedEntries
		cached = cached && p.Cached
		// A replica that served a partial answer itself (local device
		// trouble) makes the cluster's answer partial too.
		stats.Degraded = stats.Degraded || p.Degraded
		if p.Switched && !stats.SwitchedToDIL {
			stats.SwitchedToDIL, stats.SwitchReason = true, p.SwitchReason
		}
	}
	stats.Degraded = stats.Degraded || stats.FailedShards != nil
	stats.Cached = cached && len(stats.FailedShards) < len(outcomes)
	sort.SliceStable(results, func(i, j int) bool { return results[i].Score > results[j].Score })
	if len(results) > m {
		results = results[:m]
	}
	return results, stats
}

// Handler builds the coordinator's HTTP surface: /api/search (the
// single-node handler, httpapi.SearchHandler, over the coordinator),
// /api/cluster (topology + breaker health), /internal/health, and —
// with cfg.Metrics — /metrics.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/api/search", httpapi.SearchHandler(c, nil, nil))
	mux.HandleFunc("/api/cluster", func(w http.ResponseWriter, r *http.Request) {
		shards := make([]map[string]interface{}, len(c.placements))
		for s, reps := range c.placements {
			replicas := make([]ReplicaHealth, len(reps))
			for i, h := range c.breaker.Health(reps) {
				replicas[i] = ReplicaHealth{URL: reps[i], Health: h}
			}
			shards[s] = map[string]interface{}{
				"shard":    s,
				"replicas": replicas,
			}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]interface{}{
			"num_shards": len(c.placements),
			"shards":     shards,
		})
	})
	mux.HandleFunc("/internal/health", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]interface{}{
			"status":     "ok",
			"num_shards": len(c.placements),
		})
	})
	if c.cfg.Metrics {
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			c.reg.WritePrometheus(w)
		})
	}
	return mux
}

// SearchContext fans the query out to one replica per shard and merges
// their pages (merge). It forwards opts.TopM, opts.Algorithm and
// opts.MaxPageReads; ctx's deadline bounds every replica attempt. Every
// outcome other than a merged answer is an error the shared handler
// writes out:
//   - a replica's 400 as it is (no request is charged an error);
//   - the request's deadline as 504;
//   - every shard failed: the first shard's backpressure answer as it
//     is, or else 502;
//   - with FailOnDegraded, a partial answer as 503 (xrank.ErrDegraded).
func (c *Coordinator) SearchContext(ctx context.Context, q string, opts xrank.SearchOptions) ([]xrank.SearchResult, *xrank.QueryStats, error) {
	if opts.TopM <= 0 {
		opts.TopM = 10
	}
	params := url.Values{}
	params.Set("q", q)
	params.Set("m", strconv.Itoa(opts.TopM))
	params.Set("algo", strings.ToLower(opts.Algorithm.String()))
	if opts.MaxPageReads > 0 {
		params.Set("budget", strconv.FormatInt(opts.MaxPageReads, 10))
	}
	c.requests.Inc()
	t0 := time.Now()

	outcomes := make([]shardOutcome, len(c.placements))
	var wg sync.WaitGroup
	for s := range c.placements {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			outcomes[s] = c.queryShard(ctx, s, params)
		}(s)
	}
	wg.Wait()

	for _, o := range outcomes {
		if o.rejected != nil {
			// An invalid request: any replica would reject it, and no
			// replica is charged for it.
			return nil, nil, o.rejected
		}
	}
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		c.reqErrors.Inc()
		return nil, nil, fmt.Errorf("cluster: request timed out: %w", ctx.Err())
	}
	results, stats := merge(outcomes, opts.TopM)
	stats.Algorithm = opts.Algorithm
	if len(stats.FailedShards) == len(outcomes) {
		c.reqErrors.Inc()
		var msgs []string
		for _, o := range outcomes {
			if o.backpressure != nil {
				// Every shard is alive but shedding: pass the backpressure
				// through so clients keep their retry discipline.
				return nil, nil, o.backpressure
			}
			if o.err != nil {
				msgs = append(msgs, o.err.Error())
			}
		}
		return nil, nil, &httpapi.StatusError{Status: http.StatusBadGateway,
			ContentType: "text/plain; charset=utf-8",
			Body:        []byte("cluster: all shards failed: " + strings.Join(msgs, "; ") + "\n")}
	}
	if stats.Degraded {
		c.degradedTot.Inc()
		if c.cfg.FailOnDegraded {
			c.reqErrors.Inc()
			return nil, nil, fmt.Errorf("cluster: degraded results refused (failed shards %v): %w",
				stats.FailedShards, xrank.ErrDegraded)
		}
	}
	stats.WallTime = time.Since(t0)
	c.reg.Histogram("xrank_coord_latency_seconds",
		"End-to-end wall time of successful coordinator searches.",
		obs.DefaultLatencyBuckets()).Observe(stats.WallTime.Seconds())
	return results, stats, nil
}
