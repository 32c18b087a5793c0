package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"xrank/internal/httpapi"
	"xrank/internal/obs"
	"xrank/internal/query"
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
	// between attempts, sharing query.JitterBackoff's cap semantics:
	// attempt k waits uniform in [0, base<<k] (default 2ms).
	RetryBackoff time.Duration

	// RetrySeed makes backoff waits reproducible; 0 means seed 1,
	// matching the engine's shard-retry convention.
	RetrySeed int64

	// FailureThreshold opens a replica's breaker after this many
	// consecutive failed attempts (default 3 — the engine's
	// ShardFailureThreshold default).
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
	breaker    *Breaker
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
		breaker:    NewBreaker(cfg.FailureThreshold, cfg.ProbeInterval, cfg.Now),
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

// Breaker exposes the replica breaker (operator reset, tests).
func (c *Coordinator) Breaker() *Breaker { return c.breaker }

// wireResult mirrors xrank.SearchResult's JSON encoding; the
// coordinator re-emits the fields verbatim after the merge.
type wireResult struct {
	DeweyID string
	Score   float64
	Doc     string
	Path    string
	Tag     string
	Snippet string
}

// shardPage is the subset of a shard's /api/search response the
// coordinator consumes.
type shardPage struct {
	Results   []wireResult `json:"results"`
	IOReads   int64        `json:"io_reads"`
	CacheHits int64        `json:"cache_hits"`
	Degraded  bool         `json:"degraded"`
	Algorithm string       `json:"algorithm"`
}

// attempt classification.
type attemptClass int

const (
	classSuccess      attemptClass = iota
	classBackpressure              // 429/503/504: alive, failover without breaker charge
	classFailure                   // transport error, timeout, 5xx, bad payload
	classCanceled                  // hedge loser or dying request: no accounting
)

// attemptResult is one replica attempt's outcome.
type attemptResult struct {
	class      attemptClass
	page       *shardPage
	status     int
	retryAfter string
	body       []byte
	err        error
	latency    time.Duration
	url        string
	hedged     bool // produced by the hedge branch
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
			return attemptResult{class: classFailure, status: resp.StatusCode,
				err: fmt.Errorf("shard %d via %s: bad payload: %w", shard, replica, derr), latency: lat, url: replica}
		}
		return attemptResult{class: classSuccess, page: &page, status: resp.StatusCode, latency: lat, url: replica}
	case backpressureStatus(resp.StatusCode):
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return attemptResult{class: classBackpressure, status: resp.StatusCode,
			retryAfter: resp.Header.Get("Retry-After"), body: body,
			err:     fmt.Errorf("shard %d via %s: %s", shard, replica, resp.Status),
			latency: lat, url: replica}
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return attemptResult{class: classFailure, status: resp.StatusCode,
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
// failure, so a slow success still beats a fast shed.
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
			if res.class == classSuccess {
				pcancel()
				if scancel != nil {
					scancel()
				}
				if res.hedged {
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
	backpressure *attemptResult // last 429/503/504, for passthrough
}

// queryShard walks the shard's breaker-admitted replicas in placement
// order — hedging the first attempt, backing off with seeded full
// jitter between the rest — until one attempt succeeds or the attempt
// budget is spent.
func (c *Coordinator) queryShard(ctx context.Context, shard int, params url.Values) shardOutcome {
	out := shardOutcome{shard: shard}
	var cands []string
	for _, u := range c.placements[shard] {
		ok, probe := c.breaker.Allow(u)
		if !ok {
			continue
		}
		if probe {
			c.probes.Inc()
		}
		cands = append(cands, u)
	}
	if len(cands) == 0 {
		out.err = fmt.Errorf("shard %d: all %d replicas have open breakers", shard, len(c.placements[shard]))
		return out
	}
	rng := rand.New(rand.NewSource(c.cfg.RetrySeed + int64(shard)*1315423911))
	maxAttempts := len(cands) * (1 + c.cfg.Retries)
	delay, hedge := c.hedgeDelay()
	for i := 0; i < maxAttempts; i++ {
		if ctx.Err() != nil {
			out.err = ctx.Err()
			return out
		}
		if i > 0 {
			wait := query.JitterBackoff(rng, c.cfg.RetryBackoff, i-1)
			if wait > 0 {
				t := time.NewTimer(wait)
				select {
				case <-t.C:
				case <-ctx.Done():
					t.Stop()
					out.err = ctx.Err()
					return out
				}
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
		case classCanceled:
			out.err = ctx.Err()
			if out.err == nil {
				out.err = res.err
			}
			return out
		case classBackpressure:
			bp := res
			out.backpressure = &bp
			out.err = res.err
		case classFailure:
			out.err = res.err
		}
	}
	return out
}

// deweyLess orders dotted Dewey IDs numerically component by
// component, mirroring the engine's merge order.
func deweyLess(a, b string) bool {
	as, bs := strings.Split(a, "."), strings.Split(b, ".")
	for i := 0; i < len(as) && i < len(bs); i++ {
		ai, aerr := strconv.Atoi(as[i])
		bi, berr := strconv.Atoi(bs[i])
		if aerr != nil || berr != nil {
			if as[i] != bs[i] {
				return as[i] < bs[i]
			}
			continue
		}
		if ai != bi {
			return ai < bi
		}
	}
	return len(as) < len(bs)
}

// mergeResults composes per-shard top-m pages into the global top-m.
// Shard-invariant scoring makes this exact: every global top-m element
// is in its shard's local top-m. The order — score descending, then
// document name, then Dewey ID — is total and replica-independent, so
// which replica answered never changes a byte of the response.
func mergeResults(pages []*shardPage, m int) []wireResult {
	var all []wireResult
	for _, p := range pages {
		all = append(all, p.Results...)
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		if all[i].Doc != all[j].Doc {
			return all[i].Doc < all[j].Doc
		}
		return deweyLess(all[i].DeweyID, all[j].DeweyID)
	})
	if len(all) > m {
		all = all[:m]
	}
	if all == nil {
		all = []wireResult{}
	}
	return all
}

// Handler builds the coordinator's HTTP surface: /api/search,
// /api/cluster (topology + breaker health), /internal/health, and —
// with cfg.Metrics — /metrics.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/search", c.serveSearch)
	mux.HandleFunc("/api/cluster", func(w http.ResponseWriter, r *http.Request) {
		shards := make([]map[string]interface{}, len(c.placements))
		for s, reps := range c.placements {
			shards[s] = map[string]interface{}{
				"shard":    s,
				"replicas": c.breaker.Health(reps),
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

// serveSearch validates exactly what the single-node handler
// validates, fans out, merges, and answers with the single-node
// response shape (plus the same degraded/failed_shards markers).
func (c *Coordinator) serveSearch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	if q == "" {
		http.Error(w, `missing "q" parameter`, http.StatusBadRequest)
		return
	}
	m := 10
	if ms := r.URL.Query().Get("m"); ms != "" {
		v, err := strconv.Atoi(ms)
		if err != nil || v < 1 || v > 1000 {
			http.Error(w, `bad "m" parameter`, http.StatusBadRequest)
			return
		}
		m = v
	}
	algoName := "HDIL"
	if as := r.URL.Query().Get("algo"); as != "" {
		a, err := httpapi.ParseAlgo(as)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		algoName = a.String()
	}
	ctx := r.Context()
	if ts := r.URL.Query().Get("timeout_ms"); ts != "" {
		v, err := strconv.Atoi(ts)
		if err != nil || v < 1 {
			http.Error(w, `bad "timeout_ms" parameter`, http.StatusBadRequest)
			return
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(v)*time.Millisecond)
		defer cancel()
	}
	params := url.Values{}
	params.Set("q", q)
	params.Set("m", strconv.Itoa(m))
	if as := r.URL.Query().Get("algo"); as != "" {
		params.Set("algo", as)
	}
	if bs := r.URL.Query().Get("budget"); bs != "" {
		if v, err := strconv.ParseInt(bs, 10, 64); err != nil || v < 1 {
			http.Error(w, `bad "budget" parameter`, http.StatusBadRequest)
			return
		}
		params.Set("budget", bs)
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

	var pages []*shardPage
	var failed []int
	var firstBP *attemptResult
	innerDegraded := false
	var ioReads, cacheHits int64
	for _, o := range outcomes {
		if o.page != nil {
			pages = append(pages, o.page)
			ioReads += o.page.IOReads
			cacheHits += o.page.CacheHits
			if o.page.Degraded {
				// The replica itself served a partial answer (local device
				// trouble): the cluster response is degraded too.
				innerDegraded = true
			}
			continue
		}
		failed = append(failed, o.shard)
		if o.backpressure != nil && firstBP == nil {
			firstBP = o.backpressure
		}
	}
	sort.Ints(failed)

	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		c.reqErrors.Inc()
		http.Error(w, "cluster: request timed out", http.StatusGatewayTimeout)
		return
	}
	if len(pages) == 0 {
		c.reqErrors.Inc()
		if firstBP != nil {
			// Every shard is alive but shedding: pass the backpressure
			// through so clients keep their retry discipline.
			ra := firstBP.retryAfter
			if ra == "" {
				ra = "1"
			}
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Retry-After", ra)
			w.WriteHeader(firstBP.status)
			if len(firstBP.body) > 0 {
				w.Write(firstBP.body)
			} else {
				json.NewEncoder(w).Encode(map[string]interface{}{"error": firstBP.err.Error()})
			}
			return
		}
		msgs := make([]string, 0, len(outcomes))
		for _, o := range outcomes {
			if o.err != nil {
				msgs = append(msgs, o.err.Error())
			}
		}
		http.Error(w, "cluster: all shards failed: "+strings.Join(msgs, "; "), http.StatusBadGateway)
		return
	}
	degraded := innerDegraded || len(failed) > 0
	if degraded {
		c.degradedTot.Inc()
		if c.cfg.FailOnDegraded {
			c.reqErrors.Inc()
			http.Error(w, fmt.Sprintf("cluster: degraded results refused (failed shards %v)", failed),
				http.StatusServiceUnavailable)
			return
		}
	}
	results := mergeResults(pages, m)
	algorithm := algoName
	for _, p := range pages {
		if p.Algorithm != "" {
			algorithm = p.Algorithm
			break
		}
	}
	wall := time.Since(t0)
	c.reg.Histogram("xrank_coord_latency_seconds",
		"End-to-end wall time of successful coordinator searches.",
		obs.DefaultLatencyBuckets()).Observe(wall.Seconds())
	w.Header().Set("Content-Type", "application/json")
	resp := map[string]interface{}{
		"query":      q,
		"algorithm":  algorithm,
		"wall_us":    wall.Microseconds(),
		"io_reads":   ioReads,
		"cache_hits": cacheHits,
		"shards":     len(c.placements),
		"degraded":   degraded,
		"results":    results,
	}
	if degraded {
		resp["failed_shards"] = failed
	}
	json.NewEncoder(w).Encode(resp)
}
