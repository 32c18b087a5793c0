package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"xrank"
	"xrank/internal/httpapi"
)

// faultMatrixQueries is the query set every fault-matrix run replays;
// results must come back byte-identical regardless of which replica
// answered or what faults were in the way.
var faultMatrixQueries = []string{
	"common",
	"common+token1",
	"common+shard0",
	"unique+doc2",
}

// searchURL builds a coordinator search request for one query.
func searchURL(base, q string) string {
	return fmt.Sprintf("%s/api/search?q=%s&m=10&algo=dil", base, q)
}

// TestClusterFaultMatrix drives every chaos mode against the primary
// replica of a single-shard, two-replica cluster and asserts the
// coordinator fails over to a byte-identical answer. Placement is
// computed up front so the fault always lands on the replica the
// coordinator tries first — the matrix never silently tests the
// no-fault path.
func TestClusterFaultMatrix(t *testing.T) {
	dir := buildShardDir(t, clusterCorpus(0, 6))
	repA := startReplica(t, map[int]string{0: dir}, muxOpts())
	repB := startReplica(t, map[int]string{0: dir}, muxOpts())
	pA, pB := proxied(t, repA), proxied(t, repB)

	order := PlacementOrder(0, []string{pA.URL(), pB.URL()})
	prim, sec := pA, pB
	if order[0] == pB.URL() {
		prim, sec = pB, pA
	}

	newCoord := func() (*Coordinator, *httptest.Server) {
		return startCoordinator(t, CoordinatorConfig{
			Shards:         [][]string{{pA.URL(), pB.URL()}},
			ReplicaTimeout: 400 * time.Millisecond, // bounds the blackhole arm
			RetryBackoff:   time.Millisecond,
			HedgeDelay:     -1, // hedging has its own test; keep one code path per mode
		})
	}
	client := serialClient()

	_, base := newCoord()
	status, _, body := get(t, client, searchURL(base.URL, "common"))
	if status != http.StatusOK {
		t.Fatalf("baseline: status %d: %s", status, body)
	}
	baseline := make(map[string]string, len(faultMatrixQueries))
	for _, q := range faultMatrixQueries {
		st, _, b := get(t, client, searchURL(base.URL, q))
		if st != http.StatusOK {
			t.Fatalf("baseline %q: status %d: %s", q, st, b)
		}
		if res := results(t, b); res == "[]" && q == "common" {
			t.Fatalf("baseline %q returned no results", q)
		}
		baseline[q] = results(t, b)
	}

	modes := []struct {
		name string
		mode ChaosMode
	}{
		{"refuse", ChaosRefuse},
		{"blackhole", ChaosBlackhole},
		{"reset", ChaosReset},
		{"slow", ChaosSlow},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			prim.SetSchedule([]ChaosMode{m.mode})
			sec.SetSchedule(nil)
			prim.SlowDelay = 150 * time.Millisecond // < ReplicaTimeout: slow succeeds late
			defer prim.SetSchedule(nil)

			_, coord := newCoord()
			before := prim.Accepted()
			for _, q := range faultMatrixQueries {
				st, _, b := get(t, client, searchURL(coord.URL, q))
				if st != http.StatusOK {
					t.Fatalf("%s %q: status %d: %s", m.name, q, st, b)
				}
				page := searchJSON(t, b)
				if string(page["degraded"]) != "false" {
					t.Fatalf("%s %q: single-replica fault degraded the response: %s", m.name, q, b)
				}
				if got := results(t, b); got != baseline[q] {
					t.Fatalf("%s %q: results diverged from fault-free baseline\n got %s\nwant %s",
						m.name, q, got, baseline[q])
				}
			}
			if m.mode != ChaosSlow && prim.Accepted() == before {
				t.Fatalf("%s: fault never exercised (primary proxy saw no connections)", m.name)
			}
		})
	}
}

// TestClusterDegradedAndFailOnDegraded: losing every replica of one
// shard degrades the merge exactly like the single-node engine losing
// a local shard — and refuses with 503 under FailOnDegraded. Losing
// every shard answers 502.
func TestClusterDegradedAndFailOnDegraded(t *testing.T) {
	dir0 := buildShardDir(t, clusterCorpus(0, 4))
	dir1 := buildShardDir(t, clusterCorpus(1, 4))
	rep0 := startReplica(t, map[int]string{0: dir0}, muxOpts())
	rep1 := startReplica(t, map[int]string{1: dir1}, muxOpts())
	p0, p1 := proxied(t, rep0), proxied(t, rep1)
	client := serialClient()

	cfg := CoordinatorConfig{
		Shards:         [][]string{{p0.URL()}, {p1.URL()}},
		ReplicaTimeout: 300 * time.Millisecond,
		RetryBackoff:   time.Millisecond,
		HedgeDelay:     -1,
	}
	_, full := startCoordinator(t, cfg)
	st, _, fullBody := get(t, client, searchURL(full.URL, "common"))
	if st != http.StatusOK || string(searchJSON(t, fullBody)["degraded"]) != "false" {
		t.Fatalf("healthy cluster: status %d body %s", st, fullBody)
	}

	// Shard 1's only replica refuses: the answer shrinks to shard 0's
	// contribution and says so.
	p1.SetSchedule([]ChaosMode{ChaosRefuse})
	_, degr := startCoordinator(t, cfg)
	st, _, body := get(t, client, searchURL(degr.URL, "common"))
	if st != http.StatusOK {
		t.Fatalf("degraded query: status %d: %s", st, body)
	}
	page := searchJSON(t, body)
	if string(page["degraded"]) != "true" || string(page["failed_shards"]) != "[1]" {
		t.Fatalf("want degraded over shard 1, got %s", body)
	}
	// The surviving results must be exactly the shard-0-only answer.
	_, only0 := startCoordinator(t, CoordinatorConfig{
		Shards: [][]string{{p0.URL()}}, HedgeDelay: -1,
	})
	_, _, want := get(t, client, searchURL(only0.URL, "common"))
	if results(t, body) != results(t, want) {
		t.Fatalf("degraded results differ from the surviving shard's answer\n got %s\nwant %s",
			results(t, body), results(t, want))
	}

	// Strict mode refuses the partial answer.
	strict := cfg
	strict.FailOnDegraded = true
	_, sc := startCoordinator(t, strict)
	st, _, body = get(t, client, searchURL(sc.URL, "common"))
	if st != http.StatusServiceUnavailable || !strings.Contains(string(body), "degraded") {
		t.Fatalf("FailOnDegraded: status %d body %s, want 503", st, body)
	}

	// Every shard down: 502, not a silent empty answer.
	p0.SetSchedule([]ChaosMode{ChaosRefuse})
	_, dead := startCoordinator(t, cfg)
	st, _, body = get(t, client, searchURL(dead.URL, "common"))
	if st != http.StatusBadGateway {
		t.Fatalf("all shards down: status %d body %s, want 502", st, body)
	}
}

// TestHedgedRequestExactlyOnce stalls the primary long enough for the
// hedge to fire and win, then checks the accounting invariants: the
// response is byte-identical to the fault-free answer, the hedge is
// counted once, and the cancelled primary charges neither the failure
// counters nor the breaker.
func TestHedgedRequestExactlyOnce(t *testing.T) {
	dir := buildShardDir(t, clusterCorpus(0, 4))
	repA := startReplica(t, map[int]string{0: dir}, muxOpts())
	repB := startReplica(t, map[int]string{0: dir}, muxOpts())
	pA, pB := proxied(t, repA), proxied(t, repB)
	order := PlacementOrder(0, []string{pA.URL(), pB.URL()})
	prim, sec := pA, pB
	if order[0] == pB.URL() {
		prim, sec = pB, pA
	}
	client := serialClient()

	cfg := CoordinatorConfig{
		Shards:         [][]string{{pA.URL(), pB.URL()}},
		ReplicaTimeout: 2 * time.Second,
		HedgeDelay:     30 * time.Millisecond,
	}
	_, baseSrv := startCoordinator(t, cfg)
	_, _, baseBody := get(t, client, searchURL(baseSrv.URL, "common"))
	want := results(t, baseBody)

	prim.SlowDelay = 600 * time.Millisecond
	prim.SetSchedule([]ChaosMode{ChaosSlow})
	sec.SetSchedule(nil)
	c, coord := startCoordinator(t, cfg)
	t0 := time.Now()
	st, _, body := get(t, client, searchURL(coord.URL, "common"))
	wall := time.Since(t0)
	if st != http.StatusOK {
		t.Fatalf("hedged query: status %d: %s", st, body)
	}
	if got := results(t, body); got != want {
		t.Fatalf("hedged results diverged:\n got %s\nwant %s", got, want)
	}
	if wall >= prim.SlowDelay {
		t.Fatalf("hedge never rescued the query: wall %v >= stall %v", wall, prim.SlowDelay)
	}
	mv := func(name string) int64 { return metricValue(t, c.Metrics().WritePrometheus, name) }
	if got := mv("xrank_hedged_requests_total"); got != 1 {
		t.Fatalf("hedges issued = %d, want 1", got)
	}
	if got := mv("xrank_hedge_wins_total"); got != 1 {
		t.Fatalf("hedge wins = %d, want 1", got)
	}
	// Exactly-once: the cancelled primary is not an attempt, a failure,
	// a retry, or a breaker charge.
	if got := mv("xrank_replica_failures_total"); got != 0 {
		t.Fatalf("cancelled hedge loser counted as %d replica failures", got)
	}
	if got := mv("xrank_replica_attempts_total"); got != 1 {
		t.Fatalf("replica attempts = %d, want 1 (the hedge winner)", got)
	}
	if got := mv("xrank_replica_retries_total"); got != 0 {
		t.Fatalf("hedge counted as %d retries", got)
	}
	for _, h := range c.Breaker().Health([]string{pA.URL(), pB.URL()}) {
		if !h.Healthy || h.Failures != 0 {
			t.Fatalf("hedge race charged a breaker: %+v", h)
		}
	}
}

// TestReplicaBreakerOpensAndProbes walks the cluster-level health
// state machine: consecutive failures open the primary's breaker, an
// open breaker keeps the replica out of the request path, and after
// the probe interval one half-open trial revives it.
func TestReplicaBreakerOpensAndProbes(t *testing.T) {
	dir := buildShardDir(t, clusterCorpus(0, 4))
	repA := startReplica(t, map[int]string{0: dir}, muxOpts())
	repB := startReplica(t, map[int]string{0: dir}, muxOpts())
	pA, pB := proxied(t, repA), proxied(t, repB)
	order := PlacementOrder(0, []string{pA.URL(), pB.URL()})
	prim, _ := pA, pB
	if order[0] == pB.URL() {
		prim = pB
	}
	clk := &fakeClock{t: time.Unix(1000, 0)}
	client := serialClient()

	c, coord := startCoordinator(t, CoordinatorConfig{
		Shards:           [][]string{{pA.URL(), pB.URL()}},
		ReplicaTimeout:   300 * time.Millisecond,
		RetryBackoff:     time.Millisecond,
		FailureThreshold: 2,
		ProbeInterval:    time.Minute,
		HedgeDelay:       -1,
		Now:              clk.now,
	})
	prim.SetSchedule([]ChaosMode{ChaosRefuse})
	query := func() map[string]json.RawMessage {
		st, _, body := get(t, client, searchURL(coord.URL, "common"))
		if st != http.StatusOK {
			t.Fatalf("status %d: %s", st, body)
		}
		return searchJSON(t, body)
	}
	query() // failure 1 on primary, served by secondary
	query() // failure 2: breaker opens
	if !c.Breaker().Open(order[0]) {
		t.Fatal("primary breaker not open after 2 consecutive failures")
	}
	seen := prim.Accepted()
	query() // must not touch the open primary
	if prim.Accepted() != seen {
		t.Fatal("open breaker did not keep the primary out of the request path")
	}
	mv := func(name string) int64 { return metricValue(t, c.Metrics().WritePrometheus, name) }
	if got := mv("xrank_replica_probes_total"); got != 0 {
		t.Fatalf("probes before the interval: %d", got)
	}

	// Primary heals; after the interval one probe is admitted and
	// closes the breaker. (SetSchedule restarts the proxy's connection
	// counter, so re-baseline.)
	prim.SetSchedule(nil)
	seen = prim.Accepted()
	clk.advance(61 * time.Second)
	query()
	if got := mv("xrank_replica_probes_total"); got != 1 {
		t.Fatalf("probes after interval = %d, want 1", got)
	}
	if c.Breaker().Open(order[0]) {
		t.Fatal("successful probe did not close the breaker")
	}
	if prim.Accepted() != seen+1 {
		t.Fatalf("probe connections = %d, want %d", prim.Accepted()-seen, 1)
	}
	// Recovered primary serves again.
	seen = prim.Accepted()
	query()
	if prim.Accepted() != seen+1 {
		t.Fatal("recovered primary not back in the request path")
	}
}

// TestBackpressurePassthrough: when every replica of every shard sheds
// (429/503/504), the coordinator relays the status, the Retry-After
// header and the body unchanged instead of inventing a 5xx of its own
// — and sheds do not charge the breaker.
func TestBackpressurePassthrough(t *testing.T) {
	cases := []struct {
		status     int
		retryAfter string
		body       string
	}{
		{http.StatusTooManyRequests, "7", `{"error":"admission queue full","retry_after_seconds":7}` + "\n"},
		{http.StatusServiceUnavailable, "2", `{"error":"deadline expired in queue","retry_after_seconds":2}` + "\n"},
		{http.StatusGatewayTimeout, "", "shard query timed out\n"},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprint(tc.status), func(t *testing.T) {
			stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if tc.retryAfter != "" {
					w.Header().Set("Retry-After", tc.retryAfter)
				}
				w.WriteHeader(tc.status)
				w.Write([]byte(tc.body))
			}))
			defer stub.Close()
			c, coord := startCoordinator(t, CoordinatorConfig{
				Shards:       [][]string{{stub.URL}},
				RetryBackoff: time.Millisecond,
				HedgeDelay:   -1,
			})
			st, hdr, body := get(t, serialClient(), searchURL(coord.URL, "common"))
			if st != tc.status {
				t.Fatalf("status %d, want %d passthrough", st, tc.status)
			}
			wantRA := tc.retryAfter
			if wantRA == "" {
				wantRA = "1" // coordinator supplies a floor when the shard did not
			}
			if got := hdr.Get("Retry-After"); got != wantRA {
				t.Fatalf("Retry-After %q, want %q", got, wantRA)
			}
			if string(body) != tc.body {
				t.Fatalf("body not preserved:\n got %q\nwant %q", body, tc.body)
			}
			if h := c.Breaker().Health([]string{stub.URL}); !h[0].Healthy || h[0].Failures != 0 {
				t.Fatalf("backpressure charged the breaker: %+v", h[0])
			}
			mv := func(name string) int64 { return metricValue(t, c.Metrics().WritePrometheus, name) }
			if got := mv("xrank_replica_backpressure_total"); got == 0 {
				t.Fatal("backpressure attempts not counted")
			}
			if got := mv("xrank_replica_failures_total"); got != 0 {
				t.Fatalf("backpressure counted as %d failures", got)
			}
		})
	}
}

// TestKeywordFreeQueryPassesThrough400: the coordinator hands a replica's
// 400 for a keyword-free query on as it is, charging no breaker, counting
// no failure and trying no other replica.
func TestKeywordFreeQueryPassesThrough400(t *testing.T) {
	dir := buildShardDir(t, clusterCorpus(0, 4))
	pA := proxied(t, startReplica(t, map[int]string{0: dir}, muxOpts()))
	pB := proxied(t, startReplica(t, map[int]string{0: dir}, muxOpts()))
	c, coord := startCoordinator(t, CoordinatorConfig{
		Shards:           [][]string{{pA.URL(), pB.URL()}},
		RetryBackoff:     time.Millisecond,
		FailureThreshold: 1,
		HedgeDelay:       time.Second,
	})
	for i := 0; i < 10; i++ {
		st, _, body := get(t, serialClient(), searchURL(coord.URL, "!!!"))
		if st != http.StatusBadRequest || !strings.Contains(string(body), "no keywords") {
			t.Fatalf("keyword-free query: status %d, body %q; want the replica's 400", st, body)
		}
	}
	if n := c.Breaker().OpenCount(); n != 0 {
		t.Fatalf("%d breakers open after keyword-free queries", n)
	}
	for _, m := range []string{"xrank_replica_failures_total", "xrank_replica_retries_total", "xrank_hedged_requests_total"} {
		if got := metricValue(t, c.Metrics().WritePrometheus, m); got != 0 {
			t.Fatalf("keyword-free queries: %s = %d", m, got)
		}
	}
	if st, _, body := get(t, serialClient(), searchURL(coord.URL, "common")); st != http.StatusOK {
		t.Fatalf("valid query after keyword-free ones: status %d: %s", st, body)
	}
}

// TestCoordinatorRequestAccounting: every /api/search request is
// counted once in xrank_coord_requests_total and ends either as a success
// (an observation of xrank_coord_latency_seconds) or as an error
// (xrank_coord_errors_total), whatever its status class: a 200, the shared
// handler's own 400 (m=0), a replica's 400 relayed (a keyword-free q), and
// a 502 once every shard is down.
func TestCoordinatorRequestAccounting(t *testing.T) {
	dir := buildShardDir(t, clusterCorpus(0, 4))
	p := proxied(t, startReplica(t, map[int]string{0: dir}, muxOpts()))
	c, coord := startCoordinator(t, CoordinatorConfig{
		Shards:       [][]string{{p.URL()}},
		RetryBackoff: time.Millisecond,
		HedgeDelay:   -1,
	})
	counts := func() (requests, successes, errors int64) {
		write := c.Metrics().WritePrometheus
		return metricValue(t, write, "xrank_coord_requests_total"),
			metricValue(t, write, "xrank_coord_latency_seconds_count"),
			metricValue(t, write, "xrank_coord_errors_total")
	}
	for _, tc := range []struct {
		name, url string
		status    int
		chaos     ChaosMode
	}{
		{"success", searchURL(coord.URL, "common"), http.StatusOK, ChaosPass},
		{"handler 400", coord.URL + "/api/search?q=common&m=0", http.StatusBadRequest, ChaosPass},
		{"relayed 400", searchURL(coord.URL, "!!!"), http.StatusBadRequest, ChaosPass},
		{"502", searchURL(coord.URL, "common"), http.StatusBadGateway, ChaosRefuse},
	} {
		p.SetSchedule([]ChaosMode{tc.chaos})
		r0, s0, e0 := counts()
		if st, _, body := get(t, serialClient(), tc.url); st != tc.status {
			t.Fatalf("%s: status %d, want %d: %s", tc.name, st, tc.status, body)
		}
		r1, s1, e1 := counts()
		wantS, wantE := int64(0), int64(1)
		if tc.status/100 == 2 {
			wantS, wantE = 1, 0
		}
		if r1-r0 != 1 || s1-s0 != wantS || e1-e0 != wantE {
			t.Fatalf("%s: requests +%d, successes +%d, errors +%d; want +1, +%d, +%d",
				tc.name, r1-r0, s1-s0, e1-e0, wantS, wantE)
		}
		if r1 != s1+e1 {
			t.Fatalf("%s: %d requests, %d successes + %d errors", tc.name, r1, s1, e1)
		}
	}
}

// muxOpts is the standard replica handler configuration for tests:
// metrics on, no admission limit (admission-specific tests build their
// own).
func muxOpts() httpapi.Options {
	return httpapi.Options{Metrics: true}
}

// TestRetrySkipsReplicaWhoseBreakerOpened: with both replicas stalled
// and a failure threshold of 1, each replica's first timeout opens its
// breaker, so the retry pass finds no replica left and the shard fails
// after one attempt per replica instead of sitting through a second
// timeout on each.
func TestRetrySkipsReplicaWhoseBreakerOpened(t *testing.T) {
	dir := buildShardDir(t, clusterCorpus(0, 4))
	pA := proxied(t, startReplica(t, map[int]string{0: dir}, muxOpts()))
	pB := proxied(t, startReplica(t, map[int]string{0: dir}, muxOpts()))
	pA.SetSchedule([]ChaosMode{ChaosBlackhole})
	pB.SetSchedule([]ChaosMode{ChaosBlackhole})
	c, coord := startCoordinator(t, CoordinatorConfig{
		Shards:           [][]string{{pA.URL(), pB.URL()}},
		ReplicaTimeout:   100 * time.Millisecond,
		RetryBackoff:     time.Millisecond,
		FailureThreshold: 1,
		Retries:          1,
		HedgeDelay:       -1,
	})
	st, _, body := get(t, serialClient(), searchURL(coord.URL, "common"))
	if st != http.StatusBadGateway {
		t.Fatalf("status %d, want 502 with every replica stalled: %s", st, body)
	}
	if a, b := pA.Accepted(), pB.Accepted(); a != 1 || b != 1 {
		t.Fatalf("attempts per replica = %d and %d, want 1 each", a, b)
	}
	mv := func(name string) int64 { return metricValue(t, c.Metrics().WritePrometheus, name) }
	if got := mv("xrank_replica_attempts_total"); got != 2 {
		t.Fatalf("replica attempts = %d, want 2", got)
	}
	if got := mv("xrank_replica_retries_total"); got != 1 {
		t.Fatalf("replica retries = %d, want 1 (the second replica)", got)
	}
}

// TestChaosSlowDropsAbandonedRequest: a client that gives up during a
// ChaosSlow stall never reaches the replica, while one that waits out
// the stall is relayed its full request.
func TestChaosSlowDropsAbandonedRequest(t *testing.T) {
	dir := buildShardDir(t, clusterCorpus(0, 4))
	e, err := xrank.OpenEngine(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	ss := NewShardServer()
	if err := ss.Mount(0, e, dir, muxOpts()); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(ss.Handler())
	t.Cleanup(srv.Close)
	p := proxied(t, srv)
	p.SlowDelay = 200 * time.Millisecond
	p.SetSchedule([]ChaosMode{ChaosSlow})
	queries := func() int64 {
		return metricValue(t, e.Metrics().WritePrometheus, `xrank_queries_total{algo="DIL"}`)
	}
	url := p.URL() + "/internal/shard/search?shard=0&q=common&m=5&algo=dil"

	// Waiting out the stall: the request is relayed and answered.
	patient := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 5 * time.Second}
	if st, _, body := get(t, patient, url); st != http.StatusOK {
		t.Fatalf("patient client: status %d: %s", st, body)
	}
	if got := queries(); got != 1 {
		t.Fatalf("queries after the patient request = %d, want 1", got)
	}

	// Giving up mid-stall: nothing reaches the replica, even after the
	// stall ends.
	hasty := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 50 * time.Millisecond}
	if resp, err := hasty.Get(url); err == nil {
		resp.Body.Close()
		t.Fatal("hasty client got an answer through a 200ms stall")
	}
	time.Sleep(2 * p.SlowDelay)
	p.Close()
	srv.Close()
	if got := queries(); got != 1 {
		t.Fatalf("queries after the abandoned request = %d, want 1 (the proxy relayed it)", got)
	}
}

// TestRetryKeepsHalfOpenProbe: a replica admitted as a half-open probe
// still gets its one trial on the retry pass even though its breaker
// reads open, so a failing primary fails over to a recovered secondary.
func TestRetryKeepsHalfOpenProbe(t *testing.T) {
	dir := buildShardDir(t, clusterCorpus(0, 4))
	pA := proxied(t, startReplica(t, map[int]string{0: dir}, muxOpts()))
	pB := proxied(t, startReplica(t, map[int]string{0: dir}, muxOpts()))
	order := PlacementOrder(0, []string{pA.URL(), pB.URL()})
	prim, sec := pA, pB
	if order[0] == pB.URL() {
		prim, sec = pB, pA
	}
	clk := &fakeClock{t: time.Unix(1000, 0)}
	c, coord := startCoordinator(t, CoordinatorConfig{
		Shards:           [][]string{{pA.URL(), pB.URL()}},
		ReplicaTimeout:   time.Second,
		RetryBackoff:     time.Millisecond,
		FailureThreshold: 1,
		ProbeInterval:    time.Minute,
		HedgeDelay:       -1,
		Now:              clk.now,
	})
	c.Breaker().Failure(sec.URL(), fmt.Errorf("injected"))
	clk.advance(61 * time.Second)
	prim.SetSchedule([]ChaosMode{ChaosRefuse})

	st, _, body := get(t, serialClient(), searchURL(coord.URL, "common"))
	if st != http.StatusOK {
		t.Fatalf("status %d, want the probed secondary's answer: %s", st, body)
	}
	if a, b := prim.Accepted(), sec.Accepted(); a != 1 || b != 1 {
		t.Fatalf("attempts: primary %d, secondary %d, want 1 each", a, b)
	}
	if c.Breaker().Open(sec.URL()) {
		t.Fatal("the successful probe did not close the secondary's breaker")
	}
}
