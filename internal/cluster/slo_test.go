package cluster

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"xrank/internal/cache"
	"xrank/internal/httpapi"
	"xrank/internal/loadgen"
)

// vocabShardDir builds an index over the loadgen synthetic vocabulary
// w0..w31, so every generated "wI wJ" query matches real postings.
func vocabShardDir(t *testing.T) string {
	t.Helper()
	docs := make(map[string]string)
	for d := 0; d < 12; d++ {
		var b strings.Builder
		b.WriteString("<doc><body>")
		for i := 0; i < 32; i++ {
			fmt.Fprintf(&b, "w%d ", (d*7+i)%32)
		}
		b.WriteString("</body></doc>")
		docs[fmt.Sprintf("doc-%02d.xml", d)] = b.String()
	}
	return buildShardDir(t, docs)
}

// sloDilation is how many times slower than nominal the overload
// scenario's clock runs; see TestClusterOverloadSLO.
const sloDilation = 5

// TestClusterOverloadSLO is the acceptance run: the open-loop
// load generator drives an overload arm at a coordinator while one of
// the two replicas is chaos-stalled the whole time. The arm must
// complete like a healthy single-node overload run — visible 429
// shedding, nonzero accepted traffic, and accepted-request p99 under
// the SLO — because the breaker routes around the stalled replica and
// hedged requests cover the window before it opens.
//
// The scenario runs on a dilated clock: every duration in it — the
// arrival schedule, the stall, the replica timeout, the hedge delay, the
// retry backoff, the probe interval and the saturation window — is
// sloDilation times its nominal value, and the measured latencies are
// divided by sloDilation before the gate. The coordinator's own latency
// (the timeouts and hedge waits a request sits through) is the same
// nominal figure at any dilation. What the host adds — scheduler delay
// and CPU contention from whatever else runs, such as the other packages
// of `go test ./...` — is absolute time, so it shrinks by sloDilation,
// and the arm sends sloDilation times fewer requests per second, so the
// test no longer saturates the host's CPUs itself. The gated p99 is
// therefore the coordinator's: 2 × the replica timeout plus the retry
// chain, about 0.51 s nominal on an idle 2-vCPU VM and beside two busy
// spinning threads alike.
func TestClusterOverloadSLO(t *testing.T) {
	if raceEnabled {
		// The gate measures real replica-timeout dynamics: under the race
		// detector's slowdown even the healthy replica's instant 429s can
		// blow the attempt deadline, opening its breaker. The slo-smoke
		// CI job runs this test without -race.
		t.Skip("SLO timing gate is not meaningful under the race detector")
	}
	dir := vocabShardDir(t)

	// Replica A gets stalled; replica B carries the load behind a tight
	// admission gate so saturation sheds rather than queues unboundedly.
	repA := startReplica(t, map[int]string{0: dir}, httpapi.Options{
		Metrics: true, Admission: cache.NewAdmission(2, 4),
	})
	// No wait queue on B: over-capacity requests shed as instant 429s
	// (a breaker Success) instead of queueing until the coordinator's
	// attempt deadline, which would read as replica timeouts and open
	// B's breaker too — turning backpressure into a false outage.
	admB := cache.NewAdmission(1, -1)
	repB := startReplica(t, map[int]string{0: dir}, httpapi.Options{
		Metrics: true, Admission: admB,
	})
	// Every connection to A stalls past the replica timeout. The
	// timeout (250ms vs the 500ms stall) leaves generous headroom for
	// B's instant responses on a loaded CI machine — only the stalled
	// replica may trip the attempt deadline, or B's breaker opens too
	// and backpressure turns into a false outage — while still letting
	// a request's failover chain resolve inside the saturation window
	// below so A's breaker opens early in the arm.
	//
	// The stalled replica must be the rendezvous primary, or no request
	// waits long enough on it to hedge. Placement hashes the URL, so
	// proxy ports are drawn until the stall proxy's sorts first: each
	// draw succeeds with probability 1/2.
	var stall *ChaosProxy
	for draws := 1; ; draws++ {
		stall = proxied(t, repA)
		if PlacementOrder(0, []string{stall.URL(), repB.URL})[0] == stall.URL() {
			break
		}
		if draws == 64 {
			t.Fatal("no stall proxy port made the stalled replica primary")
		}
	}
	stall.SlowDelay = sloDilation * 500 * time.Millisecond
	stall.SetSchedule([]ChaosMode{ChaosSlow})

	// Saturation is forced, not raced-for (a CI runner serves this tiny
	// corpus too fast to saturate organically): hold B's only execution
	// slot for the first stretch of the arm, standing in for a slow
	// in-flight query. With A stalled and B full, arrivals must shed.
	if err := admB.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	released := make(chan struct{})
	timer := time.AfterFunc(sloDilation*700*time.Millisecond, func() {
		admB.Release()
		close(released)
	})
	defer func() {
		if timer.Stop() {
			admB.Release()
		}
	}()

	_, coord := startCoordinator(t, CoordinatorConfig{
		Shards:           [][]string{{stall.URL(), repB.URL}},
		ReplicaTimeout:   sloDilation * 250 * time.Millisecond,
		RetryBackoff:     sloDilation * 2 * time.Millisecond,
		FailureThreshold: 3,
		ProbeInterval:    sloDilation * 5 * time.Second,
		HedgeDelay:       sloDilation * 60 * time.Millisecond,
		Metrics:          true,
	})

	w, err := loadgen.Generate(loadgen.ArmSpec{
		Kind: loadgen.KindOverload, RPS: 900, Duration: 1400 * time.Millisecond,
		Vocab: 32, Algo: "dil", TopM: 5,
	}, 17)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.Reqs {
		w.Reqs[i].At *= sloDilation
	}
	res, err := loadgen.RunArm(context.Background(), coord.URL, w, loadgen.RunOptions{
		MaxOutstanding: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	<-released
	for i := range res.SearchMicros {
		res.SearchMicros[i] /= sloDilation
	}
	res.Wall /= sloDilation
	a := loadgen.BuildArmReport(res)
	t.Logf("overload through stalled cluster: %+v", res.Counts)
	t.Logf("  accepted latency p50 %dµs p90 %dµs p99 %dµs max %dµs; achieved %.0f rps",
		a.P50Micros, a.P90Micros, a.P99Micros, a.MaxMicros, a.AchievedRPS)
	for _, fam := range []string{"xrank_coord_requests_total", "xrank_replica_attempts_total",
		"xrank_replica_failures_total", "xrank_replica_backpressure_total",
		"xrank_hedged_requests_total", "xrank_replica_retries_total"} {
		t.Logf("  %s delta %.0f", fam, loadgen.FamilyDelta(res.MetricsBefore, res.MetricsAfter, fam))
	}

	if err := loadgen.CheckOverload(a, time.Second); err != nil {
		t.Fatalf("overload SLO gate failed with one replica stalled: %v", err)
	}
	if stall.Accepted() == 0 {
		t.Fatal("the stalled replica was never dialed — the fault was not exercised")
	}
	// Every dispatched request resolved to exactly one bucket even with
	// the coordinator hedging and failing over mid-run.
	if c := res.Counts; c.Resolved() != c.Sent {
		t.Fatalf("resolved %d != sent %d (counts %+v)", c.Resolved(), c.Sent, c)
	}
}
