package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xrank"
	"xrank/internal/cache"
	"xrank/internal/httpapi"
)

func TestShardServerEndpoints(t *testing.T) {
	dir0 := buildShardDir(t, clusterCorpus(0, 3))
	dir1 := buildShardDir(t, clusterCorpus(1, 3))
	rep := startReplica(t, map[int]string{0: dir0, 1: dir1}, muxOpts())
	client := serialClient()

	// Health lists the hosted shards.
	st, _, body := get(t, client, rep.URL+"/internal/health")
	if st != http.StatusOK {
		t.Fatalf("health: %d", st)
	}
	var health struct {
		Status string `json:"status"`
		Shards []int  `json:"shards"`
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || len(health.Shards) != 2 || health.Shards[0] != 0 || health.Shards[1] != 1 {
		t.Fatalf("health = %+v", health)
	}

	// /internal/shard/search delegates into the shard's own httpapi
	// stack: same results as a dedicated single-shard server, and the
	// stack's Server-Timing header comes along.
	st, hdr, internal := get(t, client, rep.URL+"/internal/shard/search?shard=1&q=common&m=10&algo=dil")
	if st != http.StatusOK {
		t.Fatalf("internal search: %d: %s", st, internal)
	}
	if !strings.Contains(hdr.Get("Server-Timing"), "search;dur=") {
		t.Fatalf("internal search lost the httpapi stack's Server-Timing header: %q", hdr.Get("Server-Timing"))
	}
	solo := startReplica(t, map[int]string{1: dir1}, muxOpts())
	_, _, direct := get(t, client, solo.URL+"/api/search?q=common&m=10&algo=dil")
	if results(t, internal) != results(t, direct) {
		t.Fatalf("delegated search differs from direct /api/search:\n%s\nvs\n%s",
			results(t, internal), results(t, direct))
	}

	// The default (lowest) shard serves at the root like `xrank serve`.
	st, _, root := get(t, client, rep.URL+"/api/search?q=common&m=10&algo=dil")
	if st != http.StatusOK {
		t.Fatalf("root search: %d", st)
	}
	solo0 := startReplica(t, map[int]string{0: dir0}, muxOpts())
	_, _, direct0 := get(t, client, solo0.URL+"/api/search?q=common&m=10&algo=dil")
	if results(t, root) != results(t, direct0) {
		t.Fatal("root mount does not serve the default shard")
	}

	// Unknown shards and validation failures map to the right statuses.
	if st, _, _ := get(t, client, rep.URL+"/internal/shard/search?shard=9&q=common"); st != http.StatusNotFound {
		t.Fatalf("unknown shard: %d, want 404", st)
	}
	if st, _, _ := get(t, client, rep.URL+"/internal/shard/search?shard=1"); st != http.StatusBadRequest {
		t.Fatalf("missing q: %d, want 400", st)
	}
	if st, _, _ := get(t, client, rep.URL+"/internal/snapshot?shard=9"); st != http.StatusNotFound {
		t.Fatalf("unknown snapshot shard: %d, want 404", st)
	}
}

// TestHedgedAdmissionExactlyOnce hammers an admission-limited replica
// pair through an aggressively hedging coordinator and then audits the
// books: every search request that reached a replica handler was
// counted exactly once as admitted, shed, or expired — including
// hedge duplicates whose client vanished mid-queue. Run under -race
// this is also the concurrency test for the whole fan-out path.
func TestHedgedAdmissionExactlyOnce(t *testing.T) {
	dir := buildShardDir(t, clusterCorpus(0, 4))

	type countedReplica struct {
		srv     *httptest.Server
		engine  *xrank.Engine
		arrived *int64
	}
	mk := func() countedReplica {
		e, err := xrank.OpenEngine(dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		ss := NewShardServer()
		// A tight admission gate (1 slot, queue of 2) forces queueing and
		// shedding under the concurrent driver below.
		if err := ss.Mount(0, e, dir, httpapi.Options{
			Metrics: true, Admission: cache.NewAdmission(1, 2),
		}); err != nil {
			t.Fatal(err)
		}
		arrived := new(int64)
		h := ss.Handler()
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			// Count arrivals on the search path only, before any handler
			// logic runs; the admission counters must match this exactly.
			if r.URL.Path == "/internal/shard/search" {
				atomic.AddInt64(arrived, 1)
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		return countedReplica{srv: srv, engine: e, arrived: arrived}
	}
	ra, rb := mk(), mk()

	_, coord := startCoordinator(t, CoordinatorConfig{
		Shards:         [][]string{{ra.srv.URL, rb.srv.URL}},
		ReplicaTimeout: 2 * time.Second,
		RetryBackoff:   time.Millisecond,
		HedgeDelay:     time.Millisecond, // hedge almost every request
	})

	const workers, perWorker = 8, 6
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := serialClient()
			for i := 0; i < perWorker; i++ {
				resp, err := client.Get(fmt.Sprintf(
					"%s/api/search?q=common+token%d&m=5&algo=dil", coord.URL, i%3))
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				resp.Body.Close()
			}
		}(w)
	}
	wg.Wait()
	// A hedge's losing attempt can still be inside a replica handler after
	// its client request returned. Close waits for in-flight handlers, so
	// the audit below sees every arrival's admission outcome.
	ra.srv.Close()
	rb.srv.Close()

	for i, r := range []countedReplica{ra, rb} {
		reg := r.engine.Metrics()
		mv := func(name string) int64 { return metricValue(t, reg.WritePrometheus, name) }
		admitted := mv("xrank_admission_admitted_total")
		shed := mv("xrank_admission_shed_total")
		expired := mv("xrank_admission_expired_total")
		arrived := atomic.LoadInt64(r.arrived)
		if admitted+shed+expired != arrived {
			t.Errorf("replica %d: admitted %d + shed %d + expired %d != arrived %d",
				i, admitted, shed, expired, arrived)
		}
		if queued := mv("xrank_admission_queued"); queued != 0 {
			t.Errorf("replica %d: admission queue gauge stuck at %d after drain", i, queued)
		}
	}
	total := atomic.LoadInt64(ra.arrived) + atomic.LoadInt64(rb.arrived)
	if total < workers*perWorker {
		t.Fatalf("replicas saw %d arrivals for %d client requests", total, workers*perWorker)
	}
}
