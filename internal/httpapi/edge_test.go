package httpapi

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xrank"
	"xrank/internal/cache"
)

// Timeout-edge tests: pin the exact envelopes (status, Retry-After,
// body) of the three backpressure responses — 429 shed, 503 expired in
// queue, 504 engine deadline — that the cluster coordinator passes
// through verbatim, and audit admission accounting under concurrent
// cancellation. Regenerate goldens with:
//
//	go test ./internal/httpapi -run TestEdge -update

var update = flag.Bool("update", false, "rewrite golden files")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (regenerate with -update): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// edgeEngine builds a small deterministic corpus.
func edgeEngine(t testing.TB) *xrank.Engine {
	t.Helper()
	e := xrank.NewEngine(&xrank.Config{IndexDir: t.TempDir()})
	for i := 0; i < 4; i++ {
		doc := fmt.Sprintf(`<r><t>xql language doc%d</t><p>ranked keyword search</p></r>`, i)
		if err := e.AddXML(fmt.Sprintf("doc%d.xml", i), strings.NewReader(doc)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Build(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// envelope renders the parts of a backpressure response that clients
// (and the coordinator's passthrough) depend on. Server-Timing carries
// wall-clock durations and stays out of the golden; its presence is
// asserted separately.
func envelope(rec *httptest.ResponseRecorder) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "status: %d\n", rec.Code)
	fmt.Fprintf(&b, "Retry-After: %s\n", rec.Header().Get("Retry-After"))
	fmt.Fprintf(&b, "Content-Type: %s\n\n", rec.Header().Get("Content-Type"))
	b.Write(rec.Body.Bytes())
	return b.Bytes()
}

// TestEdgeShed429 saturates a queue-less admission controller: the
// shed envelope must carry Retry-After and the JSON error body.
func TestEdgeShed429(t *testing.T) {
	e := edgeEngine(t)
	adm := cache.NewAdmission(1, -1)
	if err := adm.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer adm.Release()
	mux := NewMux(e, Options{Admission: adm})
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/api/search?q=xql", nil))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Header().Get("Server-Timing"), "queue;dur=") {
		t.Errorf("shed response lost Server-Timing: %q", rec.Header().Get("Server-Timing"))
	}
	checkGolden(t, "edge_shed_429.golden", envelope(rec))
}

// TestEdgeSuggestShed429: /api/suggest sits behind the same admission
// gate as /api/search, so a saturated controller sheds completions
// with the byte-identical envelope (same golden as the search shed).
func TestEdgeSuggestShed429(t *testing.T) {
	e := edgeEngine(t)
	adm := cache.NewAdmission(1, -1)
	if err := adm.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer adm.Release()
	mux := NewMux(e, Options{Admission: adm})
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/api/suggest?q=xq", nil))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Header().Get("Server-Timing"), "queue;dur=") {
		t.Errorf("shed response lost Server-Timing: %q", rec.Header().Get("Server-Timing"))
	}
	checkGolden(t, "edge_shed_429.golden", envelope(rec))
}

// TestEdgeExpired503 parks a request in the admission queue until its
// deadline fires: 503, Retry-After, and the context error in the body.
func TestEdgeExpired503(t *testing.T) {
	e := edgeEngine(t)
	adm := cache.NewAdmission(1, 1)
	if err := adm.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer adm.Release()
	mux := NewMux(e, Options{Admission: adm})
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/api/search?q=xql&timeout_ms=40", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", rec.Code, rec.Body)
	}
	checkGolden(t, "edge_expired_503.golden", envelope(rec))
}

// TestEdgeTimeout504 sends a request whose deadline has already
// passed: the engine observes the expired context at its first page
// access and the handler maps it to 504. (A live request racing its
// own deadline would be flaky; a pre-expired one is deterministic.)
func TestEdgeTimeout504(t *testing.T) {
	e := edgeEngine(t)
	if err := e.ColdCache(); err != nil {
		t.Fatal(err)
	}
	mux := NewMux(e, Options{})
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/api/search?q=xql+language&algo=dil", nil).WithContext(ctx)
	mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", rec.Code, rec.Body)
	}
	checkGolden(t, "edge_timeout_504.golden", envelope(rec))
}

// TestEdgeRetiredAlgo400: the paper's naive baselines are not served
// (only the experiment harness builds them), so their algorithm names get
// the plain unknown-algorithm 400 like any other typo.
func TestEdgeRetiredAlgo400(t *testing.T) {
	mux := NewMux(edgeEngine(t), Options{})
	for _, algo := range []string{"naiveid", "naiverank"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", "/api/search?q=xql&algo="+algo, nil))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("algo=%s: status %d, want 400: %s", algo, rec.Code, rec.Body)
		}
		checkGolden(t, "edge_unknown_algo_400_"+algo+".golden", envelope(rec))
	}
}

// TestEdgeAdmissionAccountingRace cancels a swarm of queued requests
// mid-wait (the shape a cancelled hedge duplicate produces) and checks
// the books balance exactly: every request that entered the admission
// gate is admitted, shed, or expired — never double-counted, never
// lost. Run with -race this also exercises the gate's concurrency.
func TestEdgeAdmissionAccountingRace(t *testing.T) {
	e := edgeEngine(t)
	adm := cache.NewAdmission(1, 2)
	mux := NewMux(e, Options{Admission: adm})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	var handled int64
	const workers, perWorker = 8, 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
			for i := 0; i < perWorker; i++ {
				// Half the requests carry a deadline short enough to expire
				// in the queue under contention; client-side cancellation
				// follows, like a hedge loser being abandoned.
				u := srv.URL + "/api/search?q=xql+language&algo=dil"
				ctx := context.Background()
				var cancel context.CancelFunc
				if i%2 == 0 {
					ctx, cancel = context.WithTimeout(ctx, 15*time.Millisecond)
				}
				req, _ := http.NewRequestWithContext(ctx, "GET", u, nil)
				resp, err := client.Do(req)
				if err == nil {
					resp.Body.Close()
				}
				if cancel != nil {
					cancel()
				}
				atomic.AddInt64(&handled, 1)
			}
		}(w)
	}
	wg.Wait()

	mv := func(name string) int64 {
		var sb strings.Builder
		if err := e.Metrics().WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(sb.String(), "\n") {
			if strings.HasPrefix(line, name+" ") {
				var v int64
				fmt.Sscanf(line[len(name)+1:], "%d", &v)
				return v
			}
		}
		return 0
	}
	admitted, shed, expired := mv("xrank_admission_admitted_total"),
		mv("xrank_admission_shed_total"), mv("xrank_admission_expired_total")
	total := admitted + shed + expired
	// Client-side cancellation can abort a request before the server
	// runs the handler at all, so the gate may see fewer requests than
	// the client sent — but every request it did see is counted exactly
	// once, and the in-queue gauge drains to zero.
	if total > atomic.LoadInt64(&handled) {
		t.Fatalf("admission counted %d (adm %d + shed %d + exp %d) > %d sent",
			total, admitted, shed, expired, handled)
	}
	if admitted == 0 {
		t.Fatal("no request was admitted")
	}
	if queued := mv("xrank_admission_queued"); queued != 0 {
		t.Fatalf("admission queue gauge stuck at %d", queued)
	}
	// The gate's own invariant: stats agree with the counters.
	st := adm.Stats()
	if st.Admitted != admitted || st.ShedFull != shed || st.Expired != expired {
		t.Fatalf("admission stats %+v disagree with metrics (%d/%d/%d)", st, admitted, shed, expired)
	}
}
