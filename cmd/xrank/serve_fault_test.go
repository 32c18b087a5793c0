package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"xrank"
	"xrank/internal/httpapi"
	"xrank/internal/index"
	"xrank/internal/storage"
)

// TestServePanicRecovery: a handler panic must surface as a 500 plus a
// counted metric, never kill the server goroutine.
func TestServePanicRecovery(t *testing.T) {
	e := newTestEngine(t)
	h := httpapi.WithRecovery(e, http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/api/search?q=xml", nil))
	if rec.Code != 500 {
		t.Fatalf("panicking handler: status %d, want 500", rec.Code)
	}
	var buf bytes.Buffer
	if err := e.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "xrank_http_panics_total 1") {
		t.Fatalf("panic not counted:\n%s", buf.String())
	}

	// A healthy request through the same wrapper still works.
	mux := httpapi.NewMux(e, httpapi.Options{Metrics: true})
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/api/search?q=xml", nil))
	if rec.Code != 200 {
		t.Fatalf("healthy request after panic: %d", rec.Code)
	}
}

// TestServeDegraded drives the acceptance scenario end to end: with one
// shard permanently failing, /api/search answers over the healthy
// shards with degraded:true, /api/shards reports the unhealthy shard,
// and FailOnDegraded turns the partial answer into a 503.
func TestServeDegraded(t *testing.T) {
	const shards = 2
	ffs := storage.NewFaultFS(nil, 31)
	e := xrank.NewEngine(&xrank.Config{
		IndexDir: t.TempDir(),
		Shards:   shards,
		FS:       ffs,
	})
	for i := 0; i < 8; i++ {
		doc := fmt.Sprintf(`<r><t>common xml search</t><p>token%d body</p></r>`, i)
		if err := e.AddXML(fmt.Sprintf("doc%d.xml", i), strings.NewReader(doc)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Build(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	mux := httpapi.NewMux(e, httpapi.Options{Metrics: true})

	fail := index.ShardOf(0, shards)
	name := fmt.Sprintf("shard%03d", fail)
	ffs.FailReads(func(p string) bool { return strings.Contains(p, name) }, storage.ErrInjected, -1)
	if err := e.ColdCache(); err != nil {
		t.Fatal(err)
	}

	var resp struct {
		Degraded     bool  `json:"degraded"`
		FailedShards []int `json:"failed_shards"`
		Results      []xrank.SearchResult
	}
	// Default threshold is 3 consecutive failures: query until the dead
	// shard is marked unhealthy, checking every answer stays useful.
	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", "/api/search?q=common&algo=dil", nil))
		if rec.Code != 200 {
			t.Fatalf("degraded query %d: status %d: %s", i, rec.Code, rec.Body)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if !resp.Degraded || len(resp.FailedShards) != 1 || resp.FailedShards[0] != fail {
			t.Fatalf("degraded query %d: degraded=%v failed=%v", i, resp.Degraded, resp.FailedShards)
		}
		if len(resp.Results) == 0 {
			t.Fatalf("degraded query %d returned no results", i)
		}
	}

	// /api/shards now reports the unhealthy shard.
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/api/shards", nil))
	if rec.Code != 200 {
		t.Fatalf("/api/shards: %d", rec.Code)
	}
	var sh struct {
		Unhealthy int `json:"unhealthy"`
		Shards    []struct {
			Shard   int  `json:"shard"`
			Healthy bool `json:"healthy"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &sh); err != nil {
		t.Fatal(err)
	}
	if sh.Unhealthy != 1 {
		t.Fatalf("/api/shards unhealthy = %d: %s", sh.Unhealthy, rec.Body)
	}
	for _, s := range sh.Shards {
		if s.Healthy == (s.Shard == fail) {
			t.Fatalf("/api/shards health wrong for shard %d: %s", s.Shard, rec.Body)
		}
	}

	// Strict mode: the same query becomes a 503.
	e.SetFailOnDegraded(true)
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/api/search?q=common&algo=dil", nil))
	if rec.Code != 503 {
		t.Fatalf("FailOnDegraded: status %d, want 503: %s", rec.Code, rec.Body)
	}
}
