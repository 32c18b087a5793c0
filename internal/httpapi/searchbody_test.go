package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xrank"
	"xrank/internal/storage"
)

// referenceSearchBody is /api/search's reply as the handler wrote it
// before appendSearchBody: a map encoded by json.Encoder. It is the
// byte-identity reference for the appender.
func referenceSearchBody(q string, results []xrank.SearchResult, stats *xrank.QueryStats) []byte {
	resp := map[string]interface{}{
		"query":          q,
		"algorithm":      stats.Algorithm.String(),
		"wall_us":        stats.WallTime.Microseconds(),
		"io_reads":       stats.IO.Reads,
		"cache_hits":     stats.IO.CacheHits,
		"shards":         stats.Shards,
		"degraded":       stats.Degraded,
		"cached":         stats.Cached,
		"switched":       stats.SwitchedToDIL,
		"ranked_entries": stats.RankedEntriesRead,
		"results":        results,
	}
	if stats.SwitchedToDIL {
		resp["switch_reason"] = stats.SwitchReason
	}
	if stats.Coalesced {
		resp["coalesced"] = true
	}
	if stats.Degraded {
		resp["failed_shards"] = stats.FailedShards
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// Fuzz flag bits: which optional envelope fields a case sets.
const (
	fzCoalesced = 1 << iota
	fzCached
	fzDegraded
	fzSwitched
	fzFailedNil  // degraded with a nil FailedShards
	fzEmptySlice // zero results as an empty, non-nil slice
)

// FuzzSearchEnvelope checks that appendSearchBody, given the results as
// json.Marshal encodes them, writes exactly referenceSearchBody's bytes
// for random query text, results and QueryStats.
func FuzzSearchEnvelope(f *testing.F) {
	const all = fzCoalesced | fzCached | fzDegraded | fzSwitched
	f.Add("xql language", "ws", "the xql language", 0.1387, uint8(1), uint8(0), "", int64(1234), int64(7), int64(3), 12, 1, uint8(0))
	f.Add("<b>a&b</b>", "<doc>&", "x < y && y > z", 1.0, uint8(3), uint8(fzCached), "estimate", int64(0), int64(0), int64(0), 0, 8, uint8(2))
	f.Add(`say "hi" \ bye`, `d\"q`, "back\\slash \"quoted\"", 2.5e-7, uint8(2), uint8(fzCoalesced), "", int64(99), int64(1), int64(1), 3, 2, uint8(1))
	f.Add("line\u2028sep\u2029para", "doc\u2028", "snip\u2029pet", 3.0, uint8(1), uint8(fzSwitched), "prefix-exhausted", int64(5), int64(2), int64(9), 40, 4, uint8(0))
	f.Add("bad\xffutf8\xc3", "d\xfe", "s\xed\xa0\x80", 0.5, uint8(1), uint8(fzDegraded), "", int64(7), int64(3), int64(2), 1, 8, uint8(3))
	f.Add("ctrl\x00\x01\b\f\n\r\t\x1f\x7f", "tab\tdoc", "nl\nsnip", 1e21, uint8(2), uint8(fzDegraded|fzFailedNil), "", int64(-1), int64(0), int64(0), 0, 1, uint8(0))
	f.Add("none", "", "", 0.0, uint8(0), uint8(0), "", int64(0), int64(0), int64(0), 0, 1, uint8(0))
	f.Add("none", "", "", 0.0, uint8(0), uint8(fzEmptySlice), "", int64(0), int64(0), int64(0), 0, 1, uint8(0))
	f.Add("all set", "d", "s", -0.0, uint8(3), uint8(all), "estimate", int64(1e9), int64(1<<40), int64(5), 1<<20, 16, uint8(5))
	f.Fuzz(func(t *testing.T, q, doc, snippet string, score float64, n, flags uint8, reason string,
		wall, reads, hits int64, ranked, shards int, failed uint8) {
		if math.IsNaN(score) || math.IsInf(score, 0) {
			t.Skip("json cannot encode a non-finite score")
		}
		var results []xrank.SearchResult
		if flags&fzEmptySlice != 0 {
			results = []xrank.SearchResult{}
		}
		for i := 0; i < int(n%4); i++ {
			results = append(results, xrank.SearchResult{
				DeweyID: "0." + strconv.Itoa(i),
				Score:   score / float64(i+1),
				Doc:     doc,
				Path:    doc + "/" + q,
				Tag:     snippet,
				Snippet: snippet,
			})
		}
		stats := &xrank.QueryStats{
			Algorithm:         xrank.Algorithm(int(n>>2) % 3),
			WallTime:          time.Duration(wall),
			IO:                storage.Stats{Reads: reads, CacheHits: hits},
			SwitchedToDIL:     flags&fzSwitched != 0,
			RankedEntriesRead: ranked,
			Shards:            shards,
			Cached:            flags&fzCached != 0,
			Coalesced:         flags&fzCoalesced != 0,
			Degraded:          flags&fzDegraded != 0,
		}
		if stats.SwitchedToDIL {
			stats.SwitchReason = reason
		}
		if stats.Degraded && flags&fzFailedNil == 0 {
			for i := 0; i <= int(failed%4); i++ {
				stats.FailedShards = append(stats.FailedShards, i*int(failed))
			}
		}
		resultsJSON, err := json.Marshal(results)
		if err != nil {
			t.Fatal(err)
		}
		got := appendSearchBody(nil, q, stats, resultsJSON)
		if want := referenceSearchBody(q, results, stats); !bytes.Equal(got, want) {
			t.Fatalf("body drifted from the json.Encoder reference:\n got %q\nwant %q", got, want)
		}
	})
}

// gateFS holds every page read while armed: the first read signals
// entered, and every armed read waits for release. It lets a test keep
// one query's execution open while identical requests join it.
type gateFS struct {
	storage.FS
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (g *gateFS) Create(path string) (storage.File, error) {
	f, err := g.FS.Create(path)
	return gateFile{f, g}, err
}

func (g *gateFS) Open(path string) (storage.File, error) {
	f, err := g.FS.Open(path)
	return gateFile{f, g}, err
}

// arm makes the next page reads block until the returned release runs.
func (g *gateFS) arm() (release func()) {
	g.entered = make(chan struct{}, 1)
	g.release = make(chan struct{})
	g.armed.Store(true)
	var once sync.Once
	return func() {
		once.Do(func() {
			g.armed.Store(false)
			close(g.release)
		})
	}
}

type gateFile struct {
	storage.File
	g *gateFS
}

func (f gateFile) ReadAt(p []byte, off int64) (int, error) {
	if f.g.armed.Load() {
		select {
		case f.g.entered <- struct{}{}:
		default:
		}
		<-f.g.release
	}
	return f.File.ReadAt(p, off)
}

// perRequestKeys are the /api/search fields that describe how one
// request was served rather than what it answered.
var perRequestKeys = []string{
	"cached", "coalesced", "wall_us", "io_reads", "cache_hits",
	"ranked_entries", "switched", "switch_reason", "algorithm",
}

// answerPart decodes a body and drops the per-request fields, keeping
// the rest as raw bytes so the comparison stays byte-exact.
func answerPart(t *testing.T, body []byte) map[string]string {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("bad JSON %q: %v", body, err)
	}
	for _, k := range perRequestKeys {
		delete(m, k)
	}
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = string(v)
	}
	return out
}

// serveSearch runs one /api/search request and checks the reply's
// framing: 200 and a Content-Length equal to the body length.
func serveSearch(t *testing.T, mux http.Handler, url string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
	if rec.Code != http.StatusOK {
		t.Errorf("%s: status %d: %s", url, rec.Code, rec.Body)
		return nil
	}
	if cl, n := rec.Header().Get("Content-Length"), rec.Body.Len(); cl != strconv.Itoa(n) {
		t.Errorf("%s: Content-Length %q for a %d-byte body", url, cl, n)
	}
	return rec.Body.Bytes()
}

// TestSearchBodyMissHitCoalesced serves one query three ways — the
// execution that misses the cache, a waiter coalesced onto it, and a
// later cache hit — and requires the three bodies to agree byte for
// byte outside the per-request fields. Callers that mutate the results
// the library hands them must not change what later hits serve.
func TestSearchBodyMissHitCoalesced(t *testing.T) {
	gate := &gateFS{FS: storage.OS}
	e := xrank.NewEngine(&xrank.Config{
		IndexDir: t.TempDir(), FS: gate,
		CacheBytes: 1 << 20, CoalesceQueries: true,
	})
	for i := 0; i < 4; i++ {
		doc := fmt.Sprintf(`<r><t>xql &lt;language&gt; doc%d &amp; "more"</t><p>ranked keyword search</p></r>`, i)
		if err := e.AddXML(fmt.Sprintf("doc%d.xml", i), strings.NewReader(doc)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Build(); err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	mux := NewMux(e, Options{})
	const url = "/api/search?q=xql+language&algo=dil"
	misses := func() int64 {
		var sb strings.Builder
		if err := e.Metrics().WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(sb.String(), "\n") {
			if v, ok := strings.CutPrefix(line, "xrank_cache_result_misses_total "); ok {
				n, _ := strconv.ParseInt(v, 10, 64)
				return n
			}
		}
		return 0
	}

	// A waiter joins the flight only if it calls into the coalescing
	// group before the held execution finishes. Its cache miss is the
	// last observable step before that call, so an attempt can still
	// lose the race; retry until one waiter is coalesced.
	var miss, coalesced []byte
	for attempt := 0; attempt < 20 && coalesced == nil; attempt++ {
		if err := e.ColdCache(); err != nil {
			t.Fatal(err)
		}
		release := gate.arm()
		before := misses()
		var wg sync.WaitGroup
		var leaderBody, waiterBody []byte
		wg.Add(1)
		go func() {
			defer wg.Done()
			leaderBody = serveSearch(t, mux, url)
		}()
		<-gate.entered
		wg.Add(1)
		go func() {
			defer wg.Done()
			waiterBody = serveSearch(t, mux, url)
		}()
		for deadline := time.Now().Add(5 * time.Second); misses() < before+2 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(5 * time.Millisecond)
		release()
		wg.Wait()
		if leaderBody == nil || waiterBody == nil {
			t.FailNow()
		}
		if bytes.Contains(waiterBody, []byte(`"coalesced":true`)) {
			miss, coalesced = leaderBody, waiterBody
		}
	}
	if coalesced == nil {
		t.Fatal("no waiter joined the held execution in 20 attempts")
	}
	hit := serveSearch(t, mux, url)
	if !bytes.Contains(hit, []byte(`"cached":true`)) || !bytes.Contains(miss, []byte(`"cached":false`)) {
		t.Fatalf("expected a miss then a hit:\nmiss %s\nhit  %s", miss, hit)
	}
	want := answerPart(t, miss)
	if !strings.Contains(want["results"], `\u003clanguage\u003e`) {
		t.Fatalf("corpus lost its HTML-escaped snippet: %s", want["results"])
	}
	for name, body := range map[string][]byte{"coalesced": coalesced, "hit": hit} {
		if got := answerPart(t, body); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s body differs from the miss outside the per-request fields:\n got %v\nwant %v", name, got, want)
		}
	}

	// Library callers own the slices they get back, from the execution
	// that fills the cache and from a hit alike.
	for _, tc := range []struct {
		name string
		prep func()
	}{
		{"executed", func() {
			if err := e.ColdCache(); err != nil {
				t.Fatal(err)
			}
		}},
		{"hit", func() {}},
	} {
		tc.prep()
		rs, st, err := e.SearchDetailed("xql language", xrank.SearchOptions{Algorithm: xrank.AlgoDIL})
		if err != nil || len(rs) == 0 {
			t.Fatalf("%s: %d results, %v", tc.name, len(rs), err)
		}
		if tc.name == "hit" && !st.Cached {
			t.Fatalf("%s: not served from the cache", tc.name)
		}
		for i := range rs {
			rs[i].Snippet, rs[i].Score, rs[i].Doc = "mutated", -1, "elsewhere"
		}
		if got := answerPart(t, serveSearch(t, mux, url)); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: mutating returned results changed the next hit:\n got %v\nwant %v", tc.name, got, want)
		}
	}
}

// TestSearchHitsConcurrent sends three new queries, one per algorithm,
// from many goroutines at once: their executions, coalesced waiters and
// first hits race on each entry's one-time encoding and on the first use
// of each per-algorithm metric series (run under -race in CI). Every
// reply must carry the answer a later hit serves.
func TestSearchHitsConcurrent(t *testing.T) {
	mux, _ := hitMux(t, hitURL)
	urls := []string{
		"/api/search?q=xml+documents&algo=dil",
		"/api/search?q=xml+documents&algo=rdil",
		"/api/search?q=xml+documents&algo=hdil",
	}
	var (
		mu  sync.Mutex
		got = make([][]string, len(urls))
		wg  sync.WaitGroup
	)
	start := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < 3*len(urls); i++ {
				u := (g + i) % len(urls)
				var m map[string]json.RawMessage
				if err := json.Unmarshal(serveSearch(t, mux, urls[u]), &m); err != nil {
					t.Errorf("%s: %v", urls[u], err)
					return
				}
				mu.Lock()
				got[u] = append(got[u], string(m["results"]))
				mu.Unlock()
			}
		}(g)
	}
	close(start)
	wg.Wait()
	for u, url := range urls {
		hit := serveSearch(t, mux, url)
		if !bytes.Contains(hit, []byte(`"cached":true`)) {
			t.Fatalf("%s: not a cache hit after the burst", url)
		}
		want := answerPart(t, hit)["results"]
		for _, r := range got[u] {
			if r != want {
				t.Fatalf("%s: a reply's results differ from the cached answer:\n got %s\nwant %s", url, r, want)
			}
		}
	}
}

// discardWriter is a reusable ResponseWriter that keeps only the
// headers, so the hit-path gate counts the handler's allocations and not
// a recorder's.
type discardWriter struct {
	h http.Header
	n int
}

func (d *discardWriter) Header() http.Header { return d.h }

func (d *discardWriter) Write(p []byte) (int, error) {
	d.n += len(p)
	return len(p), nil
}

func (d *discardWriter) WriteHeader(int) {}

// hitMux returns the serve-default mux (result cache and coalescing on)
// with url's query already cached, and a request for it.
func hitMux(tb testing.TB, url string) (http.Handler, *http.Request) {
	tb.Helper()
	e := xrank.NewEngine(&xrank.Config{IndexDir: tb.TempDir(), CacheBytes: 1 << 20, CoalesceQueries: true})
	for i := 0; i < 40; i++ {
		doc := fmt.Sprintf(`<r><t>xql language doc%d</t><p>ranked keyword search over xml documents, part %d</p></r>`, i, i)
		if err := e.AddXML(fmt.Sprintf("doc%02d.xml", i), strings.NewReader(doc)); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := e.Build(); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { e.Close() })
	mux := NewMux(e, Options{})
	req := httptest.NewRequest("GET", url, nil)
	w := &discardWriter{h: http.Header{}}
	mux.ServeHTTP(w, req)
	mux.ServeHTTP(w, req)
	if w.h.Get("Content-Length") == "" {
		tb.Fatal("warm-up reply carried no Content-Length")
	}
	return mux, req
}

const hitURL = "/api/search?q=ranked+keyword+search&m=10"

// maxHitAllocs is the committed ceiling on allocations per cache-hit
// /api/search request, measured in the handler: query parse, engine hit
// path (key, cache lookup, stats, result copy, metrics) and headers.
const maxHitAllocs = 24

// TestSearchHitAllocs gates the cache-hit path's allocations per request.
func TestSearchHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	mux, req := hitMux(t, hitURL)
	w := &discardWriter{h: http.Header{}}
	got := testing.AllocsPerRun(200, func() { mux.ServeHTTP(w, req) })
	if got > maxHitAllocs {
		t.Errorf("cache-hit /api/search: %.0f allocs/op, ceiling %d", got, maxHitAllocs)
	}
	t.Logf("cache-hit /api/search: %.0f allocs/op (ceiling %d)", got, maxHitAllocs)
}

// BenchmarkSearchHit is one warmed, cached /api/search request: handler
// is the mux alone (the allocation gate's measurement); http adds the
// transport, a keep-alive client against httptest's server.
func BenchmarkSearchHit(b *testing.B) {
	b.Run("handler", func(b *testing.B) {
		mux, req := hitMux(b, hitURL)
		w := &discardWriter{h: http.Header{}}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mux.ServeHTTP(w, req)
		}
		b.ReportMetric(float64(w.n)/float64(b.N), "B/reply")
	})
	b.Run("http", func(b *testing.B) {
		mux, _ := hitMux(b, hitURL)
		srv := httptest.NewServer(mux)
		defer srv.Close()
		client := srv.Client()
		get := func() {
			req, err := http.NewRequestWithContext(context.Background(), "GET", srv.URL+hitURL, nil)
			if err != nil {
				b.Fatal(err)
			}
			resp, err := client.Do(req)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d", resp.StatusCode)
			}
		}
		get()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			get()
		}
	})
}
