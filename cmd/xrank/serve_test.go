package main

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"xrank"
	"xrank/internal/httpapi"
)

func newTestEngine(t *testing.T) *xrank.Engine {
	t.Helper()
	e := xrank.NewEngine(nil)
	doc := `<workshop><title>xml search systems</title>
	 <paper id="1"><title>ranked xml keyword search</title><body>the xql language and more</body></paper>
	 <paper id="2"><title>another xml paper</title><cite ref="1">see</cite></paper>
	</workshop>`
	if err := e.AddXML("ws", strings.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Build(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func TestServeSearchAPI(t *testing.T) {
	mux := httpapi.NewMux(newTestEngine(t), httpapi.Options{Metrics: true})

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/api/search?q=xql+language&m=5", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp struct {
		Query     string
		Algorithm string
		Results   []xrank.SearchResult
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Query != "xql language" || resp.Algorithm != "HDIL" || len(resp.Results) == 0 {
		t.Fatalf("response = %+v", resp)
	}
	if resp.Results[0].Tag != "body" {
		t.Errorf("top result tag = %q (want the most specific element)", resp.Results[0].Tag)
	}

	// Algorithm selection and validation.
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/api/search?q=xml&algo=dil", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"DIL"`) {
		t.Errorf("algo=dil: %d %s", rec.Code, rec.Body)
	}
	for _, bad := range []string{
		"/api/search",                // missing q
		"/api/search?q=xml&m=0",      // bad m
		"/api/search?q=xml&m=x",      // bad m
		"/api/search?q=xml&algo=wat", // bad algo
	} {
		rec = httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", bad, nil))
		if rec.Code != 400 {
			t.Errorf("%s: status %d, want 400", bad, rec.Code)
		}
	}
}

// TestServeSuggestAPI drives /api/suggest: completion, multi-keyword
// normalization, the empty-prefix and no-match shapes, and parameter
// validation.
func TestServeSuggestAPI(t *testing.T) {
	mux := httpapi.NewMux(newTestEngine(t), httpapi.Options{Metrics: true})

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/api/suggest?q=xq&k=5", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp struct {
		Query       string
		Prefix      string
		Terms       int
		Suggestions []xrank.Suggestion
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Query != "xq" || resp.Prefix != "xq" || resp.Terms == 0 || len(resp.Suggestions) == 0 {
		t.Fatalf("response = %+v", resp)
	}
	for _, s := range resp.Suggestions {
		if !strings.HasPrefix(s.Term, "xq") {
			t.Errorf("completion %q does not extend the prefix", s.Term)
		}
	}
	if st := rec.Header().Get("Server-Timing"); !strings.Contains(st, "queue;dur=") {
		t.Errorf("Server-Timing = %q", st)
	}

	// Raw multi-keyword input: only the last token is completed, folded
	// through the index tokenizer.
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/api/suggest?q=ranked+XM", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"prefix":"xm"`) {
		t.Fatalf("multi-keyword: %d %s", rec.Code, rec.Body)
	}

	// An empty q is valid: the top terms of the whole dictionary.
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/api/suggest?q=", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"term"`) {
		t.Fatalf("empty prefix: %d %s", rec.Code, rec.Body)
	}

	// No match: 200 with an empty array, never null.
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/api/suggest?q=zzzz", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"suggestions":[]`) {
		t.Fatalf("no match: %d %s", rec.Code, rec.Body)
	}

	for _, bad := range []string{
		"/api/suggest",          // missing q entirely
		"/api/suggest?q=x&k=0",  // bad k
		"/api/suggest?q=x&k=-1", // bad k
		"/api/suggest?q=x&k=x",  // bad k
	} {
		rec = httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", bad, nil))
		if rec.Code != 400 {
			t.Errorf("%s: status %d, want 400", bad, rec.Code)
		}
	}
}

func TestServeAncestorsAPI(t *testing.T) {
	e := newTestEngine(t)
	mux := httpapi.NewMux(e, httpapi.Options{Metrics: true})
	rs, err := e.Search("xql language")
	if err != nil || len(rs) == 0 {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/api/ancestors?id="+rs[0].DeweyID, nil))
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var anc []xrank.SearchResult
	if err := json.Unmarshal(rec.Body.Bytes(), &anc); err != nil {
		t.Fatal(err)
	}
	if len(anc) == 0 || anc[len(anc)-1].Tag != "workshop" {
		t.Errorf("ancestors = %+v", anc)
	}
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/api/ancestors?id=bogus", nil))
	if rec.Code != 400 {
		t.Errorf("bogus id: status %d", rec.Code)
	}
}

func TestServeHTMLPage(t *testing.T) {
	mux := httpapi.NewMux(newTestEngine(t), httpapi.Options{Metrics: true})
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/?q=xml", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	body := rec.Body.String()
	if !strings.Contains(body, "XRANK") || !strings.Contains(body, "workshop") {
		t.Errorf("page body missing content:\n%s", body)
	}
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/nope", nil))
	if rec.Code != 404 {
		t.Errorf("unknown path: %d", rec.Code)
	}
}

// TestServeDocsAPI drives the mutating /api/docs endpoints: add a
// document, see it in search results, replace it, delete it, and watch
// the opt-in gate and error statuses.
func TestServeDocsAPI(t *testing.T) {
	e := xrank.NewEngine(&xrank.Config{IndexDir: t.TempDir()})
	if err := e.AddXML("base", strings.NewReader("<doc><t>xml search</t></doc>")); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Build(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	mux := httpapi.NewMux(e, httpapi.Options{Updates: true})

	do := func(method, url, body string) *httptest.ResponseRecorder {
		t.Helper()
		var r *httptest.ResponseRecorder = httptest.NewRecorder()
		var req = httptest.NewRequest(method, url, strings.NewReader(body))
		mux.ServeHTTP(r, req)
		return r
	}

	// Add, then find the new document.
	if rec := do("POST", "/api/docs?name=extra", "<doc><t>zebra quartz</t></doc>"); rec.Code != 200 {
		t.Fatalf("add: status %d: %s", rec.Code, rec.Body)
	}
	if rec := do("GET", "/api/search?q=zebra+quartz", ""); rec.Code != 200 || !strings.Contains(rec.Body.String(), `"extra"`) {
		t.Fatalf("search after add: %d %s", rec.Code, rec.Body)
	}

	// Replace it (same name), then delete it.
	if rec := do("PUT", "/api/docs?name=extra", "<doc><t>different words</t></doc>"); rec.Code != 200 {
		t.Fatalf("replace: status %d: %s", rec.Code, rec.Body)
	}
	if rec := do("DELETE", "/api/docs?name=extra", ""); rec.Code != 200 {
		t.Fatalf("delete: status %d: %s", rec.Code, rec.Body)
	}
	if rec := do("GET", "/api/search?q=different+words", ""); strings.Contains(rec.Body.String(), `"extra"`) {
		t.Fatalf("deleted doc still served: %s", rec.Body)
	}

	// Error statuses: double delete 404, missing name 400, bad method 405.
	if rec := do("DELETE", "/api/docs?name=extra", ""); rec.Code != 404 {
		t.Errorf("double delete: status %d, want 404", rec.Code)
	}
	if rec := do("POST", "/api/docs", "<doc/>"); rec.Code != 400 {
		t.Errorf("missing name: status %d, want 400", rec.Code)
	}
	if rec := do("GET", "/api/docs?name=x", ""); rec.Code != 405 {
		t.Errorf("GET: status %d, want 405", rec.Code)
	}

	// The opt-in gate: a mux without Updates refuses.
	frozen := httpapi.NewMux(e, httpapi.Options{})
	rec := httptest.NewRecorder()
	frozen.ServeHTTP(rec, httptest.NewRequest("POST", "/api/docs?name=y", strings.NewReader("<d/>")))
	if rec.Code != 403 {
		t.Errorf("updates disabled: status %d, want 403", rec.Code)
	}
}

// TestServeServerTiming checks /api/search answers carry the
// Server-Timing header on both the success and the shed path.
func TestServeServerTiming(t *testing.T) {
	mux := httpapi.NewMux(newTestEngine(t), httpapi.Options{})
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/api/search?q=xml", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	st := rec.Header().Get("Server-Timing")
	if !strings.Contains(st, "queue;dur=") || !strings.Contains(st, "search;dur=") {
		t.Errorf("Server-Timing = %q", st)
	}
}
