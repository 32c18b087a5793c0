package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"

	"xrank"
)

// TestKeywordFreeQuery400: a query that tokenizes to no keywords is the
// client's error, not the server's.
func TestKeywordFreeQuery400(t *testing.T) {
	mux := NewMux(edgeEngine(t), Options{})
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/api/search?q=%21%21%21", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("q=!!!: status %d, want 400: %s", rec.Code, rec.Body)
	}
}

// FuzzSearchRequest drives /api/search with arbitrary q, m, algo,
// timeout_ms and budget parameters against a small engine that serves
// from a result cache, as serve does. Every reply is 200, 400, 503 or
// 504, never 500, and a 200's results are byte-equal to the JSON of
// SearchContext's results for the same parsed options.
func FuzzSearchRequest(f *testing.F) {
	f.Add("xql language", "10", "dil", "", "")
	f.Add("ranked keyword", "3", "hdil", "1000", "100")
	f.Add("zzz", "5", "rdil", "", "")
	f.Add("Doc1 XQL", "", "", "50", "1")
	e := edgeEngine(f)
	e.ConfigureResultCache(1 << 20)
	mux := NewMux(e, Options{})
	f.Fuzz(func(t *testing.T, q, m, algo, timeout, budget string) {
		params := url.Values{}
		for k, v := range map[string]string{"q": q, "m": m, "algo": algo, "timeout_ms": timeout, "budget": budget} {
			if v != "" {
				params.Set(k, v)
			}
		}
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", "/api/search?"+params.Encode(), nil))
		switch rec.Code {
		case http.StatusBadRequest, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			return
		case http.StatusOK:
		default:
			t.Fatalf("%s: status %d: %s", params.Encode(), rec.Code, rec.Body)
		}
		// The handler accepted the parameters, so they parse.
		opts := xrank.SearchOptions{TopM: 10, Algorithm: xrank.AlgoHDIL}
		if m != "" {
			opts.TopM, _ = strconv.Atoi(m)
		}
		if algo != "" {
			opts.Algorithm, _ = ParseAlgo(algo)
		}
		if budget != "" {
			opts.MaxPageReads, _ = strconv.ParseInt(budget, 10, 64)
		}
		var body map[string]json.RawMessage
		results, _, err := e.SearchContext(context.Background(), q, opts)
		want, merr := json.Marshal(results)
		if uerr := json.Unmarshal(rec.Body.Bytes(), &body); uerr != nil || err != nil || merr != nil ||
			!bytes.Equal(body["results"], want) {
			t.Fatalf("%s: served results %s; SearchContext %s (%v, %v, %v)", params.Encode(), body["results"], want, uerr, err, merr)
		}
	})
}
