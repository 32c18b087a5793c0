// Package httpapi builds the engine's HTTP surface: /api/search,
// /api/suggest, /api/docs, /api/ancestors, /api/shards, /api/segments,
// /api/slowlog, /api/cache, a minimal HTML search page at /, and — per
// Options — /metrics and /debug/pprof/. It is the one mux both `xrank
// serve` and the in-process harnesses (tests, xrank-loadgen -inproc)
// mount, so a load test exercises byte-for-byte the handler stack
// production runs. Its /api/search handler, SearchHandler, serves any
// Searcher: the cluster coordinator mounts it too, so both tiers parse,
// validate and answer a search the same way.
//
// Every /api/search and /api/suggest response carries a Server-Timing
// header (queue;dur=…, search;dur=… in milliseconds) so external
// clients can split time-in-admission-queue from time-in-engine
// without scraping /metrics per request. /api/search replies also carry
// Content-Length: the body is built whole before it is written.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"html/template"
	"log"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"xrank"
	"xrank/internal/cache"
	"xrank/internal/obs"
)

// maxDocBytes bounds one /api/docs upload; a document larger than this
// answers 413 before the engine sees it.
const maxDocBytes = 8 << 20

// Options selects the optional endpoints and the admission controller.
type Options struct {
	Metrics   bool             // serve /metrics (Prometheus text exposition)
	Pprof     bool             // serve /debug/pprof/ (opt-in: exposes runtime internals)
	Updates   bool             // serve POST/DELETE /api/docs (opt-in: mutates the index)
	Admission *cache.Admission // bound /api/search concurrency (nil: unbounded)
}

// WithRecovery wraps a handler so a panicking request logs the stack,
// increments xrank_http_panics_total, and answers 500 — one bad request
// never takes down the server or leaves the client hanging.
func WithRecovery(e *xrank.Engine, next http.Handler) http.Handler {
	panics := e.Metrics().Counter("xrank_http_panics_total", "HTTP requests that panicked and were answered with a 500.")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				panics.Inc()
				log.Printf("http: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
				// Best effort: if the handler already wrote a status line
				// this is a no-op and the client sees a truncated body.
				http.Error(w, "internal server error", http.StatusInternalServerError)
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// serverTiming renders a Server-Timing header value: time spent waiting
// for an admission slot and time spent executing the query, both in
// milliseconds per the Server-Timing spec's dur unit.
func serverTiming(queue, search time.Duration) string {
	var arr [64]byte
	b := append(arr[:0], "queue;dur="...)
	b = strconv.AppendFloat(b, float64(queue.Microseconds())/1000, 'f', 3, 64)
	b = append(b, ", search;dur="...)
	b = strconv.AppendFloat(b, float64(search.Microseconds())/1000, 'f', 3, 64)
	return string(b)
}

// Searcher answers one query. *xrank.Engine satisfies it, and so does
// the cluster coordinator: both tiers serve /api/search through
// SearchHandler.
type Searcher interface {
	SearchContext(ctx context.Context, q string, opts xrank.SearchOptions) ([]xrank.SearchResult, *xrank.QueryStats, error)
}

// StatusError is a search failure that carries its whole reply: a
// Searcher returns it to have the status, Content-Type, Retry-After
// (when set) and body written as they are. The coordinator relays a
// replica's 400 or backpressure answer through it, and reports every
// shard failed as a 502.
type StatusError struct {
	Status      int
	ContentType string
	RetryAfter  string
	Body        []byte
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("%d %s: %s", e.Status, http.StatusText(e.Status), strings.TrimSpace(string(e.Body)))
}

// gate is the admission controller /api/search and /api/suggest share,
// with its metrics.
type gate struct {
	adm            *cache.Admission
	admitted, shed *obs.Counter
	expired        *obs.Counter
	waiting        *obs.Gauge
}

// newGate registers the admission metrics in reg (nil: a private
// registry) and gates on adm (nil: unbounded).
func newGate(reg *obs.Registry, adm *cache.Admission) *gate {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &gate{
		adm:      adm,
		admitted: reg.Counter("xrank_admission_admitted_total", "Search requests admitted past the concurrency limiter."),
		shed:     reg.Counter("xrank_admission_shed_total", "Search requests shed with 429: limiter saturated and queue full."),
		expired:  reg.Counter("xrank_admission_expired_total", "Search requests whose deadline expired while queued (503)."),
		waiting:  reg.Gauge("xrank_admission_queued", "Search requests currently waiting for an execution slot."),
	}
}

// acquire waits for an execution slot: on success it returns the queue
// wait and a release to defer; on shed/expiry it writes the 429/503 JSON
// envelope itself and reports !ok. Callers validate parameters first so
// a malformed request never costs a slot.
func (g *gate) acquire(ctx context.Context, w http.ResponseWriter) (queued time.Duration, release func(), ok bool) {
	if g.adm == nil {
		return 0, func() {}, true
	}
	g.waiting.Add(1)
	t0 := time.Now()
	err := g.adm.Acquire(ctx)
	queued = time.Since(t0)
	g.waiting.Add(-1)
	if err != nil {
		status := http.StatusServiceUnavailable
		if errors.Is(err, cache.ErrQueueFull) {
			status = http.StatusTooManyRequests
			g.shed.Inc()
		} else {
			g.expired.Inc()
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", "1")
		w.Header().Set("Server-Timing", serverTiming(queued, 0))
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(map[string]interface{}{
			"error":               err.Error(),
			"retry_after_seconds": 1,
		})
		return queued, nil, false
	}
	g.admitted.Inc()
	return queued, g.adm.Release, true
}

// SearchHandler serves /api/search over s. It validates the parameters
// (q; m in [1,1000]; algo; timeout_ms and budget ≥ 1) with a 400 for a
// bad one, waits at adm's gate (nil: unbounded; its metrics go to reg),
// runs the query under the request's context and writes the reply
// (appendSearchBody) with Content-Length and a Server-Timing header. A
// failure is written by SearchErrorStatus, or as it is for a
// *StatusError.
func SearchHandler(s Searcher, reg *obs.Registry, adm *cache.Admission) http.Handler {
	g := newGate(reg, adm)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		params := r.URL.Query()
		q := params.Get("q")
		if q == "" {
			http.Error(w, `missing "q" parameter`, http.StatusBadRequest)
			return
		}
		m := 10
		if ms := params.Get("m"); ms != "" {
			v, err := strconv.Atoi(ms)
			if err != nil || v < 1 || v > 1000 {
				http.Error(w, `bad "m" parameter`, http.StatusBadRequest)
				return
			}
			m = v
		}
		algo := xrank.AlgoHDIL
		if as := params.Get("algo"); as != "" {
			a, err := ParseAlgo(as)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			algo = a
		}
		// The request context flows into the query: a client that
		// disconnects or a timeout_ms that expires cancels the merge at
		// its next page access instead of burning I/O on a dead request.
		ctx := r.Context()
		if ts := params.Get("timeout_ms"); ts != "" {
			v, err := strconv.Atoi(ts)
			if err != nil || v < 1 {
				http.Error(w, `bad "timeout_ms" parameter`, http.StatusBadRequest)
				return
			}
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, time.Duration(v)*time.Millisecond)
			defer cancel()
		}
		var budget int64
		if bs := params.Get("budget"); bs != "" {
			v, err := strconv.ParseInt(bs, 10, 64)
			if err != nil || v < 1 {
				http.Error(w, `bad "budget" parameter`, http.StatusBadRequest)
				return
			}
			budget = v
		}
		// Admission gate: ctx already carries the request's deadline so
		// time queued counts against it.
		queued, release, ok := g.acquire(ctx, w)
		if !ok {
			return
		}
		defer release()
		t0 := time.Now()
		results, stats, err := s.SearchContext(ctx, q, xrank.SearchOptions{
			TopM: m, Algorithm: algo, MaxPageReads: budget,
		})
		w.Header().Set("Server-Timing", serverTiming(queued, time.Since(t0)))
		if err != nil {
			writeSearchError(w, err)
			return
		}
		// A cache hit or coalesced waiter carries its results already
		// encoded; only a fresh execution encodes them here.
		resultsJSON := stats.ResultsJSON
		if resultsJSON == nil {
			if resultsJSON, err = json.Marshal(results); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
		}
		buf := bodyPool.Get().(*[]byte)
		body := appendSearchBody((*buf)[:0], q, stats, resultsJSON)
		h := w.Header()
		h.Set("Content-Type", "application/json")
		h.Set("Content-Length", strconv.Itoa(len(body)))
		w.Write(body)
		if cap(body) <= maxPooledBody {
			*buf = body
			bodyPool.Put(buf)
		}
	})
}

// writeSearchError answers a failed search: a *StatusError as it is,
// anything else as text with SearchErrorStatus's code.
func writeSearchError(w http.ResponseWriter, err error) {
	var se *StatusError
	if !errors.As(err, &se) {
		http.Error(w, err.Error(), SearchErrorStatus(err))
		return
	}
	h := w.Header()
	h.Set("Content-Type", se.ContentType)
	if se.RetryAfter != "" {
		h.Set("Retry-After", se.RetryAfter)
	}
	w.WriteHeader(se.Status)
	w.Write(se.Body)
}

// NewMux builds the HTTP API behind the panic-recovery middleware.
func NewMux(e *xrank.Engine, opts Options) http.Handler {
	mux := http.NewServeMux()
	// Admission metrics live in the engine registry so one /metrics scrape
	// covers the whole serving path.
	g := newGate(e.Metrics(), opts.Admission)
	mux.Handle("/api/search", SearchHandler(e, e.Metrics(), opts.Admission))
	mux.HandleFunc("/api/suggest", func(w http.ResponseWriter, r *http.Request) {
		// An empty q is a valid query (the top terms of the whole
		// dictionary), so only a missing parameter is rejected.
		if !r.URL.Query().Has("q") {
			http.Error(w, `missing "q" parameter`, http.StatusBadRequest)
			return
		}
		q := r.URL.Query().Get("q")
		k := 0 // engine default (DefaultSuggestK)
		if ks := r.URL.Query().Get("k"); ks != "" {
			v, err := strconv.Atoi(ks)
			if err != nil || v < 1 || v > 1000 {
				http.Error(w, `bad "k" parameter`, http.StatusBadRequest)
				return
			}
			k = v
		}
		// Completions share the search admission gate: a saturated
		// engine sheds keystrokes before queries only in the sense that
		// both wait in the same queue under the same limit.
		queued, release, ok := g.acquire(r.Context(), w)
		if !ok {
			return
		}
		defer release()
		t0 := time.Now()
		sugs, st, err := e.Suggest(q, k)
		w.Header().Set("Server-Timing", serverTiming(queued, time.Since(t0)))
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if sugs == nil {
			sugs = []xrank.Suggestion{} // JSON [] rather than null
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]interface{}{
			"query":         q,
			"prefix":        st.Prefix,
			"terms":         st.Terms,
			"nodes_visited": st.NodesVisited,
			"wall_us":       st.WallTime.Microseconds(),
			"suggestions":   sugs,
		})
	})
	mux.HandleFunc("/api/docs", func(w http.ResponseWriter, r *http.Request) {
		if !opts.Updates {
			http.Error(w, "updates disabled (start the server with -updates)", http.StatusForbidden)
			return
		}
		name := r.URL.Query().Get("name")
		if name == "" {
			http.Error(w, `missing "name" parameter`, http.StatusBadRequest)
			return
		}
		switch r.Method {
		case http.MethodPost, http.MethodPut:
			// AddDoc replaces an existing name atomically (old version
			// tombstoned), so POST and PUT behave identically.
			body := http.MaxBytesReader(w, r.Body, maxDocBytes)
			if err := e.AddDoc(name, body); err != nil {
				status := http.StatusInternalServerError
				if strings.Contains(err.Error(), "request body too large") {
					status = http.StatusRequestEntityTooLarge
				}
				http.Error(w, err.Error(), status)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(map[string]interface{}{
				"name":     name,
				"docs":     e.NumDocs(),
				"segments": e.SegmentCount(),
			})
		case http.MethodDelete:
			if err := e.DeleteDoc(name); err != nil {
				status := http.StatusInternalServerError
				if strings.Contains(err.Error(), "no document") ||
					strings.Contains(err.Error(), "already deleted") {
					status = http.StatusNotFound
				}
				http.Error(w, err.Error(), status)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(map[string]interface{}{"deleted": name})
		default:
			w.Header().Set("Allow", "POST, PUT, DELETE")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})
	mux.HandleFunc("/api/cache", func(w http.ResponseWriter, r *http.Request) {
		resp := map[string]interface{}{"cache": e.CacheStats()}
		if opts.Admission != nil {
			resp["admission"] = opts.Admission.Stats()
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(resp)
	})
	mux.HandleFunc("/api/shards", func(w http.ResponseWriter, r *http.Request) {
		per := e.ShardIOStats()
		health := e.ShardHealth()
		unhealthy := 0
		shards := make([]map[string]interface{}, len(per))
		for i, s := range per {
			shards[i] = map[string]interface{}{
				"shard":      i,
				"io_reads":   s.Reads,
				"seq_reads":  s.SeqReads,
				"rand_reads": s.RandReads,
				"cache_hits": s.CacheHits,
			}
			if i < len(health) {
				h := health[i]
				shards[i]["healthy"] = h.Healthy
				shards[i]["consecutive_failures"] = h.Failures
				if h.LastError != "" {
					shards[i]["last_error"] = h.LastError
				}
				if !h.Healthy {
					unhealthy++
				}
			}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]interface{}{
			"num_shards": e.NumShards(),
			"unhealthy":  unhealthy,
			"shards":     shards,
		})
	})
	mux.HandleFunc("/api/segments", func(w http.ResponseWriter, r *http.Request) {
		segs := e.Segments()
		stale := 0
		for _, s := range segs {
			if s.Stale {
				stale++
			}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]interface{}{
			"num_segments": len(segs),
			"rank_version": e.RankVersion(),
			"stale":        stale,
			"segments":     segs,
		})
	})
	mux.HandleFunc("/api/slowlog", func(w http.ResponseWriter, r *http.Request) {
		l := e.SlowLog()
		entries := l.Entries()
		if ls := r.URL.Query().Get("limit"); ls != "" {
			v, err := strconv.Atoi(ls)
			if err != nil || v < 1 {
				http.Error(w, `bad "limit" parameter`, http.StatusBadRequest)
				return
			}
			if v < len(entries) {
				entries = entries[:v]
			}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]interface{}{
			"threshold_ms": l.Threshold().Milliseconds(),
			"total":        l.Total(),
			"entries":      entries,
		})
	})
	if opts.Metrics {
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			if err := e.Metrics().WritePrometheus(w); err != nil {
				log.Printf("metrics: %v", err)
			}
		})
	}
	if opts.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	mux.HandleFunc("/api/ancestors", func(w http.ResponseWriter, r *http.Request) {
		id := r.URL.Query().Get("id")
		anc, err := e.Ancestors(id)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(anc)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		q := r.URL.Query().Get("q")
		data := struct {
			Query   string
			Results []xrank.SearchResult
			Err     string
		}{Query: q}
		if q != "" {
			rs, err := e.Search(q)
			if err != nil {
				data.Err = err.Error()
			} else {
				data.Results = rs
			}
		}
		if err := page.Execute(w, data); err != nil {
			log.Printf("render: %v", err)
		}
	})
	return WithRecovery(e, mux)
}

// SearchErrorStatus maps a query failure to an HTTP status: a query with
// no keywords to 400, timeouts to 504, client disconnects, exhausted
// budgets and degraded-mode refusals (FailOnDegraded) to 503 (the
// service is temporarily unable to serve a complete answer), everything
// else to 500.
func SearchErrorStatus(err error) int {
	switch {
	case errors.Is(err, xrank.ErrNoKeywords):
		return http.StatusBadRequest
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled),
		errors.Is(err, xrank.ErrBudgetExceeded),
		errors.Is(err, xrank.ErrDegraded):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// ParseAlgo resolves the CLI/HTTP algorithm names.
func ParseAlgo(s string) (xrank.Algorithm, error) {
	switch s {
	case "hdil":
		return xrank.AlgoHDIL, nil
	case "dil":
		return xrank.AlgoDIL, nil
	case "rdil":
		return xrank.AlgoRDIL, nil
	default:
		return 0, fmt.Errorf("unknown algorithm %q", s)
	}
}

var page = template.Must(template.New("page").Parse(`<!doctype html>
<html><head><title>XRANK</title>
<style>
 body { font-family: sans-serif; max-width: 48rem; margin: 2rem auto; }
 .path { color: #666; font-size: 0.85rem; }
 .score { color: #295; }
 .snippet { margin: 0.2rem 0 1rem; }
</style></head>
<body>
<h1>XRANK — ranked XML keyword search</h1>
<form action="/" method="get"><input name="q" size="50" value="{{.Query}}" autofocus>
<button type="submit">Search</button></form>
{{if .Err}}<p style="color:#a00">{{.Err}}</p>{{end}}
{{range .Results}}
  <div>
   <div><span class="score">{{printf "%.3g" .Score}}</span> &lt;{{.Tag}}&gt; in <b>{{.Doc}}</b></div>
   <div class="path">{{.Path}} (dewey {{.DeweyID}})</div>
   <div class="snippet">{{.Snippet}}</div>
  </div>
{{end}}
</body></html>`))
