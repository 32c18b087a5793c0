package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xrank"
	"xrank/internal/cache"
	"xrank/internal/index"
	"xrank/internal/query"
	"xrank/internal/storage"
	"xrank/internal/text"
	"xrank/internal/xmldoc"
)

// recorder keeps the traced window's spans in memory: one client span per
// request from the caller's side, one handler span from a middleware
// around the mux, joined by request id afterwards.
type recorder struct {
	epoch time.Time
	next  atomic.Uint64

	mu       sync.Mutex
	clients  []clientSpan
	handlers map[uint64][2]int64 // request id → handler start, end
}

type clientSpan struct {
	id         uint64
	q          string
	start, end int64
	timing     string
	bytes      int
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), handlers: map[uint64][2]int64{}}
}

func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

func (r *recorder) client(rp reply, q string) {
	cs := clientSpan{rp.id, q, r.since(rp.start), r.since(rp.start.Add(rp.lat)), rp.timing, len(rp.body)}
	r.mu.Lock()
	r.clients = append(r.clients, cs)
	r.mu.Unlock()
}

// middleware records the handler span of every request that carries a
// request id; warm-up and untraced windows send none and pass through.
func (r *recorder) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id, err := strconv.ParseUint(req.Header.Get(requestIDHeader), 10, 64)
		if err != nil {
			next.ServeHTTP(w, req)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, req)
		end := time.Now()
		r.mu.Lock()
		r.handlers[id] = [2]int64{r.since(start), r.since(end)}
		r.mu.Unlock()
	})
}

// tracedReq is one request of the traced window with its live spans (µs)
// and, once replayed, what the direct calls measured.
type tracedReq struct {
	clientSpan
	clientUS, handlerUS, queueUS, execUS float64

	searchUS, searchSelfUS, tokenizeUS, materializeUS float64
	executeSelfUS, shardsUS, mergeUS                  float64
	stages                                            map[string]float64 // algorithm-stage spans by name, µs
	spans                                             []span
}

// serverTiming parses "queue;dur=0.012, search;dur=1.234" (milliseconds)
// into microseconds.
func serverTiming(h string) (queueUS, execUS float64) {
	for _, part := range strings.Split(h, ",") {
		name, dur, ok := strings.Cut(strings.TrimSpace(part), ";dur=")
		if !ok {
			continue
		}
		v, _ := strconv.ParseFloat(dur, 64)
		switch name {
		case "queue":
			queueUS = v * 1000
		case "search":
			execUS = v * 1000
		}
	}
	return
}

// join pairs every client span with its handler span, in request order.
func (r *recorder) join() []*tracedReq {
	out := make([]*tracedReq, 0, len(r.clients))
	for _, cs := range r.clients {
		h, ok := r.handlers[cs.id]
		if !ok {
			continue
		}
		t := &tracedReq{clientSpan: cs}
		t.clientUS = float64(cs.end-cs.start) / 1e3
		t.handlerUS = float64(h[1]-h[0]) / 1e3
		t.queueUS, t.execUS = serverTiming(cs.timing)
		t.spans = []span{
			{Name: "client", Req: cs.id, ID: 0, Parent: -1, Start: cs.start, End: cs.end},
			{Name: "httpapi", Req: cs.id, ID: 1, Parent: 0, Start: h[0], End: h[1]},
		}
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// engineStages are the spans SearchContext records itself; every other
// name in QueryStats.Trace comes from the query layer below execute.
var engineStages = map[string]bool{"tokenize": true, "execute": true, "materialize": true}

// replayEngine runs one traced request again by a direct SearchContext call
// on this goroutine and turns QueryStats.Trace into a span tree:
// xrank.search → tokenize / execute / materialize, execute → shardNN.exec
// (parallel, overlapping) / merge.topk. Deeper algorithm stages cannot be
// assigned to a shard by time alone, so they are summed by name instead.
func replayEngine(e *xrank.Engine, t *tracedReq, rec *recorder) (*xrank.QueryStats, error) {
	t0 := time.Now()
	_, st, err := e.SearchContext(context.Background(), t.q, xrank.SearchOptions{TopM: topM})
	t1 := time.Now()
	if err != nil {
		return nil, err
	}
	// IDs 0 and 1 are the request's live client and handler spans.
	const root = 2
	tree := []span{{Name: "xrank.search", Req: t.id, ID: root, Parent: -1, Start: rec.since(t0), End: rec.since(t1)}}
	add := func(name string, parent int, start time.Time, d time.Duration) {
		tree = append(tree, span{Name: name, Req: t.id, ID: root + len(tree), Parent: parent,
			Start: rec.since(start), End: rec.since(start.Add(d))})
	}
	for _, s := range st.Trace {
		if engineStages[s.Name] {
			add(s.Name, root, s.Start, s.Dur)
		}
	}
	// A fan-out span belongs to the execute stage it started in (a query
	// that over-fetches for tombstones executes twice).
	executeAt := func(start int64) int {
		for _, s := range tree {
			if s.Name == "execute" && s.Start <= start && start <= s.End {
				return s.ID
			}
		}
		return -1
	}
	t.stages = map[string]float64{}
	for _, s := range st.Trace {
		fanOut := strings.HasSuffix(s.Name, ".exec") || s.Name == "merge.topk"
		if parent := executeAt(rec.since(s.Start)); fanOut && parent >= 0 {
			add(s.Name, parent, s.Start, s.Dur)
		} else if !engineStages[s.Name] {
			t.stages[s.Name] += us(s.Dur)
		}
	}
	self := selfTimes(tree)
	for i, s := range tree {
		d := float64(s.End-s.Start) / 1e3
		switch {
		case s.Name == "xrank.search":
			t.searchUS, t.searchSelfUS = d, float64(self[i])/1e3
		case s.Name == "tokenize":
			t.tokenizeUS += d
		case s.Name == "materialize":
			t.materializeUS += d
		case s.Name == "execute":
			t.executeSelfUS += float64(self[i]) / 1e3
			t.shardsUS += d - float64(self[i])/1e3
		case s.Name == "merge.topk":
			t.mergeUS += d
			t.shardsUS -= d
		default:
			t.stages[s.Name] += d // shardNN.exec: shown, not summed
		}
	}
	t.spans = append(t.spans, tree...)
	return st, nil
}

// spanSink collects the spans a direct query-layer call records through its
// ExecContext.
type spanSink struct {
	mu    sync.Mutex
	spans map[string]time.Duration
}

func (s *spanSink) RecordSpan(name string, _ time.Time, d time.Duration) {
	s.mu.Lock()
	s.spans[name] += d
	s.mu.Unlock()
}

// timeN times fn over n back-to-back calls and returns nanoseconds per
// call: the probed functions run in well under a microsecond, below what
// one clock read resolves.
func timeN(n int, fn func()) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(time.Since(t0)) / float64(n)
}

// layerProbes are the traced run's direct calls into the layers under the
// engine, made against a second, read-only open of the index directory.
type layerProbes struct {
	execUS, mergeNS, skew, tokenizeNS, keyNS []float64
	scanNS                                   float64
	postings                                 int64
}

func probeLayers(dir string, reqs []*tracedReq, budget time.Duration) (*layerProbes, error) {
	sh, err := index.OpenSharded(dir, index.OpenOptions{})
	if err != nil {
		return nil, fmt.Errorf("second open of %s: %w", dir, err)
	}
	defer sh.Close()
	p := &layerProbes{}
	opts := query.DefaultOptions()
	opts.TopM = topM
	cm := storage.DefaultCostModel()
	terms := map[string]bool{}
	deadline := time.Now().Add(budget)
	for _, t := range reqs {
		if time.Now().After(deadline) {
			break
		}
		var toks []string
		p.tokenizeNS = append(p.tokenizeNS, timeN(16, func() { toks = text.Tokenize(t.q) }))
		spec := cache.Spec{Terms: toks, Algo: "HDIL", TopM: topM, Decay: opts.Decay, Proximity: true}
		p.keyNS = append(p.keyNS, timeN(16, func() { _ = spec.Key() }))
		for _, tok := range toks {
			terms[tok] = true
		}

		sink := &spanSink{spans: map[string]time.Duration{}}
		o := opts
		o.Exec = storage.NewExecContext(context.Background())
		o.Exec.SetSpanRecorder(sink)
		t0 := time.Now()
		if _, _, err := query.HDILSharded(sh, toks, o, 0, cm); err != nil {
			return nil, fmt.Errorf("%q: HDILSharded: %w", t.q, err)
		}
		p.execUS = append(p.execUS, us(time.Since(t0)))
		var slowest, sum time.Duration
		var n int
		for name, d := range sink.spans {
			if strings.HasSuffix(name, ".exec") {
				slowest, sum, n = max(slowest, d), sum+d, n+1
			}
		}
		if n > 1 && sum > 0 {
			p.skew = append(p.skew, float64(slowest)*float64(n)/float64(sum))
		}

		perShard := make([][]query.Result, sh.NumShards())
		for s, ix := range sh.Shards() {
			if perShard[s], _, err = query.HDIL(ix, toks, opts, cm); err != nil {
				return nil, fmt.Errorf("%q: HDIL on shard %d: %w", t.q, s, err)
			}
		}
		p.mergeNS = append(p.mergeNS, timeN(16, func() { query.MergeTopM(perShard, topM) }))
	}

	// One sequential scan of every term the sample asked for: the cost of
	// the DIL fall-back per posting (page fetch, block decode, Dewey decode).
	var scan time.Duration
	for term := range terms {
		for _, ix := range sh.Shards() {
			ec := storage.NewExecContext(context.Background())
			t0 := time.Now()
			cur, ok := ix.DILCursorExec(ec, term)
			if !ok {
				continue
			}
			for {
				_, more, err := cur.Next()
				if err != nil {
					cur.Close()
					return nil, fmt.Errorf("scan %s: %w", term, err)
				}
				if !more {
					break
				}
				p.postings++
			}
			cur.Close()
			scan += time.Since(t0)
		}
	}
	if p.postings > 0 {
		p.scanNS = float64(scan) / float64(p.postings)
	}
	return p, nil
}

// parseSample is how many corpus documents parseRate parses.
const parseSample = 8

// parseRate times xmldoc.ParseXML over the first parseSample documents.
func parseRate(docs []doc) (mbPerS float64, err error) {
	var bytes int
	t0 := time.Now()
	for _, d := range docs[:min(len(docs), parseSample)] {
		if _, err := xmldoc.ParseXML(0, d.name, strings.NewReader(d.xml), nil); err != nil {
			return 0, err
		}
		bytes += len(d.xml)
	}
	return float64(bytes) / 1e6 / time.Since(t0).Seconds(), nil
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// traced is the separate per-layer run: an untraced window for the
// reference p50, a traced window that records client and handler spans, a
// single-threaded replay of a sample of its requests by direct calls, and
// the layer probes. It prints one budget table per workload (two with a
// writer) and returns the per-layer metrics.
func traced(w *workload, sz sizes, seed int64, seconds float64, workDir, spansPath string) (*result, error) {
	share := func(f float64) time.Duration { return time.Duration(f * seconds * float64(time.Second)) }
	rec := newRecorder()
	in, err := setUp(w, sz, seed, workDir, rec.middleware)
	if err != nil {
		return nil, err
	}
	defer in.close()
	var probe *writeProbe
	if w.writer {
		if probe, err = newWriteProbe(in.docs); err != nil {
			return nil, err
		}
	} else if err := in.checkReference(); err != nil {
		return nil, fmt.Errorf("reference check: %w", err)
	}
	res := newResult(w, seed, seconds, true)

	plainWin, plainWS := in.runBoth(share(0.25), "plain", nil, 0, nil)
	cache0 := in.e.CacheStats()
	tracedWin, ws := in.runBoth(share(0.4), "traced", rec, plainWS.batches, probe)
	cache1 := in.e.CacheStats()
	res.add(plainWin.tally, tracedWin.tally, plainWS.tally, ws.tally)
	reqs := rec.join()
	if len(reqs) == 0 {
		return nil, fmt.Errorf("the traced window recorded no request (first failure: %s)", tracedWin.Error)
	}
	res.layer("trace.overhead_share", tracedWin.timing().p50ms/plainWin.timing().p50ms-1, int64(len(reqs)))
	res.liveLayers(reqs, cache0, cache1)

	// Replay before anything else changes the engine's state; the query and
	// index layers are then probed on a second open of the directory, for
	// which a writer's segments are first merged into one.
	replayed, err := res.replay(in.e, rec, reqs, sz.replay, share(0.15))
	if err != nil {
		return nil, err
	}
	if w.writer {
		if _, err := in.e.CompactOnce(0); err != nil {
			return nil, fmt.Errorf("final compaction: %w", err)
		}
	}
	lp, err := probeLayers(filepath.Join(in.dir, in.e.Segments()[0].Dir), replayed, share(0.15))
	if err != nil {
		return nil, err
	}
	res.layer("text.tokenize_ns", median(lp.tokenizeNS), int64(len(lp.tokenizeNS)))
	res.layer("cache.key_ns", median(lp.keyNS), int64(len(lp.keyNS)))
	res.layer("query.exec_us", median(lp.execUS), int64(len(lp.execUS)))
	res.layer("query.merge_topk_ns", median(lp.mergeNS), int64(len(lp.mergeNS)))
	res.layer("query.shard_skew", mean(lp.skew), int64(len(lp.skew)))
	res.layer("index.scan_ns_per_posting", lp.scanNS, lp.postings)

	xml := in.xmlBytes + plainWS.xmlBytes + ws.xmlBytes
	res.layer("index.build_ms", ms(in.info.IndexBuildTime), 1)
	res.layer("storage.write_bytes_per_xml_byte", float64(in.e.IOStats().Writes)*storage.PageSize/float64(xml), xml)
	if err := res.writeLayers(in, ws); err != nil {
		return nil, err
	}

	res.readBudget(reqs, replayed)
	if w.writer && ws.batches > 0 {
		writeBudget(w, ws)
	}
	if spansPath != "" {
		if err := writeSpans(spansPath, reqs); err != nil {
			return nil, err
		}
	}
	if w.writer {
		res.op(in.checkReopen())
	}
	res.layer("failed_share", ratio(int64(res.Failed), int64(res.Attempted)), int64(res.Attempted))
	return res, nil
}

// column applies f to every request.
func column(reqs []*tracedReq, f func(*tracedReq) float64) []float64 {
	out := make([]float64, len(reqs))
	for i, t := range reqs {
		out[i] = f(t)
	}
	return out
}

func transportUS(t *tracedReq) float64   { return t.clientUS - t.handlerUS }
func httpapiSelfUS(t *tracedReq) float64 { return t.handlerUS - t.queueUS - t.execUS }

// liveLayers reports what the traced window itself shows: the transport and
// httpapi spans of every request and the result cache's counters.
func (res *result) liveLayers(reqs []*tracedReq, cache0, cache1 xrank.CacheStats) {
	n := int64(len(reqs))
	res.layer("client.transport_us", median(column(reqs, transportUS)), n)
	res.layer("httpapi.self_us", median(column(reqs, httpapiSelfUS)), n)
	res.layer("httpapi.queue_us", median(column(reqs, func(t *tracedReq) float64 { return t.queueUS })), n)
	res.layer("httpapi.resp_bytes", mean(column(reqs, func(t *tracedReq) float64 { return float64(t.bytes) })), n)
	lookups := (cache1.Hits + cache1.Misses) - (cache0.Hits + cache0.Misses)
	res.layer("cache.lookups", float64(lookups), lookups)
	res.layer("cache.hit_ratio", ratio(cache1.Hits-cache0.Hits, lookups), lookups)
	res.layer("cache.stale_share", ratio(cache1.Stale-cache0.Stale, lookups), lookups)
	res.layer("cache.evictions", float64(cache1.Evictions-cache0.Evictions), lookups)
}

// replay runs an evenly spaced sample of at most n traced requests again by
// direct SearchContext calls, on this goroutine alone and for at most
// budget, and reports what QueryStats says of them.
func (res *result) replay(e *xrank.Engine, rec *recorder, reqs []*tracedReq, n int, budget time.Duration) ([]*tracedReq, error) {
	var (
		replayed []*tracedReq
		io       storage.Stats
		switched int64
	)
	deadline := time.Now().Add(budget)
	for i := 0; i < len(reqs) && len(replayed) < n && time.Now().Before(deadline); i += max(len(reqs)/n, 1) {
		st, err := replayEngine(e, reqs[i], rec)
		if err != nil {
			return nil, fmt.Errorf("replay %q: %w", reqs[i].q, err)
		}
		io.Add(st.IO)
		if st.SwitchedToDIL {
			switched++
		}
		replayed = append(replayed, reqs[i])
	}
	got := int64(len(replayed))
	res.layer("xrank.search_us", median(column(replayed, func(t *tracedReq) float64 { return t.searchUS })), got)
	res.layer("xrank.self_us", median(column(replayed, func(t *tracedReq) float64 { return t.searchSelfUS })), got)
	res.layer("xrank.materialize_us", median(column(replayed, func(t *tracedReq) float64 { return t.materializeUS })), got)
	res.layer("query.switch_share", ratio(switched, got), got)
	res.layer("index.blocks_decoded_per_q", ratio(io.BlocksDecoded, got), got)
	res.layer("index.blocks_skipped_per_q", ratio(io.BlocksSkipped, got), got)
	res.layer("storage.page_reads_per_q", ratio(io.Reads, got), got)
	res.layer("storage.pool_hit_ratio", ratio(io.CacheHits, io.CacheHits+io.Reads), io.CacheHits+io.Reads)
	return replayed, nil
}

// writeLayers reports the write side: the writer's own timings and probes
// where there is one, what Build returned and a parse of the corpus where
// there is none (the loop's metrics then read zero: no such work was done).
func (res *result) writeLayers(in *instance, ws *writeStats) error {
	if !in.w.writer {
		for _, name := range []string{"xrank.adddocs_ms", "xrank.compact_ms", "xrank.compact_share", "xrank.segments_mean", "xrank.ingest_docs_per_s"} {
			res.layer(name, 0, 0)
		}
		rate, err := parseRate(in.docs)
		res.layer("xmldoc.parse_mb_per_s", rate, int64(min(len(in.docs), parseSample)))
		res.layer("elemrank.compute_ms", ms(in.info.ElemRankTime), 1)
		res.layer("elemrank.iterations", float64(in.info.ElemRankIterations), 1)
		return err
	}
	batches, compactions := int64(ws.batches), int64(len(ws.compactMS))
	res.layer("xrank.adddocs_ms", median(ws.addMS), batches)
	res.layer("xrank.compact_ms", median(ws.compactMS), compactions)
	res.layer("xrank.compact_share", ratio(int64(ws.compTotal), int64(ws.busy)), compactions)
	res.layer("xrank.segments_mean", mean(ws.segments), batches)
	res.layer("xrank.ingest_docs_per_s", float64(ws.docs)/ws.elapsed.Seconds(), int64(ws.docs))
	res.layer("xmldoc.parse_mb_per_s", float64(ws.parseBytes)/1e6/ws.parseTotal.Seconds(), ws.parseBytes)
	res.layer("elemrank.compute_ms", median(ws.rankMS), batches)
	res.layer("elemrank.iterations", median(ws.rankIters), batches)
	return nil
}

// readBudget prints the latency budget of a read. Its rows are means over
// one set of requests — the replayed ones whose live latency lies in the
// traced window's 35th–65th percentile band — so they add up, and to about the
// median. The one row that joins the two populations is named for what it
// is: what the engine took live, under two callers, beyond what the same
// query took replayed alone.
func (res *result) readBudget(reqs, replayed []*tracedReq) {
	lats := column(reqs, func(t *tracedReq) float64 { return t.clientUS })
	sort.Float64s(lats)
	lo, hi := percentile(lats, 35), percentile(lats, 65)
	var band []*tracedReq
	for _, t := range replayed {
		if t.clientUS >= lo && t.clientUS <= hi {
			band = append(band, t)
		}
	}
	if len(band) == 0 {
		band = replayed
	}
	row := func(name string, f func(*tracedReq) float64) budgetLine {
		return budgetLine{name: name, us: mean(column(band, f))}
	}
	lines := []budgetLine{
		row("transport (client - handler)", transportUS),
		row("httpapi (handler - queue - exec)", httpapiSelfUS),
		row("httpapi queue", func(t *tracedReq) float64 { return t.queueUS }),
		row("xrank under 2 callers (live exec - replay)", func(t *tracedReq) float64 { return t.execUS - t.searchUS }),
		row("xrank self (replay)", func(t *tracedReq) float64 { return t.searchSelfUS }),
		row("  tokenize", func(t *tracedReq) float64 { return t.tokenizeUS }),
		row("  execute self", func(t *tracedReq) float64 { return t.executeSelfUS }),
		row("  shards (union of shardNN.exec)", func(t *tracedReq) float64 { return t.shardsUS }),
		row("  merge.topk", func(t *tracedReq) float64 { return t.mergeUS }),
		row("  materialize", func(t *tracedReq) float64 { return t.materializeUS }),
	}
	stages := map[string]bool{}
	for _, t := range band {
		for name := range t.stages {
			stages[name] = true
		}
	}
	names := make([]string, 0, len(stages))
	for name := range stages {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		l := row("    "+name, func(t *tracedReq) float64 { return t.stages[name] })
		l.info = true
		lines = append(lines, l)
	}
	med := percentile(lats, 50)
	rest, share := unattributed(lines, med)
	res.layer("trace.unattributed_share", share, int64(len(band)))
	printBudget(res.Workload+" read budget, us per request",
		fmt.Sprintf("traced client median (n=%d, band n=%d)", len(reqs), len(band)), med, lines, rest, share)
}

// writeBudget prints where the writer's time per batch went. Parse and
// ElemRank are the probe's repeat of those steps, the rest of AddDocs what
// remains of the engine's own call.
func writeBudget(w *workload, ws *writeStats) {
	per := func(d time.Duration) float64 { return us(d) / float64(ws.batches) }
	lines := []budgetLine{
		{name: "xmldoc parse (probe)", us: per(ws.parseTotal)},
		{name: "elemrank BuildGraph+Compute (probe)", us: per(ws.rankTotal)},
		{name: "rest of AddDocs", us: per(ws.addTotal - ws.parseTotal - ws.rankTotal)},
		{name: "CompactOnce, spread over batches", us: per(ws.compTotal)},
		{name: "DeleteDoc", us: per(ws.busy - ws.addTotal - ws.compTotal)},
	}
	cycle := per(ws.elapsed)
	rest, share := unattributed(lines, cycle)
	printBudget(w.name+" write budget, us per batch", fmt.Sprintf("writer time per batch (n=%d)", ws.batches), cycle, lines, rest, share)
}

func printBudget(title, total string, totalUS float64, lines []budgetLine, rest, share float64) {
	fmt.Printf("\n%s\n", title)
	for _, l := range lines {
		note := ""
		if l.info {
			note = "  (not summed)"
		}
		fmt.Printf("  %-46s %12.1f%s\n", l.name, l.us, note)
	}
	fmt.Printf("  %-46s %12.1f  (%.1f%% of the total)\n", "unattributed", rest, 100*share)
	verdict := "adds up"
	if share > budgetTolerance || share < -budgetTolerance {
		verdict = "DOES NOT ADD UP"
	}
	fmt.Printf("  %-46s %12.1f  %s within %.0f%%\n", total, totalUS, verdict, 100*budgetTolerance)
}

// writeSpans writes every recorded span, one JSON object per line.
func writeSpans(path string, reqs []*tracedReq) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, t := range reqs {
		for _, s := range t.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	return f.Close()
}
