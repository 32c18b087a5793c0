package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"xrank"
)

// client is one closed-loop caller: its own connection, its own request
// stream, and the next request only after the previous reply is read.
type client struct {
	in     *instance
	stream *stream
	prefix string // the request URL up to the query
	hc     *http.Client
	tr     *http.Transport
	buf    bytes.Buffer
	rec    *recorder // non-nil in the traced window only
}

func newClient(in *instance, tag string, rec *recorder) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1}
	return &client{
		in:     in,
		stream: newStream(in.w, in.sz, in.seed, tag),
		prefix: in.url + "/api/search?m=" + strconv.Itoa(topM) + "&q=",
		hc:     &http.Client{Transport: tr},
		tr:     tr,
		rec:    rec,
	}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// reply is what one request returned. body aliases the client's buffer and
// is valid until the next do.
type reply struct {
	start  time.Time
	lat    time.Duration // request written → body fully read
	status int
	timing string // the Server-Timing header
	body   []byte
	id     uint64 // request id (traced window only)
}

const requestIDHeader = "X-Request-Id"

func (c *client) do(q string) (reply, error) {
	req, err := http.NewRequest(http.MethodGet, c.prefix+url.QueryEscape(q), nil)
	if err != nil {
		return reply{}, err
	}
	var rp reply
	if c.rec != nil {
		rp.id = c.rec.next.Add(1)
		req.Header.Set(requestIDHeader, strconv.FormatUint(rp.id, 10))
	}
	rp.start = time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return rp, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	rp.lat = time.Since(rp.start)
	if err != nil {
		return rp, err
	}
	rp.status, rp.timing, rp.body = resp.StatusCode, resp.Header.Get("Server-Timing"), c.buf.Bytes()
	return rp, nil
}

// searchReply is the part of /api/search's JSON the checks read.
type searchReply struct {
	Results []struct {
		DeweyID string
		Score   float64
		Doc     string
	} `json:"results"`
}

// canonical orders a query's terms, so permutations of one keyword set
// share one expected result count.
func canonical(q string) string {
	terms := strings.Fields(q)
	sort.Strings(terms)
	return strings.Join(terms, " ")
}

// checker holds what a reply is checked against.
type checker struct {
	// expect maps a canonical query to its result count: set by the
	// reference check or by the first reply seen, and every later reply to
	// the same keyword set must match. Unused while a writer changes the
	// collection under the reads.
	expect sync.Map
	// deleted maps a document name to when its DeleteDoc returned; a
	// request started after that must not see the document.
	deleted sync.Map
}

// check applies the per-reply output checks: 200, parses, at most topM
// results in non-increasing score order, the expected count, and no result
// from a document deleted before the request started.
func (in *instance) check(q string, rp reply) (*searchReply, error) {
	if rp.status != http.StatusOK {
		return nil, fmt.Errorf("%q: status %d: %s", q, rp.status, bytes.TrimSpace(rp.body))
	}
	var sr searchReply
	if err := json.Unmarshal(rp.body, &sr); err != nil {
		return nil, fmt.Errorf("%q: reply does not parse: %w", q, err)
	}
	if len(sr.Results) > topM {
		return nil, fmt.Errorf("%q: %d results for m=%d", q, len(sr.Results), topM)
	}
	for i, r := range sr.Results {
		if i > 0 && r.Score > sr.Results[i-1].Score {
			return nil, fmt.Errorf("%q: score rises at result %d", q, i)
		}
		if at, ok := in.chk.deleted.Load(r.Doc); ok && at.(time.Time).Before(rp.start) {
			return nil, fmt.Errorf("%q: result from deleted document %s", q, r.Doc)
		}
	}
	if !in.w.writer {
		want, _ := in.chk.expect.LoadOrStore(canonical(q), len(sr.Results))
		if want.(int) != len(sr.Results) {
			return nil, fmt.Errorf("%q: %d results, expected %d", q, len(sr.Results), want)
		}
	}
	return &sr, nil
}

// checkReference compares sz.checkSample queries of the workload's own mix,
// asked over HTTP with the default algorithm, against AlgoDIL — the
// exhaustive Dewey-order scan — through Engine.SearchContext: same Dewey
// IDs, same scores, same order.
func (in *instance) checkReference() error {
	cl := newClient(in, "reference", nil)
	defer cl.close()
	for i := 0; i < in.sz.checkSample; i++ {
		q := cl.stream.next()
		rp, err := cl.do(q)
		if err != nil {
			return err
		}
		got, err := in.check(q, rp)
		if err != nil {
			return err
		}
		want, _, err := in.e.SearchContext(context.Background(), q, xrank.SearchOptions{TopM: topM, Algorithm: xrank.AlgoDIL})
		if err != nil {
			return fmt.Errorf("%q: reference scan: %w", q, err)
		}
		if len(got.Results) != len(want) {
			return fmt.Errorf("%q: %d results, the exhaustive scan has %d", q, len(got.Results), len(want))
		}
		for j, r := range got.Results {
			if r.DeweyID != want[j].DeweyID || r.Score != want[j].Score {
				return fmt.Errorf("%q: result %d is %s (%v), the exhaustive scan has %s (%v)",
					q, j, r.DeweyID, r.Score, want[j].DeweyID, want[j].Score)
			}
		}
	}
	return nil
}

// sample is one successful read: when it completed, relative to the window
// start, and how long the caller waited.
type sample struct{ end, lat time.Duration }

// window is what one closed-loop measuring interval saw.
type window struct {
	dur     time.Duration
	samples []sample
	tally
}

// runWindow drives the instance closed-loop with `clients` callers for d and
// checks every reply. tag separates this window's request streams from the
// warm-up's and the other windows'.
func (in *instance) runWindow(d time.Duration, tag string, rec *recorder) *window {
	perClient := make([]window, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w := &perClient[c]
			cl := newClient(in, fmt.Sprintf("%s%d", tag, c), rec)
			defer cl.close()
			for time.Since(start) < d {
				q := cl.stream.next()
				rp, err := cl.do(q)
				if err == nil {
					_, err = in.check(q, rp)
				}
				if !w.op(err) {
					continue
				}
				w.samples = append(w.samples, sample{rp.start.Add(rp.lat).Sub(start), rp.lat})
				if rec != nil {
					rec.client(rp, q)
				}
			}
		}(c)
	}
	wg.Wait()
	out := &window{dur: d}
	for _, w := range perClient {
		out.samples = append(out.samples, w.samples...)
		out.add(w.tally)
	}
	return out
}

// timing summarizes a window. qps and p50ms are the medians over the
// window's slices of each slice's value; p99ms is taken over the whole
// window, which is what gives the tail its ten samples beyond, at pct — the
// percentile actually reported under that name. n is the successful reads.
type timing struct {
	qps, p50ms, p99ms float64
	n                 int
	pct               float64
}

func (w *window) timing() timing {
	per := make([][]float64, slices)
	all := make([]float64, 0, len(w.samples))
	for _, s := range w.samples {
		i := int(s.end * slices / w.dur)
		if i >= slices {
			// A request in flight at the deadline completes after it; it
			// belongs to the last slice.
			i = slices - 1
		}
		per[i] = append(per[i], ms(s.lat))
		all = append(all, ms(s.lat))
	}
	var qps, p50 []float64
	for _, lats := range per {
		sort.Float64s(lats)
		qps = append(qps, float64(len(lats))/(w.dur.Seconds()/slices))
		p50 = append(p50, percentile(lats, 50))
	}
	sort.Float64s(all)
	t := timing{qps: median(qps), p50ms: median(p50), n: len(all), pct: supportedPercentile(len(all), 99)}
	t.p99ms = percentile(all, t.pct)
	return t
}
