package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"time"

	"xrank"
	"xrank/internal/elemrank"
	"xrank/internal/xmldoc"
)

// writeStats is what ingest.mixed's writer did during one window.
type writeStats struct {
	batches, docs int
	xmlBytes      int64
	// elapsed runs from the window start to the end of the writer's last
	// completed batch (compaction included): the denominator of the ingest
	// rate. busy is the time inside AddDocs, DeleteDoc and CompactOnce.
	elapsed, busy       time.Duration
	addMS, compactMS    []float64
	addTotal, compTotal time.Duration
	segments            []float64 // live segments after each batch
	tally

	// Probe results, traced run only.
	parseBytes int64
	parseTotal time.Duration
	rankMS     []float64
	rankIters  []float64
	rankTotal  time.Duration
}

// writeProbe repeats, outside the engine, the two steps of AddDocs the
// engine does not time on its own: parsing the batch and recomputing
// ElemRank over the whole grown collection. It keeps a collection of its
// own in step with the engine's.
type writeProbe struct{ col *xmldoc.Collection }

func newWriteProbe(base []doc) (*writeProbe, error) {
	p := &writeProbe{col: xmldoc.NewCollection()}
	for _, d := range base {
		if _, err := p.col.AddXML(d.name, strings.NewReader(d.xml), nil); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func (p *writeProbe) batch(docs []doc, ws *writeStats) error {
	for _, d := range docs {
		t0 := time.Now()
		if _, err := xmldoc.ParseXML(0, d.name, strings.NewReader(d.xml), nil); err != nil {
			return err
		}
		ws.parseTotal += time.Since(t0)
		ws.parseBytes += int64(len(d.xml))
		if _, err := p.col.AddXMLVersion(d.name, strings.NewReader(d.xml), nil); err != nil {
			return err
		}
	}
	t0 := time.Now()
	g, _ := elemrank.BuildGraph(p.col)
	res, err := elemrank.Compute(g, elemrank.DefaultParams())
	if err != nil {
		return err
	}
	d := time.Since(t0)
	ws.rankTotal += d
	ws.rankMS = append(ws.rankMS, ms(d))
	ws.rankIters = append(ws.rankIters, float64(res.Iterations))
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// runWriter loops AddDocs over generated batches until stop closes, deletes
// one earlier addition every deleteEvery-th batch and compacts, on this
// goroutine, whenever more than maxSegments segments are live. firstBatch
// continues the numbering when a run has more than one window.
func (in *instance) runWriter(stop <-chan struct{}, firstBatch int, probe *writeProbe) *writeStats {
	ws := &writeStats{}
	r := rand.New(rand.NewSource(subSeed(in.seed, fmt.Sprintf("writer/%d", firstBatch))))
	start := time.Now()
	for b := firstBatch; ; b++ {
		select {
		case <-stop:
			return ws
		default:
		}
		docs := batch(in.sz, in.seed, b)
		add := make(map[string]io.Reader, len(docs))
		var bytes int64
		for _, d := range docs {
			add[d.name] = strings.NewReader(d.xml)
			bytes += int64(len(d.xml))
		}
		t0 := time.Now()
		ok := ws.op(in.e.AddDocs(add))
		d := time.Since(t0)
		ws.busy += d
		if !ok {
			continue
		}
		ws.addTotal += d
		ws.addMS = append(ws.addMS, ms(d))
		ws.batches++
		ws.docs += len(docs)
		ws.xmlBytes += bytes
		for _, d := range docs {
			in.added = append(in.added, d.name)
			in.live = append(in.live, d.name)
		}
		if probe != nil {
			if err := probe.batch(docs, ws); err != nil {
				ws.op(err)
			}
		}

		if ws.batches%deleteEvery == 0 {
			i := r.Intn(len(in.live) - len(docs)) // an addition of an earlier batch
			name := in.live[i]
			in.live = append(in.live[:i], in.live[i+1:]...)
			t0 := time.Now()
			if ws.op(in.e.DeleteDoc(name)) {
				in.chk.deleted.Store(name, time.Now())
			}
			ws.busy += time.Since(t0)
		}

		ws.segments = append(ws.segments, float64(in.e.SegmentCount()))
		if in.e.SegmentCount() > maxSegments {
			t0 := time.Now()
			_, err := in.e.CompactOnce(0)
			d := time.Since(t0)
			ws.busy += d
			if ws.op(err) {
				ws.compTotal += d
				ws.compactMS = append(ws.compactMS, ms(d))
			}
		}
		ws.elapsed = time.Since(start)
		if probe != nil {
			ws.elapsed -= ws.parseTotal + ws.rankTotal
		}
	}
}

// checkReopen closes the engine, reopens its directory from disk and checks
// that every acknowledged write survived: every added document is there,
// exactly the deleted ones are tombstoned, and a sample of the reader's
// queries returns what the live engine returned, nothing of it from a
// deleted document.
func (in *instance) checkReopen() error {
	deleted := map[string]bool{}
	in.chk.deleted.Range(func(k, _ any) bool { deleted[k.(string)] = true; return true })
	s := newStream(in.w, in.sz, in.seed, "reopen")
	queries := make([]string, in.sz.checkSample)
	live := make([][]xrank.SearchResult, len(queries))
	for i := range queries {
		queries[i] = s.next()
		rs, _, err := in.e.SearchContext(context.Background(), queries[i], xrank.SearchOptions{TopM: topM})
		if err != nil {
			return err
		}
		live[i] = rs
	}
	wantDocs := len(in.docs) + len(in.added)
	if err := in.e.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	in.e = nil

	e, err := xrank.OpenEngine(in.dir)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer e.Close()
	if e.NumDocs() != wantDocs {
		return fmt.Errorf("reopened engine has %d documents, %d were acknowledged", e.NumDocs(), wantDocs)
	}
	got := e.DeletedDocs()
	sort.Strings(got)
	want := make([]string, 0, len(deleted))
	for n := range deleted {
		want = append(want, n)
	}
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) && (len(got) > 0 || len(want) > 0) {
		return fmt.Errorf("reopened engine has %d tombstones, %d deletes were acknowledged", len(got), len(want))
	}
	for i, q := range queries {
		rs, _, err := e.SearchContext(context.Background(), q, xrank.SearchOptions{TopM: topM})
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(rs, live[i]) && (len(rs) > 0 || len(live[i]) > 0) {
			return fmt.Errorf("%q: the reopened engine answers differently from the live one", q)
		}
		for _, r := range rs {
			if deleted[r.Doc] {
				return fmt.Errorf("%q: reopened engine returns deleted document %s", q, r.Doc)
			}
		}
	}
	return nil
}
