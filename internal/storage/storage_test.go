package storage

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func newTestFile(t *testing.T) *PageFile {
	t.Helper()
	pf, err := CreatePageFileFS(nil, filepath.Join(t.TempDir(), "test.pages"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pf.Close() })
	return pf
}

func pageFilled(b byte) []byte {
	p := make([]byte, PageSize)
	for i := range p {
		p[i] = b
	}
	return p
}

func TestPageFileAppendReadWrite(t *testing.T) {
	pf := newTestFile(t)
	id0, err := pf.AppendPage(pageFilled(1))
	if err != nil {
		t.Fatal(err)
	}
	id1, err := pf.AppendPage(pageFilled(2))
	if err != nil {
		t.Fatal(err)
	}
	if id0 != 0 || id1 != 1 || pf.NumPages() != 2 {
		t.Fatalf("ids %d %d, pages %d", id0, id1, pf.NumPages())
	}
	buf := make([]byte, PageSize)
	if err := pf.ReadPageExec(nil, id1, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, pageFilled(2)) {
		t.Errorf("page 1 contents wrong")
	}
	if err := pf.ReadPageExec(nil, id0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, pageFilled(1)) {
		t.Errorf("page 0 contents wrong")
	}
	if pf.Size() != 2*PageSize {
		t.Errorf("Size = %d", pf.Size())
	}
}

func TestPageFileBoundsAndSizes(t *testing.T) {
	pf := newTestFile(t)
	if _, err := pf.AppendPage(make([]byte, 10)); err == nil {
		t.Errorf("short append should fail")
	}
	if err := pf.ReadPageExec(nil, 0, make([]byte, PageSize)); err == nil {
		t.Errorf("read beyond end should fail")
	}
	if _, err := pf.AppendPage(pageFilled(0)); err != nil {
		t.Fatal(err)
	}
	if err := pf.ReadPageExec(nil, 0, make([]byte, 16)); err == nil {
		t.Errorf("short read buffer should fail")
	}
}

func TestPageFileReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.pages")
	pf, err := CreatePageFileFS(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	pf.AppendPage(pageFilled(7))
	pf.AppendPage(pageFilled(8))
	if err := pf.Sync(); err != nil {
		t.Fatal(err)
	}
	pf.Close()

	re, err := OpenPageFileFS(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.NumPages() != 2 {
		t.Fatalf("reopened pages = %d", re.NumPages())
	}
	buf := make([]byte, PageSize)
	if err := re.ReadPageExec(nil, 1, buf); err != nil || buf[0] != 8 {
		t.Errorf("reopened read: %v, byte %d", err, buf[0])
	}
	if _, err := OpenPageFileFS(nil, filepath.Join(dir, "missing")); err == nil {
		t.Errorf("open of missing file should fail")
	}
}

func TestStatsSeqRandClassification(t *testing.T) {
	pf := newTestFile(t)
	for i := 0; i < 5; i++ {
		pf.AppendPage(pageFilled(byte(i)))
	}
	ec := NewExecContext(nil)
	buf := make([]byte, PageSize)
	// 0,1,2 = first random then two sequential; 4 = random; 0 = random.
	for _, id := range []PageID{0, 1, 2, 4, 0} {
		if err := pf.ReadPageExec(ec, id, buf); err != nil {
			t.Fatal(err)
		}
	}
	s := ec.Stats()
	if s.Reads != 5 || s.SeqReads != 2 || s.RandReads != 3 {
		t.Errorf("stats = %+v", s)
	}
}

func TestStatsInterleavedStreamsAreSequential(t *testing.T) {
	// A k-way merge reads k regions in lockstep; per-stream readahead
	// tracking must classify all but the first touch of each region as
	// sequential (this is what keeps the DIL cost model honest).
	pf := newTestFile(t)
	for i := 0; i < 40; i++ {
		pf.AppendPage(pageFilled(byte(i)))
	}
	ec := NewExecContext(nil)
	buf := make([]byte, PageSize)
	for i := 0; i < 10; i++ {
		pf.ReadPageExec(ec, PageID(i), buf)    // stream A: 0,1,2,...
		pf.ReadPageExec(ec, PageID(20+i), buf) // stream B: 20,21,22,...
	}
	s := ec.Stats()
	if s.RandReads != 2 || s.SeqReads != 18 {
		t.Errorf("interleaved streams: %+v, want 2 random + 18 sequential", s)
	}
	// Re-reading the same page (a rescan of a pinned region) is also
	// sequential, not a seek.
	ec = NewExecContext(nil)
	pf.ReadPageExec(ec, 5, buf)
	pf.ReadPageExec(ec, 5, buf)
	if s := ec.Stats(); s.SeqReads != 1 || s.RandReads != 1 {
		t.Errorf("same-page re-read: %+v", s)
	}
}

func TestStatsStreamEviction(t *testing.T) {
	// More concurrent streams than the tracker holds: the oldest stream is
	// forgotten and its next read counts as random again.
	pf := newTestFile(t)
	for i := 0; i < 128; i++ {
		pf.AppendPage(pageFilled(byte(i)))
	}
	ec := NewExecContext(nil)
	buf := make([]byte, PageSize)
	// Open maxStreams+1 streams, then extend the first.
	for s := 0; s <= maxStreams; s++ {
		pf.ReadPageExec(ec, PageID(s*10), buf)
	}
	pf.ReadPageExec(ec, PageID(0*10+1), buf) // stream 0 was evicted
	st := ec.Stats()
	if st.SeqReads != 0 || st.RandReads != int64(maxStreams+2) {
		t.Errorf("eviction: %+v", st)
	}
}

func TestStatsSubAdd(t *testing.T) {
	a := Stats{Reads: 10, SeqReads: 4, RandReads: 6, Writes: 2, CacheHits: 1}
	b := Stats{Reads: 3, SeqReads: 1, RandReads: 2, Writes: 1}
	d := a.Sub(b)
	if d.Reads != 7 || d.SeqReads != 3 || d.RandReads != 4 || d.Writes != 1 || d.CacheHits != 1 {
		t.Errorf("Sub = %+v", d)
	}
	var acc Stats
	acc.Add(a)
	acc.Add(b)
	if acc.Reads != 13 {
		t.Errorf("Add = %+v", acc)
	}
}

func TestCostModel(t *testing.T) {
	m := CostModel{RandRead: 10 * time.Millisecond, SeqRead: time.Millisecond, CacheHit: 0}
	s := Stats{RandReads: 2, SeqReads: 5}
	if got := m.SimulatedTime(s); got != 25*time.Millisecond {
		t.Errorf("SimulatedTime = %v", got)
	}
	// On the paper's disk a scan-heavy workload must be cheaper than an
	// equally sized probe-heavy one, and CPU is free.
	paper := PaperDiskCostModel()
	scan := Stats{SeqReads: 100, RandReads: 1}
	probe := Stats{RandReads: 101}
	if paper.SimulatedTime(scan) >= paper.SimulatedTime(probe) {
		t.Errorf("sequential scan should be cheaper than random probes")
	}
	if paper.Posting != 0 {
		t.Errorf("the paper's disk model charges CPU: Posting = %v", paper.Posting)
	}
	// Served from the page cache there is no seek to pay: the two kinds of
	// read cost the same, and decoding a page's worth of postings costs
	// more than fetching the page.
	def := DefaultCostModel()
	if def.SimulatedTime(scan) != def.SimulatedTime(probe) {
		t.Errorf("serving model prices a seek: scan %v, probe %v", def.SimulatedTime(scan), def.SimulatedTime(probe))
	}
	if got, want := def.SimulatedTime(Stats{Postings: 1000}), 1000*def.Posting; got != want || want == 0 {
		t.Errorf("SimulatedTime of 1000 postings = %v, want %v > 0", got, want)
	}
}

func TestBufferPoolHitAndEvict(t *testing.T) {
	pf := newTestFile(t)
	for i := 0; i < 10; i++ {
		pf.AppendPage(pageFilled(byte(i)))
	}
	ec := NewExecContext(nil)
	bp := NewBufferPool(pf, 2)

	f0, err := bp.GetExec(ec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f0.Data[0] != 0 {
		t.Errorf("frame data wrong")
	}
	f0.Release()
	// Second Get of page 0 must hit.
	f0b, _ := bp.GetExec(ec, 0)
	f0b.Release()
	if h := ec.Stats().CacheHits; h != 1 {
		t.Errorf("hits = %d", h)
	}
	if r := ec.Stats().Reads; r != 1 {
		t.Errorf("device reads = %d, want 1", r)
	}
	// Fill beyond capacity; page 0 (LRU) must be evicted.
	g1, _ := bp.GetExec(ec, 1)
	g1.Release()
	g2, _ := bp.GetExec(ec, 2)
	g2.Release()
	f0c, _ := bp.GetExec(ec, 0)
	f0c.Release()
	if r := ec.Stats().Reads; r != 4 { // 0, 1, 2, 0-again
		t.Errorf("device reads = %d, want 4 (page 0 should have been evicted)", r)
	}
	if h := ec.Stats().CacheHits; h != 1 {
		t.Errorf("cache hits on stats = %d", h)
	}
}

func TestBufferPoolPinPreventsEviction(t *testing.T) {
	pf := newTestFile(t)
	for i := 0; i < 4; i++ {
		pf.AppendPage(pageFilled(byte(i)))
	}
	bp := NewBufferPool(pf, 2)
	a, _ := bp.GetExec(nil, 0) // pinned
	b, _ := bp.GetExec(nil, 1) // pinned
	if _, err := bp.GetExec(nil, 2); err == nil {
		t.Errorf("Get with all frames pinned should fail")
	}
	b.Release()
	c, err := bp.GetExec(nil, 2) // evicts 1, keeps pinned 0
	if err != nil {
		t.Fatal(err)
	}
	if a.Data[0] != 0 || c.Data[0] != 2 {
		t.Errorf("pinned frame corrupted")
	}
	a.Release()
	c.Release()
}

func TestBufferPoolReset(t *testing.T) {
	pf := newTestFile(t)
	pf.AppendPage(pageFilled(1))
	bp := NewBufferPool(pf, 4)
	fr, _ := bp.GetExec(nil, 0)
	if err := bp.Reset(); err == nil {
		t.Errorf("Reset with pinned page should fail")
	}
	fr.Release()
	if err := bp.Reset(); err != nil {
		t.Fatal(err)
	}
	ec := NewExecContext(nil)
	fr2, _ := bp.GetExec(ec, 0)
	fr2.Release()
	if ec.Stats().Reads != 1 {
		t.Errorf("after Reset, Get should reach the device")
	}
}

// TestPoolScanResistance is the replacement policy's contract: a
// sequential scan five times the pool evicts only its own pages, so the
// probe working set is still resident afterwards — while a point access
// to a scanned page promotes it, Reset still empties everything, and a
// fully pinned pool still refuses. The scanner and the prober run
// concurrently so -race covers the shared LRU list.
func TestPoolScanResistance(t *testing.T) {
	const capacity, probeSet = 16, 8
	pf := newTestFile(t)
	for i := 0; i < probeSet+5*capacity; i++ {
		if _, err := pf.AppendPage(pageFilled(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	bp := NewBufferPool(pf, capacity)
	ec := NewExecContext(nil)
	touch := func(get func(*ExecContext, PageID) (*Frame, error), id PageID) {
		t.Helper()
		fr, err := get(ec, id)
		if err != nil {
			t.Fatalf("page %d: %v", id, err)
		}
		if fr.Data[0] != byte(id) {
			t.Errorf("page %d holds %d", id, fr.Data[0])
		}
		fr.Release()
	}
	for id := PageID(0); id < probeSet; id++ {
		touch(bp.GetExec, id)
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // the scan: every page past the probe set, once
		defer wg.Done()
		for id := PageID(probeSet); id < PageID(pf.NumPages()); id++ {
			touch(bp.GetScanExec, id)
		}
	}()
	go func() { // probes keep arriving while the scan runs
		defer wg.Done()
		for i := 0; i < 10*probeSet; i++ {
			touch(bp.GetExec, PageID(i%probeSet))
		}
	}()
	wg.Wait()

	ec = NewExecContext(nil)
	for id := PageID(0); id < probeSet; id++ {
		touch(bp.GetExec, id)
	}
	if st := ec.Stats(); st.Reads != 0 || st.CacheHits != probeSet {
		t.Errorf("after a scan of %d pages through a %d-page pool the %d probe pages cost %d reads, %d hits; want 0 and %d",
			5*capacity, capacity, probeSet, st.Reads, st.CacheHits, probeSet)
	}

	// A point access promotes a scanned page: it then outlives a second scan.
	last := PageID(pf.NumPages() - 1)
	touch(bp.GetExec, last)
	for id := PageID(probeSet); id < last; id++ {
		touch(bp.GetScanExec, id)
	}
	ec = NewExecContext(nil)
	touch(bp.GetExec, last)
	if st := ec.Stats(); st.Reads != 0 {
		t.Errorf("a probed page was evicted by a scan (%d reads)", st.Reads)
	}

	// Reset and the all-pinned error are what they were under plain LRU.
	if err := bp.Reset(); err != nil {
		t.Fatal(err)
	}
	ec = NewExecContext(nil)
	touch(bp.GetExec, 0)
	if st := ec.Stats(); st.Reads != 1 {
		t.Errorf("after Reset page 0 cost %d reads, want 1", st.Reads)
	}
	var pinned []*Frame
	for id := PageID(0); id < capacity; id++ {
		fr, err := bp.GetScanExec(nil, id)
		if err != nil {
			t.Fatal(err)
		}
		pinned = append(pinned, fr)
	}
	if _, err := bp.GetScanExec(nil, capacity); err == nil {
		t.Errorf("Get with every frame pinned should fail")
	}
	if err := bp.Reset(); err == nil {
		t.Errorf("Reset with pinned pages should fail")
	}
	for _, fr := range pinned {
		fr.Release()
	}
}

func TestBufferPoolDoubleReleasePanics(t *testing.T) {
	pf := newTestFile(t)
	pf.AppendPage(pageFilled(1))
	bp := NewBufferPool(pf, 2)
	fr, _ := bp.GetExec(nil, 0)
	fr.Release()
	defer func() {
		if recover() == nil {
			t.Errorf("double release should panic")
		}
	}()
	fr.Release()
}

func TestBufferPoolConcurrentAccess(t *testing.T) {
	pf := newTestFile(t)
	for i := 0; i < 32; i++ {
		pf.AppendPage(pageFilled(byte(i)))
	}
	bp := NewBufferPool(pf, 8)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := PageID((i*7 + w) % 32)
				fr, err := bp.GetExec(nil, id)
				if err != nil {
					t.Errorf("Get(%d): %v", id, err)
					return
				}
				if fr.Data[0] != byte(id) {
					t.Errorf("page %d data corrupted: %d", id, fr.Data[0])
				}
				fr.Release()
			}
		}(w)
	}
	wg.Wait()
}

func TestExecContextAttribution(t *testing.T) {
	pf := newTestFile(t)
	for i := 0; i < 8; i++ {
		if _, err := pf.AppendPage(pageFilled(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	bp := NewBufferPool(pf, 4)

	root := NewExecContext(context.Background())
	ecA, ecB := root.Child(), root.Child()
	// A reads pages 0-3 sequentially (cold), B re-reads 0-1 (hits) and
	// 4-5 (cold). Each context must see only its own traffic.
	for i := 0; i < 4; i++ {
		fr, err := bp.GetExec(ecA, PageID(i))
		if err != nil {
			t.Fatal(err)
		}
		fr.Release()
	}
	for _, id := range []PageID{0, 1, 4, 5} {
		fr, err := bp.GetExec(ecB, id)
		if err != nil {
			t.Fatal(err)
		}
		fr.Release()
	}
	a, b := ecA.Stats(), ecB.Stats()
	if a.Reads != 4 || a.CacheHits != 0 {
		t.Errorf("ecA stats = %+v, want 4 reads, 0 hits", a)
	}
	if a.SeqReads+a.RandReads != a.Reads {
		t.Errorf("ecA seq+rand = %d+%d != reads %d", a.SeqReads, a.RandReads, a.Reads)
	}
	if a.SeqReads < 3 {
		t.Errorf("ecA sequential scan classified as %d seq / %d rand", a.SeqReads, a.RandReads)
	}
	if b.Reads != 2 || b.CacheHits != 2 {
		t.Errorf("ecB stats = %+v, want 2 reads, 2 hits", b)
	}
	// Their parent aggregates both branches.
	g := root.Stats()
	if g.Reads != a.Reads+b.Reads || g.CacheHits != a.CacheHits+b.CacheHits {
		t.Errorf("parent %+v != sum of branches %+v + %+v", g, a, b)
	}
	// A nil ExecContext stays inert.
	var nilEC *ExecContext
	if err := nilEC.Err(); err != nil {
		t.Errorf("nil ExecContext.Err() = %v", err)
	}
	if s := nilEC.Stats(); s.Reads != 0 {
		t.Errorf("nil ExecContext.Stats() = %+v", s)
	}
	fr, err := bp.GetExec(nil, 6)
	if err != nil {
		t.Fatal(err)
	}
	fr.Release()
}

func TestExecContextBudget(t *testing.T) {
	pf := newTestFile(t)
	for i := 0; i < 6; i++ {
		if _, err := pf.AppendPage(pageFilled(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	bp := NewBufferPool(pf, 8)
	ec := NewExecContext(context.Background())
	ec.SetBudget(2)
	for i := 0; i < 2; i++ {
		fr, err := bp.GetExec(ec, PageID(i))
		if err != nil {
			t.Fatalf("read %d within budget: %v", i, err)
		}
		fr.Release()
	}
	// Third device read exceeds the budget.
	if _, err := bp.GetExec(ec, 2); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("over-budget read err = %v, want ErrBudgetExceeded", err)
	}
	// The error is sticky: even a would-be cache hit fails now.
	if _, err := bp.GetExec(ec, 0); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("post-budget cache hit err = %v, want ErrBudgetExceeded", err)
	}
	if err := ec.Err(); !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("Err() = %v, want ErrBudgetExceeded", err)
	}
	if s := ec.Stats(); s.Reads != 2 {
		t.Errorf("budgeted context recorded %d reads, want 2", s.Reads)
	}
	// Other contexts on the same pool are unaffected.
	fr, err := bp.GetExec(NewExecContext(context.Background()), 2)
	if err != nil {
		t.Fatal(err)
	}
	fr.Release()
}

func TestExecContextCancellation(t *testing.T) {
	pf := newTestFile(t)
	if _, err := pf.AppendPage(pageFilled(1)); err != nil {
		t.Fatal(err)
	}
	bp := NewBufferPool(pf, 2)
	// Warm the pool so the cancelled access would be a pure cache hit.
	fr, err := bp.GetExec(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	fr.Release()

	ctx, cancel := context.WithCancel(context.Background())
	ec := NewExecContext(ctx)
	cancel()
	if _, err := bp.GetExec(ec, 0); !errors.Is(err, context.Canceled) {
		t.Errorf("cached read after cancel err = %v, want context.Canceled", err)
	}
	if err := ec.Err(); !errors.Is(err, context.Canceled) {
		t.Errorf("Err() = %v, want context.Canceled", err)
	}

	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	ec2 := NewExecContext(expired)
	if err := pf.ReadPageExec(ec2, 0, make([]byte, PageSize)); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("device read past deadline err = %v, want context.DeadlineExceeded", err)
	}
	if s := ec2.Stats(); s.Reads != 0 {
		t.Errorf("refused read still recorded: %+v", s)
	}
}

// spanSink is a minimal SpanRecorder for tests.
type spanSink struct {
	mu    sync.Mutex
	spans []string
	durs  []time.Duration
}

func (s *spanSink) RecordSpan(name string, _ time.Time, d time.Duration) {
	s.mu.Lock()
	s.spans = append(s.spans, name)
	s.durs = append(s.durs, d)
	s.mu.Unlock()
}

func TestExecContextSpans(t *testing.T) {
	// Without a recorder (or with a nil receiver) StartSpan is a no-op.
	var nilEC *ExecContext
	nilEC.StartSpan("x")()
	ec := NewExecContext(context.Background())
	ec.StartSpan("unrecorded")()

	sink := &spanSink{}
	ec.SetSpanRecorder(sink)
	end := ec.StartSpan("stage")
	time.Sleep(time.Millisecond)
	end()
	// Children share the family's recorder, including ones created
	// before the span starts and ones recording concurrently.
	child := ec.Child()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			child.StartSpan("branch")()
		}()
	}
	wg.Wait()

	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.spans) != 5 || sink.spans[0] != "stage" {
		t.Fatalf("spans = %v", sink.spans)
	}
	if sink.durs[0] < time.Millisecond {
		t.Errorf("stage duration = %v, want >= 1ms", sink.durs[0])
	}
}
