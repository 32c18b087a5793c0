package xrank

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"testing"

	"xrank/internal/index"
	"xrank/internal/storage"
)

// Degraded-mode tests: inject device read faults into one shard and
// check that queries retry transient faults, exclude persistently
// failing shards, report the degradation, and honor FailOnDegraded.

// degradedCorpus gives every document the shared term "common" so every
// populated shard participates (and therefore reads) in the test query.
func degradedCorpus(n int) map[string]string {
	docs := make(map[string]string)
	for i := 0; i < n; i++ {
		docs[fmt.Sprintf("doc%d.xml", i)] = fmt.Sprintf(
			`<r><t>common shared term</t><p>unique token%d text</p></r>`, i)
	}
	return docs
}

// buildDegradedEngine builds a sharded engine over ffs and returns it
// plus the shard holding document 0 (guaranteed populated, so failing
// it is guaranteed to degrade the test query).
func buildDegradedEngine(t *testing.T, ffs *storage.FaultFS, shards int) (*Engine, int) {
	t.Helper()
	e := NewEngine(&Config{
		IndexDir: t.TempDir(),
		Shards:   shards,
		FS:       ffs,
	})
	addCorpus(t, e, degradedCorpus(8))
	if _, err := e.Build(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	fail := index.ShardOf(0, shards)
	other := false
	for d := 0; d < 8; d++ {
		if index.ShardOf(uint32(d), shards) != fail {
			other = true
		}
	}
	if !other {
		t.Fatalf("all 8 documents hash to shard %d; the corpus cannot exercise degradation", fail)
	}
	return e, fail
}

// shardPred matches any path inside the given shard's directory.
func shardPred(s int) func(string) bool {
	name := fmt.Sprintf("shard%03d", s)
	return func(path string) bool { return strings.Contains(path, name) }
}

func TestDegradedQueryServing(t *testing.T) {
	ffs := storage.NewFaultFS(nil, 21)
	e, fail := buildDegradedEngine(t, ffs, 3)

	full, stats, err := e.SearchDetailed("common", SearchOptions{Algorithm: AlgoDIL})
	if err != nil || stats.Degraded || len(full) == 0 {
		t.Fatalf("healthy query: %d results, degraded=%v, err=%v", len(full), stats.Degraded, err)
	}

	// Permanently fail every device read inside one shard.
	ffs.FailReads(shardPred(fail), storage.ErrInjected, -1)
	if err := e.ColdCache(); err != nil {
		t.Fatal(err)
	}

	res, stats, err := e.SearchDetailed("common", SearchOptions{Algorithm: AlgoDIL})
	if err != nil {
		t.Fatalf("degraded query failed outright: %v", err)
	}
	if !stats.Degraded || len(stats.FailedShards) != 1 || stats.FailedShards[0] != fail {
		t.Fatalf("degraded=%v failed=%v, want degraded over shard %d", stats.Degraded, stats.FailedShards, fail)
	}
	if stats.Retries == 0 {
		t.Fatal("a transiently-modeled fault was never retried")
	}
	if len(res) == 0 {
		t.Fatal("degraded query returned no results from the healthy shards")
	}
	// Shard-invariant scoring: every degraded result must appear in the
	// full result set with a bit-identical score.
	fullScores := make(map[string]float64, len(full))
	for _, r := range full {
		fullScores[r.DeweyID] = r.Score
	}
	for _, r := range res {
		if s, ok := fullScores[r.DeweyID]; !ok || s != r.Score {
			t.Fatalf("degraded result %s score %v not in the healthy top-k (%v)", r.DeweyID, r.Score, s)
		}
	}

	// Default threshold is 3 consecutive post-retry failures: two more
	// degraded queries mark the shard unhealthy.
	for i := 0; i < 2; i++ {
		if _, _, err := e.SearchDetailed("common", SearchOptions{Algorithm: AlgoDIL}); err != nil {
			t.Fatal(err)
		}
	}
	h := e.ShardHealth()
	if h == nil || h[fail].Healthy || h[fail].Failures < 3 {
		t.Fatalf("after 3 failures: health[%d] = %+v, want unhealthy", fail, h[fail])
	}
	for s, sh := range h {
		if s != fail && !sh.Healthy {
			t.Fatalf("healthy shard %d got marked unhealthy: %+v", s, sh)
		}
	}

	// An unhealthy shard is skipped up front: the query stays degraded
	// but spends no retries on the dead device.
	_, stats, err = e.SearchDetailed("common", SearchOptions{Algorithm: AlgoDIL})
	if err != nil || !stats.Degraded {
		t.Fatalf("post-unhealthy query: degraded=%v err=%v", stats != nil && stats.Degraded, err)
	}
	if stats.Retries != 0 {
		t.Fatalf("skipped shard still consumed %d retries", stats.Retries)
	}

	// Strict mode: FailOnDegraded turns the partial answer into an error.
	e.SetFailOnDegraded(true)
	if _, _, err := e.SearchDetailed("common", SearchOptions{Algorithm: AlgoDIL}); !errors.Is(err, ErrDegraded) {
		t.Fatalf("FailOnDegraded: %v, want ErrDegraded", err)
	}
	e.SetFailOnDegraded(false)

	// Operator recovery: clear the faults, reset health, full service.
	ffs.FailReads(nil, nil, 0)
	e.ResetShardHealth()
	res, stats, err = e.SearchDetailed("common", SearchOptions{Algorithm: AlgoDIL})
	if err != nil || stats.Degraded {
		t.Fatalf("after recovery: degraded=%v err=%v", stats != nil && stats.Degraded, err)
	}
	if len(res) != len(full) {
		t.Fatalf("after recovery: %d results, want %d", len(res), len(full))
	}
}

// TestTransientFaultRetried: a fault that clears within the retry
// budget must not degrade the query at all.
func TestTransientFaultRetried(t *testing.T) {
	ffs := storage.NewFaultFS(nil, 22)
	e, fail := buildDegradedEngine(t, ffs, 3)

	full, _, err := e.SearchDetailed("common", SearchOptions{Algorithm: AlgoDIL})
	if err != nil {
		t.Fatal(err)
	}
	ffs.FailReads(shardPred(fail), storage.ErrInjected, 1) // exactly one read fails
	if err := e.ColdCache(); err != nil {
		t.Fatal(err)
	}
	res, stats, err := e.SearchDetailed("common", SearchOptions{Algorithm: AlgoDIL})
	if err != nil {
		t.Fatalf("query with one transient fault: %v", err)
	}
	if stats.Degraded {
		t.Fatalf("transient fault degraded the query: %+v", stats.FailedShards)
	}
	if stats.Retries == 0 {
		t.Fatal("the transient fault was absorbed without a recorded retry")
	}
	if len(res) != len(full) {
		t.Fatalf("%d results after retry, want %d", len(res), len(full))
	}
	if h := e.ShardHealth(); !h[fail].Healthy || h[fail].Failures != 0 {
		t.Fatalf("a recovered shard kept failure state: %+v", h[fail])
	}
}

// TestFlatIndexFaultIsFatal: a single-shard index has nothing to
// degrade to — device faults surface as errors (after retries), with
// health recorded for observability.
func TestFlatIndexFaultIsFatal(t *testing.T) {
	ffs := storage.NewFaultFS(nil, 23)
	e := NewEngine(&Config{
		IndexDir: t.TempDir(),
		FS:       ffs,
	})
	addCorpus(t, e, degradedCorpus(4))
	if _, err := e.Build(); err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	ffs.FailReads(nil, storage.ErrInjected, -1)
	if err := e.ColdCache(); err != nil {
		t.Fatal(err)
	}
	_, _, err := e.SearchDetailed("common", SearchOptions{Algorithm: AlgoDIL})
	if err == nil {
		t.Fatal("flat-index device fault was swallowed")
	}
	if !errors.Is(err, storage.ErrIO) {
		t.Fatalf("flat-index fault: %v, want an ErrIO-classified device error", err)
	}
	if h := e.ShardHealth(); len(h) != 1 || h[0].Failures == 0 {
		t.Fatalf("flat shard health not recorded: %+v", h)
	}
}

// TestDeltaSegmentFaultInShardHealth: health is tracked per segment, and
// ShardHealth reports a shard as its worst segment — a device fault under
// a delta segment's shard directory must surface, not hide behind the
// healthy first segment.
func TestDeltaSegmentFaultInShardHealth(t *testing.T) {
	ffs := storage.NewFaultFS(nil, 24)
	e, _ := buildDegradedEngine(t, ffs, 3)
	batch := make(map[string]io.Reader)
	for n, doc := range degradedCorpus(12) {
		if n >= "doc8.xml" { // doc8, doc9: names the base corpus lacks
			batch[n] = strings.NewReader(doc)
		}
	}
	if err := e.AddDocs(batch); err != nil {
		t.Fatal(err)
	}
	segs := e.Segments()
	if len(segs) != 2 {
		t.Fatalf("%d segments after AddDocs, want 2", len(segs))
	}
	fail := index.ShardOf(8, 3) // the batch's first document
	inDelta := shardPred(fail)
	ffs.FailReads(func(path string) bool {
		return strings.Contains(path, segs[1].Dir) && inDelta(path)
	}, storage.ErrInjected, -1)
	if err := e.ColdCache(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // the default failure threshold
		if _, stats, err := e.SearchDetailed("common", SearchOptions{Algorithm: AlgoDIL}); err != nil || !stats.Degraded {
			t.Fatalf("query %d: degraded=%v err=%v", i, stats != nil && stats.Degraded, err)
		}
	}
	h := e.ShardHealth()
	if len(h) != 3 || h[fail].Healthy || h[fail].Failures < 3 {
		t.Fatalf("delta-segment fault invisible in ShardHealth: %+v", h)
	}
	e.ResetShardHealth()
	if h := e.ShardHealth(); !h[fail].Healthy || h[fail].Failures != 0 {
		t.Fatalf("ResetShardHealth left the delta segment's shard marked: %+v", h[fail])
	}
}

// TestShardHealthDuringCompaction (run with -race) polls the shard
// health and I/O accessors while AddDocs and CompactOnce keep swapping
// the segment set under them.
func TestShardHealthDuringCompaction(t *testing.T) {
	e, _ := buildDegradedEngine(t, storage.NewFaultFS(nil, 25), 2)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if h := e.ShardHealth(); len(h) != 2 {
				t.Errorf("ShardHealth has %d shards, want 2", len(h))
				return
			}
			e.ResetShardHealth()
			e.ShardIOStats()
		}
	}()
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("extra%d.xml", i)
		if err := e.AddDoc(name, strings.NewReader(degradedCorpus(1)["doc0.xml"])); err != nil {
			t.Fatal(err)
		}
		if _, err := e.CompactOnce(0); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestSegmentWideFaultServedDegraded: when every shard of a delta
// segment fails, the query is still served from the base segment's
// partitions. FailedShards lists every shard, and every returned result
// carries its healthy score bit for bit.
func TestSegmentWideFaultServedDegraded(t *testing.T) {
	const shards = 3
	ffs := storage.NewFaultFS(nil, 26)
	e, _ := buildDegradedEngine(t, ffs, shards)
	batch := make(map[string]io.Reader)
	wantFailed := map[int]bool{}
	for d := 8; d < 14; d++ {
		name := fmt.Sprintf("doc%d.xml", d)
		batch[name] = strings.NewReader(degradedCorpus(14)[name])
		wantFailed[index.ShardOf(uint32(d), shards)] = true
	}
	if len(wantFailed) != shards {
		t.Fatalf("the delta's documents populate shards %v; every shard must hold one", wantFailed)
	}
	if err := e.AddDocs(batch); err != nil {
		t.Fatal(err)
	}
	segs := e.Segments()
	if len(segs) != 2 {
		t.Fatalf("%d segments after AddDocs, want 2", len(segs))
	}
	opts := SearchOptions{TopM: 20, Algorithm: AlgoDIL}
	full, stats, err := e.SearchDetailed("common", opts)
	if err != nil || stats.Degraded || len(full) != 14 {
		t.Fatalf("healthy query: %d results, degraded=%v, err=%v", len(full), stats != nil && stats.Degraded, err)
	}

	ffs.FailReads(func(path string) bool { return strings.Contains(path, segs[1].Dir) }, storage.ErrInjected, -1)
	if err := e.ColdCache(); err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algorithm{AlgoDIL, AlgoRDIL, AlgoHDIL} {
		opts.Algorithm = algo
		res, stats, err := e.SearchDetailed("common", opts)
		if err != nil {
			t.Fatalf("%v: a failed delta segment failed the query: %v", algo, err)
		}
		if !stats.Degraded || len(stats.FailedShards) != len(wantFailed) {
			t.Fatalf("%v: degraded=%v failed=%v, want degraded over shards %v", algo, stats.Degraded, stats.FailedShards, wantFailed)
		}
		for _, s := range stats.FailedShards {
			if !wantFailed[s] {
				t.Fatalf("%v: failed shards %v, want %v", algo, stats.FailedShards, wantFailed)
			}
		}
		if len(res) != 8 {
			t.Fatalf("%v: %d results, want the base segment's 8", algo, len(res))
		}
		fullScores := make(map[string]float64, len(full))
		for _, r := range full {
			fullScores[r.DeweyID] = r.Score
		}
		for _, r := range res {
			if s, ok := fullScores[r.DeweyID]; !ok || math.Float64bits(s) != math.Float64bits(r.Score) {
				t.Fatalf("%v: degraded result %s score %v, healthy score %v", algo, r.DeweyID, r.Score, s)
			}
		}
	}
}
