package xrank

import (
	"context"
	"errors"
	"fmt"
	iofs "io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xrank/internal/datagen/dblp"
	"xrank/internal/elemrank"
	"xrank/internal/storage"
)

// readTree reads every file under dir, keyed by its path relative to dir.
func readTree(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d iofs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		files[rel] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// assertNoRanksBlob fails if dir holds a ranks-NNNNNN.bin blob.
func assertNoRanksBlob(t *testing.T, tag, dir string) {
	t.Helper()
	if blobs, _ := filepath.Glob(filepath.Join(dir, "ranks-*.bin")); len(blobs) != 0 {
		t.Fatalf("%s left ranks blobs %v", tag, blobs)
	}
}

// TestAddDocsIncremental pins the core acceptance criterion directly:
// AddDocs must NOT rebuild the full index. Every base-segment file is
// byte-identical after the batch; only a new delta segment, the new
// document-store entries and segments.json appear, and no ranks blob
// ever does: ElemRank is derived, not stored.
func TestAddDocsIncremental(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(7))
	e := NewEngine(&Config{IndexDir: dir, Shards: 2})
	for n := 0; n < 3; n++ {
		if err := e.AddXML(fmt.Sprintf("doc%02d", n), strings.NewReader(diffDoc(rng, n))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Build(); err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	before := readTree(t, dir)
	assertNoRanksBlob(t, "Build", dir)

	if err := e.AddDoc("doc03", strings.NewReader(diffDoc(rng, 3))); err != nil {
		t.Fatal(err)
	}
	after := readTree(t, dir)
	assertNoRanksBlob(t, "AddDocs", dir)
	for rel, content := range before {
		if rel == fileSegments {
			continue // the commit point
		}
		got, ok := after[rel]
		if !ok {
			t.Fatalf("AddDocs removed base file %s", rel)
		}
		if got != content {
			t.Fatalf("AddDocs rewrote base file %s — the full index must not be rebuilt", rel)
		}
	}
	if after[fileSegments] == before[fileSegments] {
		t.Fatal("AddDocs committed no new segments.json")
	}

	if got := e.SegmentCount(); got != 2 {
		t.Fatalf("SegmentCount = %d after one AddDocs, want 2", got)
	}
	if got := e.RankVersion(); got != 1 {
		t.Fatalf("RankVersion = %d after one AddDocs, want 1", got)
	}
	infos := e.Segments()
	if len(infos) != 2 || !infos[0].Stale || infos[1].Stale {
		t.Fatalf("segment staleness wrong: %+v", infos)
	}
	if infos[1].Docs != 1 || infos[1].LiveDocs != 1 {
		t.Fatalf("delta segment doc counts wrong: %+v", infos[1])
	}
	if rs, err := e.Search("uniq3"); err != nil || len(rs) == 0 {
		t.Fatalf("new document not searchable: %d results, %v", len(rs), err)
	}

	// A too-small I/O budget must abort the compaction before the commit
	// point, leaving the engine unchanged and still serving.
	if _, err := e.CompactOnce(1); err == nil {
		t.Fatal("CompactOnce under a 1-page write budget succeeded")
	}
	if got := e.SegmentCount(); got != 2 {
		t.Fatalf("failed compaction changed the segment count to %d", got)
	}
	if rs, err := e.Search("uniq3"); err != nil || len(rs) == 0 {
		t.Fatalf("engine broken after budget-aborted compaction: %d results, %v", len(rs), err)
	}

	cs, err := e.CompactOnce(0)
	if err != nil {
		t.Fatal(err)
	}
	if !cs.Compacted || cs.SegmentsBefore != 2 || cs.SegmentsAfter != 1 || cs.Bytes <= 0 {
		t.Fatalf("unexpected compaction stats: %+v", cs)
	}
	if got := e.SegmentCount(); got != 1 {
		t.Fatalf("SegmentCount = %d after compaction, want 1", got)
	}
	if rs, err := e.Search("uniq3"); err != nil || len(rs) == 0 {
		t.Fatalf("compacted engine lost the new document: %d results, %v", len(rs), err)
	}
	assertNoRanksBlob(t, "CompactOnce", dir)
	if err := e.DeleteDoc("doc00"); err != nil {
		t.Fatal(err)
	}
	assertNoRanksBlob(t, "DeleteDoc", dir)
	// Fully compacted at the current rank version: another call is a no-op.
	cs, err = e.CompactOnce(0)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Compacted {
		t.Fatalf("CompactOnce on a fully compacted engine did work: %+v", cs)
	}
}

// TestIOStatsCountsIndexWrites: every segment build — Build, an AddDocs
// delta, a compaction — advances Engine.IOStats().Writes by the pages it
// wrote, and Build's count accounts for the bytes its manifests record.
func TestIOStatsCountsIndexWrites(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(11))
	e := NewEngine(&Config{IndexDir: dir, Shards: 2})
	for n := 0; n < 3; n++ {
		if err := e.AddXML(fmt.Sprintf("doc%02d", n), strings.NewReader(diffDoc(rng, n))); err != nil {
			t.Fatal(err)
		}
	}
	if w := e.IOStats().Writes; w != 0 {
		t.Fatalf("Writes = %d before Build", w)
	}
	info, err := e.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// The manifests record the page files, every page of which is written
	// once, plus the skip indexes: whole-file writes, each far below a
	// page here.
	total := info.Sizes.IndexBytes()
	built := e.IOStats().Writes
	if built == 0 || built*storage.PageSize > total || built < total/storage.PageSize {
		t.Fatalf("Writes = %d pages after Build, whose manifests record %d bytes", built, total)
	}
	if err := e.AddDoc("doc03", strings.NewReader(diffDoc(rng, 3))); err != nil {
		t.Fatal(err)
	}
	added := e.IOStats().Writes
	if added <= built {
		t.Fatalf("Writes = %d after AddDocs, %d before", added, built)
	}
	if cs, err := e.CompactOnce(0); err != nil || !cs.Compacted {
		t.Fatalf("CompactOnce: %+v, %v", cs, err)
	}
	if compacted := e.IOStats().Writes; compacted <= added {
		t.Fatalf("Writes = %d after CompactOnce, %d before", compacted, added)
	}
}

// TestIOStatsSumsQueriesAcrossFolds: between two ColdCache calls
// IOStats' and every shard's ShardIOStats' reads and cache hits never
// decrease — not across the AddDocs folds, DeleteDoc and CompactOnce that
// retire the segments the queries read — and IOStats equals the sum of
// every query's QueryStats.IO since the last ColdCache, as does the sum
// over the shards. A query that fails still counts: a budget-aborted one
// adds exactly its budget of device reads.
func TestIOStatsSumsQueriesAcrossFolds(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	e := NewEngine(&Config{IndexDir: t.TempDir(), Shards: 2})
	for n := 0; n < 4; n++ {
		if err := e.AddXML(fmt.Sprintf("doc%02d", n), strings.NewReader(diffDoc(rng, n))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Build(); err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	var want, last storage.Stats // since the last ColdCache
	var lastShards []storage.Stats
	check := func(step string) {
		t.Helper()
		got, per := e.IOStats(), e.ShardIOStats()
		if got.Reads != want.Reads || got.CacheHits != want.CacheHits {
			t.Fatalf("%s: IOStats %d reads, %d hits; the queries' QueryStats.IO sum to %d, %d",
				step, got.Reads, got.CacheHits, want.Reads, want.CacheHits)
		}
		if got.Reads < last.Reads || got.CacheHits < last.CacheHits {
			t.Fatalf("%s: IOStats ran backwards: %d reads, %d hits after %d, %d", step, got.Reads, got.CacheHits, last.Reads, last.CacheHits)
		}
		var sum storage.Stats
		for s, st := range per {
			if s < len(lastShards) && (st.Reads < lastShards[s].Reads || st.CacheHits < lastShards[s].CacheHits) {
				t.Fatalf("%s: shard %d ran backwards: %+v after %+v", step, s, st, lastShards[s])
			}
			if st.Reads != st.SeqReads+st.RandReads {
				t.Fatalf("%s: shard %d classifies %d of %d reads", step, s, st.SeqReads+st.RandReads, st.Reads)
			}
			sum.Add(st)
		}
		if len(per) != 2 || sum.Reads != got.Reads || sum.CacheHits != got.CacheHits {
			t.Fatalf("%s: %d shards summing to %d reads, %d hits; IOStats %d, %d", step, len(per), sum.Reads, sum.CacheHits, got.Reads, got.CacheHits)
		}
		last, lastShards = got, per
	}
	coldCache := func() {
		t.Helper()
		if err := e.ColdCache(); err != nil {
			t.Fatal(err)
		}
		want, last, lastShards = storage.Stats{}, storage.Stats{}, nil
		check("ColdCache")
	}
	queries := func(step string) {
		t.Helper()
		for i, q := range diffQueries {
			_, st, err := e.SearchContext(context.Background(), q, SearchOptions{Algorithm: Algorithm(i % 3)})
			if err != nil {
				t.Fatalf("%s: %q: %v", step, q, err)
			}
			want.Add(st.IO)
			check(fmt.Sprintf("%s, query %q", step, q))
		}
	}

	queries("build")
	folds := 0
	for n := 4; n < 10; n++ {
		before := e.SegmentCount()
		if err := e.AddDoc(fmt.Sprintf("doc%02d", n), strings.NewReader(diffDoc(rng, n))); err != nil {
			t.Fatal(err)
		}
		if e.SegmentCount() <= before {
			folds++
		}
		check(fmt.Sprintf("AddDoc %d", n))
		queries(fmt.Sprintf("after AddDoc %d", n))
		if n%3 == 0 {
			coldCache()
			queries(fmt.Sprintf("cold after AddDoc %d", n))
		}
	}
	if folds == 0 {
		t.Fatal("no AddDoc folded a segment")
	}
	if err := e.DeleteDoc("doc03"); err != nil {
		t.Fatal(err)
	}
	queries("DeleteDoc")
	if cs, err := e.CompactOnce(0); err != nil || !cs.Compacted {
		t.Fatalf("CompactOnce: %+v, %v", cs, err)
	}
	check("CompactOnce")
	queries("CompactOnce")

	coldCache()
	const budget = 1
	before := e.IOStats()
	if _, _, err := e.SearchContext(context.Background(), "alpha beta", SearchOptions{Algorithm: AlgoDIL, MaxPageReads: budget}); !errors.Is(err, storage.ErrBudgetExceeded) {
		t.Fatalf("budgeted query: %v, want ErrBudgetExceeded", err)
	}
	if got := e.IOStats().Reads - before.Reads; got != budget {
		t.Fatalf("a query aborted at a budget of %d reads added %d reads", budget, got)
	}
}

// solveCounters reads the engine's ElemRank solve counters.
func solveCounters(e *Engine) (comps, elems int64) {
	return e.met.componentsSolved.Value(), e.met.elementsSolved.Value()
}

// TestSingleComponentEngineMatchesGlobalSolve: over a fully linked corpus
// (the DBLP fixture, whose citations join every proceedings document)
// the engine's component-wise ranks are the global solve's, bit for bit,
// after Build and after a batch that links into the component.
func TestSingleComponentEngineMatchesGlobalSolve(t *testing.T) {
	e := NewEngine(&Config{IndexDir: t.TempDir(), Shards: 2})
	defer e.Close()
	docs := dblp.Generate(dblp.Params{Seed: 3, Docs: 6, PapersPerDoc: 40})
	for _, d := range docs {
		if err := e.AddXML(d.Name, strings.NewReader(d.XML)); err != nil {
			t.Fatal(err)
		}
	}
	info, err := e.Build()
	if err != nil {
		t.Fatal(err)
	}
	check := func(tag string, iterations int) {
		t.Helper()
		if n := len(e.col.Components()); n != 1 {
			t.Fatalf("%s: %d components, want 1", tag, n)
		}
		g, _ := elemrank.BuildGraph(e.col)
		want, err := elemrank.Compute(g, elemrank.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		if len(e.rank.Scores) != len(want.Scores) {
			t.Fatalf("%s: %d ranks, want %d", tag, len(e.rank.Scores), len(want.Scores))
		}
		for i, r := range e.rank.Scores {
			if math.Float64bits(r) != math.Float64bits(want.Scores[i]) {
				t.Fatalf("%s: rank %d is %v, the global solve %v", tag, i, r, want.Scores[i])
			}
		}
		if iterations >= 0 && iterations != want.Iterations {
			t.Fatalf("%s: %d iterations reported, the global solve took %d", tag, iterations, want.Iterations)
		}
	}
	check("build", info.ElemRankIterations)
	late := fmt.Sprintf(`<proceedings><paper><title>late</title><cite xlink="%s">see</cite></paper></proceedings>`, docs[0].Name)
	if err := e.AddDoc("late.xml", strings.NewReader(late)); err != nil {
		t.Fatal(err)
	}
	check("add", -1)
}
