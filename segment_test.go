package xrank

import (
	"fmt"
	"io"
	iofs "io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"xrank/internal/storage"
)

// The segment differential harness: an engine mutated through
// incremental AddDocs (including name shadowing), DeleteDoc and
// CompactOnce must stay BIT-IDENTICAL — exact struct equality, scores
// included — to an engine built from scratch over the same document
// history. The reference replays every document version ever added, in
// the same ID order (via the addVersion test seam), builds once, and
// re-applies the tombstones by ID; deterministic parsing and ElemRank
// then bake the exact float32 ranks the segmented engine's stale
// segments substitute at query time, so there is no score tolerance
// here, unlike the update-differential harness.

// assertSegmentsAgree compares the segmented engine against the
// from-scratch reference result-for-result with exact equality.
func assertSegmentsAgree(t *testing.T, tag string, seg, scratch *Engine) {
	t.Helper()
	for _, q := range diffQueries {
		for _, algo := range diffAlgos {
			opts := algo
			opts.TopM = 25
			ra, _, errA := seg.SearchDetailed(q, opts)
			rb, _, errB := scratch.SearchDetailed(q, opts)
			if errA != nil || errB != nil {
				t.Fatalf("%s %s %q: errs %v / %v", tag, searchLabel(algo), q, errA, errB)
			}
			if len(ra) != len(rb) {
				t.Fatalf("%s %s %q: %d results vs %d from scratch", tag, searchLabel(algo), q, len(ra), len(rb))
			}
			for i := range ra {
				if ra[i] != rb[i] {
					t.Fatalf("%s %s %q result %d not bit-identical:\nsegmented %+v\nscratch   %+v",
						tag, searchLabel(algo), q, i, ra[i], rb[i])
				}
			}
		}
	}
}

// segUnit is the byte size the fold script pads its documents to a
// multiple of: with sizes fixed, which segments each batch folds is a
// function of the script alone.
const segUnit = 512

type segVersion struct {
	name    string
	content string
}

// segRun is one scripted differential run: the engine under test and the
// full version history its from-scratch reference replays.
type segRun struct {
	t       *testing.T
	shards  int
	base    string
	rng     *rand.Rand
	cur     *Engine
	history []segVersion   // document ID == slice index, as the engine assigns them
	liveID  map[string]int // name -> newest live version's ID
	dead    []int          // tombstoned version IDs, any order

	nextName, nextUniq, scratchN int
	// folds records, per AddDocs that folded, how many existing segments
	// it folded; baseFolds counts the ones that folded the first segment.
	folds     []int
	baseFolds int

	// reopenEach reopens the engine after every step of run.
	reopenEach bool
}

// newSegRun builds the base engine over one document per entry of
// baseUnits (its padded size in segUnits; 0 leaves it as generated).
func newSegRun(t *testing.T, shards int, seed int64, baseUnits []int) *segRun {
	h := startSegRun(t, shards, seed)
	var base []segVersion
	for _, units := range baseUnits {
		base = append(base, segVersion{h.freshName(), h.content(units)})
	}
	h.build(base)
	return h
}

// startSegRun returns a run with no engine yet; build makes its base.
func startSegRun(t *testing.T, shards int, seed int64) *segRun {
	return &segRun{t: t, shards: shards, base: t.TempDir(), rng: rand.New(rand.NewSource(seed)), liveID: map[string]int{}}
}

// build builds the base engine over the given documents (names ending
// in .html parse as HTML, as in AddDocs).
func (h *segRun) build(base []segVersion) {
	t := h.t
	h.cur = NewEngine(&Config{IndexDir: filepath.Join(h.base, "seg"), Shards: h.shards})
	for _, v := range base {
		var err error
		if isHTMLName(v.name) {
			err = h.cur.AddHTML(v.name, strings.NewReader(v.content))
		} else {
			err = h.cur.AddXML(v.name, strings.NewReader(v.content))
		}
		if err != nil {
			t.Fatal(err)
		}
		h.history = append(h.history, v)
		h.liveID[v.name] = len(h.history) - 1
	}
	if _, err := h.cur.Build(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.cur.Close() })
	h.check("initial build")
	assertDecodesBlocks(t, "initial build", h.cur)
}

// assertDecodesBlocks checks that a DIL query reads its postings block by
// block, as the I/O stats every query reports (and /metrics sums) count
// them — on a default-config engine, and again after every reopen.
func assertDecodesBlocks(t *testing.T, tag string, e *Engine) {
	t.Helper()
	_, st, err := e.SearchDetailed("alpha beta", SearchOptions{Algorithm: AlgoDIL, TopM: 10})
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	if st.IO.BlocksDecoded == 0 {
		t.Fatalf("%s: a DIL query decoded no posting blocks: %+v", tag, st.IO)
	}
}

func (h *segRun) freshName() string {
	name := fmt.Sprintf("doc%02d", h.nextName)
	h.nextName++
	return name
}

// content generates the next document, padded with trailing whitespace
// (outside the root element, so it indexes nothing) to units segUnits.
func (h *segRun) content(units int) string {
	c := diffDoc(h.rng, h.nextUniq)
	h.nextUniq++
	if units == 0 {
		return c
	}
	if len(c) > units*segUnit {
		h.t.Fatalf("generated document of %d bytes exceeds %d units", len(c), units)
	}
	return c + strings.Repeat(" ", units*segUnit-len(c))
}

func (h *segRun) liveNames() []string {
	names := make([]string, 0, len(h.liveID))
	for n := range h.liveID {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// check compares the engine against a from-scratch build over the same
// history, and checks no tombstoned name comes back.
func (h *segRun) check(tag string) {
	h.t.Helper()
	h.scratchN++
	s := NewEngine(&Config{
		IndexDir: filepath.Join(h.base, fmt.Sprintf("scratch%d", h.scratchN)),
		Shards:   h.shards,
	})
	for _, v := range h.history {
		if err := s.addVersion(v.name, []byte(v.content), isHTMLName(v.name)); err != nil {
			h.t.Fatal(err)
		}
	}
	if _, err := s.Build(); err != nil {
		h.t.Fatal(err)
	}
	for _, id := range h.dead {
		s.deleteDocID(uint32(id))
	}
	assertSegmentsAgree(h.t, tag, h.cur, s)
	s.Close()
	gone := map[string]bool{}
	for _, v := range h.history {
		if _, ok := h.liveID[v.name]; !ok {
			gone[v.name] = true
		}
	}
	assertDocsAbsent(h.t, tag, h.cur, gone)
}

// addBatch adds count documents of units segUnits each in one AddDocs
// call; shadow makes the first an existing live name (replacement)
// instead of a fresh one. It asserts the fold invariant: at most the
// default MaxSegments live, the batch's documents in the last segment,
// and the segments still partitioning the documents.
func (h *segRun) addBatch(tag string, count, units int, shadow bool) {
	h.t.Helper()
	batch := map[string]string{}
	if shadow {
		names := h.liveNames()
		batch[names[h.rng.Intn(len(names))]] = h.content(units)
	}
	for len(batch) < count {
		batch[h.freshName()] = h.content(units)
	}
	h.apply(tag, batch)
}

// apply adds batch (name -> content) in one AddDocs call, mirrors it into
// the history, and asserts the fold invariant.
func (h *segRun) apply(tag string, batch map[string]string) {
	h.t.Helper()
	readers := make(map[string]io.Reader, len(batch))
	for n, c := range batch {
		readers[n] = strings.NewReader(c)
	}
	before, firstID := len(h.cur.segs), h.cur.segs[0].id
	if err := h.cur.AddDocs(readers); err != nil {
		h.t.Fatalf("%s: %v", tag, err)
	}
	// Mirror in AddDocs's order: batch names sorted.
	bn := make([]string, 0, len(batch))
	for n := range batch {
		bn = append(bn, n)
	}
	sort.Strings(bn)
	var added []int
	for _, n := range bn {
		if id, ok := h.liveID[n]; ok {
			h.dead = append(h.dead, id)
		}
		h.history = append(h.history, segVersion{n, batch[n]})
		h.liveID[n] = len(h.history) - 1
		added = append(added, len(h.history)-1)
	}

	segs := h.cur.segs
	if len(segs) > defaultMaxSegments {
		h.t.Fatalf("%s: %d live segments, bound %d", tag, len(segs), defaultMaxSegments)
	}
	owner := make([]int, len(h.history))
	for _, s := range segs {
		for _, d := range s.docs {
			owner[d]++
		}
	}
	for id, n := range owner {
		if n != 1 {
			h.t.Fatalf("%s: document %d owned by %d segments", tag, id, n)
		}
	}
	last := map[uint32]bool{}
	for _, d := range segs[len(segs)-1].docs {
		last[d] = true
	}
	for _, id := range added {
		if !last[uint32(id)] {
			h.t.Fatalf("%s: batch document %d is not in the last segment", tag, id)
		}
	}
	if folded := before + 1 - len(segs); folded > 0 {
		h.folds = append(h.folds, folded)
	}
	if segs[0].id != firstID {
		h.baseFolds++
	}
}

func (h *segRun) deleteOne(tag string) {
	h.t.Helper()
	names := h.liveNames()
	victim := names[h.rng.Intn(len(names))]
	if err := h.cur.DeleteDoc(victim); err != nil {
		h.t.Fatalf("%s: %v", tag, err)
	}
	h.dead = append(h.dead, h.liveID[victim])
	delete(h.liveID, victim)
}

func (h *segRun) compact(tag string) {
	h.t.Helper()
	cs, err := h.cur.CompactOnce(0)
	if err != nil {
		h.t.Fatalf("%s: %v", tag, err)
	}
	if !cs.Compacted {
		h.t.Fatalf("%s: CompactOnce was a no-op over %d segments", tag, cs.SegmentsBefore)
	}
	if got := h.cur.SegmentCount(); got != 1 {
		h.t.Fatalf("%s: %d segments after compaction", tag, got)
	}
}

// reopen closes and reopens the engine, which must come back exactly as
// it was: see reopenSig.
func (h *segRun) reopen(tag string) {
	h.t.Helper()
	want := reopenSig(h.t, h.cur, diffQueries)
	h.cur.Close()
	var err error
	if h.cur, err = OpenEngine(filepath.Join(h.base, "seg")); err != nil {
		h.t.Fatalf("%s: reopen: %v", tag, err)
	}
	if got := reopenSig(h.t, h.cur, diffQueries); !reflect.DeepEqual(got, want) {
		h.t.Fatalf("%s: the reopened engine's ranks, segments or answers differ from the live one's (rank version %d, segments %+v; live %d, %+v)",
			tag, got.rankVer, got.segs, want.rankVer, want.segs)
	}
	assertDecodesBlocks(h.t, tag, h.cur)
}

// engineSig is what a reopen must preserve bit for bit.
type engineSig struct {
	ranks   []uint64 // ElemRank of every element, by global index, as float64 bits
	rankVer int
	segs    []SegmentInfo // rank versions and staleness included
	answers [][]SearchResult
}

// reopenSig reads e's ElemRank of every element through the public
// accessor (which solves ranks an open deferred, and so settles the rank
// version), then its segment layout and its DIL, RDIL, HDIL and
// disjunctive answers to queries.
func reopenSig(t *testing.T, e *Engine, queries []string) engineSig {
	t.Helper()
	var sig engineSig
	for g := 0; g < e.NumElements(); g++ {
		r, err := e.ElemRank(e.col.ElementByGlobalIndex(g).DeweyID().String())
		if err != nil {
			t.Fatal(err)
		}
		sig.ranks = append(sig.ranks, math.Float64bits(r))
	}
	sig.rankVer, sig.segs = e.RankVersion(), e.Segments()
	for _, q := range queries {
		for _, opts := range []SearchOptions{{Algorithm: AlgoDIL}, {Algorithm: AlgoRDIL}, {Algorithm: AlgoHDIL}, {Disjunctive: true}} {
			opts.TopM = 25
			rs, _, err := e.SearchDetailed(q, opts)
			if err != nil {
				t.Fatalf("%q under %+v: %v", q, opts, err)
			}
			sig.answers = append(sig.answers, rs)
		}
	}
	return sig
}

type segOp struct {
	name string
	run  func(h *segRun, tag string)
}

// run applies the script, checking against the reference after each step.
func (h *segRun) run(ops []segOp) {
	for i, op := range ops {
		tag := fmt.Sprintf("op %d (%s)", i, op.name)
		op.run(h, tag)
		h.check(tag)
		if h.reopenEach {
			h.reopen(tag + " reopened")
		}
	}
}

func addOp(name string, count, units int, shadow bool) segOp {
	return segOp{name, func(h *segRun, tag string) { h.addBatch(tag, count, units, shadow) }}
}

var (
	deleteOp  = segOp{"delete", (*segRun).deleteOne}
	compactOp = segOp{"compact", (*segRun).compact}
	reopenOp  = segOp{"reopen", (*segRun).reopen}
)

func TestSegmentDifferential(t *testing.T) {
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			// A fixed operation script (content randomized by the seed)
			// guaranteeing coverage: stacked delta segments, tombstones both
			// before and after segmentation boundaries, name shadowing,
			// compaction over tombstones, and reopens from every layout.
			t.Run("mixed", func(t *testing.T) {
				h := newSegRun(t, shards, int64(20030609*2+shards), []int{0, 0, 0, 0, 0})
				h.run([]segOp{
					addOp("add2", 2, 0, false),
					addOp("add1", 1, 0, false),
					deleteOp,
					addOp("shadow", 1, 0, true),
					reopenOp,
					compactOp,
					addOp("add2b", 2, 0, false),
					deleteOp,
					addOp("shadow2", 2, 0, true),
					reopenOp,
					compactOp,
					addOp("add1b", 1, 0, false),
					reopenOp,
				})
			})
			// Single-document batches of fixed sizes over a 9-unit base:
			// folds of 1, 2 and 3 delta segments, then a base fold, with a
			// shadowing, a tombstone and a reopen in between.
			t.Run("folds", func(t *testing.T) {
				h := newSegRun(t, shards, int64(20030609*3+shards), []int{3, 3, 3})
				h.run([]segOp{
					addOp("b1", 1, 1, false), // 9 1
					addOp("b2", 1, 1, false), // 9 2
					addOp("b3", 1, 1, false), // 9 2 1
					addOp("b4", 1, 1, false), // 9 4
					addOp("b5", 1, 1, true),  // 9 4 1
					addOp("b6", 1, 1, false), // 9 4 2
					addOp("b7", 1, 1, false), // 9 4 2 1
					deleteOp,
					addOp("b8", 1, 1, false), // 9 8
					reopenOp,
					addOp("b9", 1, 2, false),  // 9 8 2
					addOp("b10", 1, 1, false), // 9 8 2 1
					addOp("b11", 1, 1, false), // 9 8 4
					addOp("b12", 1, 5, false), // 26
				})
				seen := map[int]bool{}
				for _, n := range h.folds {
					seen[n] = true
				}
				if !seen[1] || !seen[2] || !seen[3] || h.baseFolds == 0 {
					t.Fatalf("folds %v and %d base folds: the script must fold 1, 2 and 3 segments and the base", h.folds, h.baseFolds)
				}
			})
			// XLinked documents and HTML pages: batches that merge and
			// split connected components, a failed batch whose document
			// IDs the next one reuses, and a reopen's cold rank cache (see
			// segment_links_test.go).
			t.Run("links", func(t *testing.T) { linksScript(startSegRun(t, shards, int64(20030609*5+shards))) })
		})
	}
}

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
