package xrank

import (
	"fmt"
	"io"
	iofs "io/fs"
	"math/rand"
	"os"
	"path/filepath"
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

// segAlgos is the differential algorithm matrix: every conjunctive
// processor, disjunctive semantics, and the TF-IDF scoring variants
// (which exercise the cross-segment global document-frequency path).
var segAlgos = []SearchOptions{
	{Algorithm: AlgoDIL},
	{Algorithm: AlgoRDIL},
	{Algorithm: AlgoHDIL},
	{Algorithm: AlgoNaiveID},
	{Algorithm: AlgoNaiveRank},
	{Disjunctive: true},
	{Algorithm: AlgoDIL, TFIDF: true},
	{Algorithm: AlgoNaiveID, TFIDF: true},
	{Disjunctive: true, TFIDF: true},
}

func segLabel(o SearchOptions) string {
	l := searchLabel(o)
	if o.TFIDF {
		l += "+tfidf"
	}
	return l
}

// assertSegmentsAgree compares the segmented engine against the
// from-scratch reference result-for-result with exact equality.
func assertSegmentsAgree(t *testing.T, tag string, seg, scratch *Engine) {
	t.Helper()
	for _, q := range diffQueries {
		for _, algo := range segAlgos {
			opts := algo
			opts.TopM = 25
			ra, _, errA := seg.SearchDetailed(q, opts)
			rb, _, errB := scratch.SearchDetailed(q, opts)
			if errA != nil || errB != nil {
				t.Fatalf("%s %s %q: errs %v / %v", tag, segLabel(algo), q, errA, errB)
			}
			if len(ra) != len(rb) {
				t.Fatalf("%s %s %q: %d results vs %d from scratch", tag, segLabel(algo), q, len(ra), len(rb))
			}
			for i := range ra {
				if ra[i] != rb[i] {
					t.Fatalf("%s %s %q result %d not bit-identical:\nsegmented %+v\nscratch   %+v",
						tag, segLabel(algo), q, i, ra[i], rb[i])
				}
			}
		}
	}
}

func TestSegmentDifferential(t *testing.T) {
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(20030609*2 + shards)))
			base := t.TempDir()
			segDir := filepath.Join(base, "seg")

			// The full version history: document ID == slice index, exactly
			// as the engine's collection assigns them.
			type version struct {
				name    string
				content string
			}
			var history []version
			liveID := map[string]int{} // name -> newest live version's ID
			var dead []int             // tombstoned version IDs, any order
			nextUniq := 0
			newContent := func() string {
				c := diffDoc(rng, nextUniq)
				nextUniq++
				return c
			}
			liveNames := func() []string {
				names := make([]string, 0, len(liveID))
				for n := range liveID {
					names = append(names, n)
				}
				sort.Strings(names)
				return names
			}

			cur := NewEngine(&Config{IndexDir: segDir, Shards: shards})
			nextName := 0
			for i := 0; i < 5; i++ {
				name := fmt.Sprintf("doc%02d", nextName)
				nextName++
				c := newContent()
				if err := cur.AddXML(name, strings.NewReader(c)); err != nil {
					t.Fatal(err)
				}
				history = append(history, version{name, c})
				liveID[name] = len(history) - 1
			}
			if _, err := cur.Build(); err != nil {
				t.Fatal(err)
			}
			defer func() { cur.Close() }()

			scratchN := 0
			buildScratch := func() *Engine {
				scratchN++
				s := NewEngine(&Config{
					IndexDir: filepath.Join(base, fmt.Sprintf("scratch%d", scratchN)),
					Shards:   shards,
				})
				for _, v := range history {
					if err := s.addVersion(v.name, []byte(v.content), false); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := s.Build(); err != nil {
					t.Fatal(err)
				}
				for _, id := range dead {
					s.deleteDocID(uint32(id))
				}
				return s
			}
			check := func(tag string) {
				t.Helper()
				scratch := buildScratch()
				assertSegmentsAgree(t, tag, cur, scratch)
				scratch.Close()
				gone := map[string]bool{}
				for _, v := range history {
					if _, ok := liveID[v.name]; !ok {
						gone[v.name] = true
					}
				}
				assertDocsAbsent(t, tag, cur, gone)
			}
			check("initial build")

			// addBatch adds count documents in one AddDocs call; shadow picks
			// an existing live name (replacement) instead of a fresh one.
			addBatch := func(tag string, count int, shadow bool) {
				t.Helper()
				batch := map[string]string{}
				if shadow {
					names := liveNames()
					batch[names[rng.Intn(len(names))]] = newContent()
				}
				for len(batch) < count {
					name := fmt.Sprintf("doc%02d", nextName)
					nextName++
					batch[name] = newContent()
				}
				readers := make(map[string]io.Reader, len(batch))
				for n, c := range batch {
					readers[n] = strings.NewReader(c)
				}
				before := cur.SegmentCount()
				if err := cur.AddDocs(readers); err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				if got := cur.SegmentCount(); got != before+1 {
					t.Fatalf("%s: segment count %d -> %d, want one delta segment appended", tag, before, got)
				}
				// Mirror in AddDocs's order: batch names sorted.
				bn := make([]string, 0, len(batch))
				for n := range batch {
					bn = append(bn, n)
				}
				sort.Strings(bn)
				for _, n := range bn {
					if id, ok := liveID[n]; ok {
						dead = append(dead, id)
					}
					history = append(history, version{n, batch[n]})
					liveID[n] = len(history) - 1
				}
			}
			deleteOne := func(tag string) {
				t.Helper()
				names := liveNames()
				victim := names[rng.Intn(len(names))]
				if err := cur.DeleteDoc(victim); err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				dead = append(dead, liveID[victim])
				delete(liveID, victim)
			}
			compact := func(tag string) {
				t.Helper()
				cs, err := cur.CompactOnce(0)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				if !cs.Compacted {
					t.Fatalf("%s: CompactOnce was a no-op over %d segments", tag, cs.SegmentsBefore)
				}
				if got := cur.SegmentCount(); got != 1 {
					t.Fatalf("%s: %d segments after compaction", tag, got)
				}
			}
			reopen := func(tag string) {
				t.Helper()
				cur.Close()
				var err error
				cur, err = OpenEngine(segDir)
				if err != nil {
					t.Fatalf("%s: reopen: %v", tag, err)
				}
			}

			// A fixed operation script (content randomized by the seed)
			// guaranteeing coverage: stacked delta segments, tombstones both
			// before and after segmentation boundaries, name shadowing,
			// compaction over tombstones, and reopens from every layout.
			ops := []struct {
				name string
				run  func(tag string)
			}{
				{"add2", func(tag string) { addBatch(tag, 2, false) }},
				{"add1", func(tag string) { addBatch(tag, 1, false) }},
				{"delete", deleteOne},
				{"shadow", func(tag string) { addBatch(tag, 1, true) }},
				{"reopen", reopen},
				{"compact", compact},
				{"add2b", func(tag string) { addBatch(tag, 2, false) }},
				{"delete2", deleteOne},
				{"shadow2", func(tag string) { addBatch(tag, 2, true) }},
				{"reopen2", reopen},
				{"compact2", compact},
				{"add1b", func(tag string) { addBatch(tag, 1, false) }},
				{"reopen3", reopen},
			}
			for i, op := range ops {
				tag := fmt.Sprintf("op %d (%s)", i, op.name)
				op.run(tag)
				check(tag)
			}
		})
	}
}

// TestAddDocsIncremental pins the core acceptance criterion directly:
// AddDocs must NOT rebuild the full index. Every base-segment file is
// byte-identical after the batch; only a new delta segment, the new
// ranks blob, the new document-store entries and segments.json appear.
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

	snapshot := func() map[string]string {
		files := map[string]string{}
		err := filepath.WalkDir(dir, func(path string, d iofs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			rel, rerr := filepath.Rel(dir, path)
			if rerr != nil {
				return rerr
			}
			data, rerr := os.ReadFile(path)
			if rerr != nil {
				return rerr
			}
			files[rel] = string(data)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return files
	}
	before := snapshot()

	if err := e.AddDoc("doc03", strings.NewReader(diffDoc(rng, 3))); err != nil {
		t.Fatal(err)
	}
	after := snapshot()
	for rel, content := range before {
		if rel == ranksFile(0) || rel == fileSegments {
			continue // superseded by the next version's blob; the commit point
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
// wrote, and the total equals the page files the builds produced.
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
	sz := info.Sizes
	built := e.IOStats().Writes
	if want := (sz.DILList + sz.RDILList + sz.RDILIndex + sz.HDILRank + sz.HDILIndex +
		sz.NaiveIDList + sz.NaiveRankList + sz.NaiveIndex) / storage.PageSize; built < want || want == 0 {
		t.Fatalf("Writes = %d after Build, whose page files hold %d pages", built, want)
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
