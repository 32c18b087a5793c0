package xrank

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"xrank/internal/datagen/xmark"
	"xrank/internal/index"
	"xrank/internal/storage"
)

// foldUnit is the exact byte size of every document TestTieredFoldLayout
// adds, so a segment's size is its document count.
const foldUnit = 256

func foldDoc(n int) string {
	c := fmt.Sprintf("<doc><t>fold alpha word%d</t><p>beta uniq%d</p></doc>", n%7, n)
	return c + strings.Repeat(" ", foldUnit-len(c))
}

// TestTieredFoldLayout pins the size-tiered fold rule: one equal-sized
// document per batch over a 9-document base, so the live segments'
// document counts after each batch are the table's. A segment that stays
// live keeps its files byte-identical (the base until it is folded);
// a folded segment's directory is gone; and every batch that folded
// counts once in xrank_compactions_total and adds to
// xrank_compaction_bytes_total exactly the bytes of the merged segment's
// index files on disk.
func TestTieredFoldLayout(t *testing.T) {
	dir := t.TempDir()
	e := NewEngine(&Config{IndexDir: dir, Shards: 2})
	for n := 0; n < 9; n++ {
		if err := e.AddXML(fmt.Sprintf("base%02d", n), strings.NewReader(foldDoc(n))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Build(); err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	steps := []struct {
		maxSegments int // SetMaxSegments before the batch
		want        string
	}{
		{0, "9 1"},
		{0, "9 2"},
		{0, "9 2 1"},
		{0, "9 4"},
		{0, "9 4 1"},
		{0, "9 4 2"},
		{0, "9 4 2 1"},
		{0, "9 8"},
		{0, "9 8 1"},
		{0, "9 8 2"},
		{0, "9 8 2 1"},
		{0, "9 8 4"},
		{0, "9 8 4 1"},
		{0, "9 8 4 2"},
		{0, "9 8 4 3"},    // the count bound folds a segment the size rule keeps
		{-1, "9 8 4 3 1"}, // no count bound
		{2, "26"},         // count bound 2: the deltas outgrow the base, which folds too
		{1, "27"},
	}
	for i, st := range steps {
		before := e.Segments()
		files := map[string]map[string]string{}
		for _, s := range before {
			files[s.Dir] = readTree(t, filepath.Join(dir, s.Dir))
		}
		compactions, bytes := e.met.compactions.Value(), e.met.compactionBytes.Value()

		e.SetMaxSegments(st.maxSegments)
		if err := e.AddDoc(fmt.Sprintf("add%02d", i), strings.NewReader(foldDoc(100+i))); err != nil {
			t.Fatal(err)
		}
		after := e.Segments()
		var layout []string
		live := map[string]bool{}
		for _, s := range after {
			layout = append(layout, fmt.Sprint(s.Docs))
			live[s.Dir] = true
		}
		if got := strings.Join(layout, " "); got != st.want {
			t.Fatalf("batch %d: layout %q, want %q", i+1, got, st.want)
		}
		for _, s := range before {
			if !live[s.Dir] {
				if _, err := os.Stat(filepath.Join(dir, s.Dir)); !errors.Is(err, iofs.ErrNotExist) {
					t.Fatalf("batch %d: folded %s still on disk (%v)", i+1, s.Dir, err)
				}
				continue
			}
			if got := readTree(t, filepath.Join(dir, s.Dir)); !reflect.DeepEqual(got, files[s.Dir]) {
				t.Fatalf("batch %d: live segment %s was rewritten", i+1, s.Dir)
			}
		}
		folded := len(before)+1-len(after) > 0
		dc, db := e.met.compactions.Value()-compactions, e.met.compactionBytes.Value()-bytes
		if folded && (dc != 1 || db <= 0) || !folded && (dc != 0 || db != 0) {
			t.Fatalf("batch %d (folded=%v): compactions +%d, compaction bytes +%d", i+1, folded, dc, db)
		}
		if onDisk := indexFileBytes(t, filepath.Join(dir, after[len(after)-1].Dir)); folded && db != onDisk {
			t.Fatalf("batch %d: compaction bytes +%d, the merged segment's index files hold %d", i+1, db, onDisk)
		}
	}
	if rs, err := e.Search("uniq117"); err != nil || len(rs) == 0 {
		t.Fatalf("last batch not searchable after a full fold: %d results, %v", len(rs), err)
	}
}

// indexFileBytes sums the sizes of a segment's index files: everything in
// its shard directories but the meta.json manifests that record them.
func indexFileBytes(t *testing.T, segDir string) int64 {
	t.Helper()
	var n int64
	err := filepath.WalkDir(segDir, func(path string, d iofs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Dir(path) == segDir || d.Name() == "meta.json" {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// steadyStateWrites builds an 8-document XMark base and runs the spine's
// ingest.mixed writer policy over it: batches of 4 small documents, one
// DeleteDoc of an earlier addition every 5 batches, and CompactOnce
// whenever more than 4 segments are live. It returns the index pages the
// loop wrote, how many times the policy compacted, the loop's time, and
// the part of it the ElemRank step took.
func steadyStateWrites(tb testing.TB, batches int) (writes int64, compactions int, elapsed, rank time.Duration) {
	tb.Helper()
	e := NewEngine(&Config{IndexDir: tb.TempDir(), Shards: 2})
	defer e.Close()
	doc := func(seed int64, scale float64) string {
		return xmark.Generate(xmark.Params{
			Seed: seed, Items: int(300 * scale), People: int(180 * scale), OpenAuctions: int(200 * scale),
			ClosedAuctions: int(120 * scale), Categories: 1 + int(20*scale), VocabSize: 500,
		})
	}
	for d := 0; d < 8; d++ {
		if err := e.AddXML(fmt.Sprintf("base-%d.xml", d), strings.NewReader(doc(int64(d), 0.1))); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := e.Build(); err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	var added []string
	start, t0, rank0 := e.IOStats().Writes, time.Now(), e.met.rankTime.Load()
	for b := 0; b < batches; b++ {
		add := map[string]io.Reader{}
		for j := 0; j < 4; j++ {
			name := fmt.Sprintf("add-%03d-%d.xml", b, j)
			add[name] = strings.NewReader(doc(int64(1000+4*b+j), 0.01))
			added = append(added, name)
		}
		if err := e.AddDocs(add); err != nil {
			tb.Fatal(err)
		}
		if (b+1)%5 == 0 {
			i := rng.Intn(len(added) - 4)
			if err := e.DeleteDoc(added[i]); err != nil {
				tb.Fatal(err)
			}
			added = append(added[:i], added[i+1:]...)
		}
		if e.SegmentCount() > 4 {
			if _, err := e.CompactOnce(0); err != nil {
				tb.Fatal(err)
			}
			compactions++
		}
	}
	return e.IOStats().Writes - start, compactions, time.Since(t0), time.Duration(e.met.rankTime.Load() - rank0)
}

// TestAddDocsNeverNeedsCompaction: under the spine's writer policy AddDocs
// alone keeps the segment count within bounds, so the policy's CompactOnce
// never fires, and the folds write at most half the index pages that
// appending one delta per batch and compacting everything past 4 segments
// did: that engine wrote 6969 index pages over this 48-batch loop and
// compacted 12 times.
func TestAddDocsNeverNeedsCompaction(t *testing.T) {
	const parentWrites = 6969
	writes, compactions, _, _ := steadyStateWrites(t, 48)
	if compactions != 0 {
		t.Fatalf("the writer policy compacted %d times", compactions)
	}
	if writes*2 > parentWrites {
		t.Fatalf("the loop wrote %d index pages, more than half of %d", writes, parentWrites)
	}
	t.Logf("%d index pages written over 48 batches", writes)
}

// TestOpenIgnoresRetiredConfigFields: an engine.json whose Config still
// carries retired knobs — the background compactor's, SuggestMaxK, the
// shard fault knobs and RankFraction that became constants, SlowLogSize,
// the admission defaults the serve flags alone now set, the ElemRank
// parameters, variant and proximity switch the engine no longer varies,
// PoolPages and SlowQueryMillis — or the settings engines stored before
// engine.json held only what defines the directory (IndexDir, the result
// cache, coalescing, strict degraded mode) opens and answers exactly like
// the directory did before, and serves as an engine opened without them:
// no cache, not strict. (A directory whose ranks were baked under other
// ElemRank settings fails its rank CRC instead; see
// TestOpenRankCRCMismatch. One that set DisableProximity answers with
// proximity on; SearchOptions.ProximityOff turns it off per query. One
// that set SuggestDisabled: see TestOpenSuggestDisabledDirectory.)
func TestOpenIgnoresRetiredConfigFields(t *testing.T) {
	dir := t.TempDir()
	e := NewEngine(&Config{IndexDir: dir, Shards: 2})
	addCorpus(t, e, crashCorpus())
	if _, err := e.Build(); err != nil {
		t.Fatal(err)
	}
	want := crashSig(t, e)
	e.Close()

	editEngineConfig(t, dir, func(cfg map[string]any) {
		cfg["CompactIntervalMillis"] = 250
		cfg["CompactBudgetPages"] = 64
		cfg["SuggestMaxK"] = 7
		cfg["ShardWorkers"] = 1
		cfg["ShardRetries"] = -1
		cfg["ShardRetryBackoffMillis"] = 100
		cfg["ShardRetrySeed"] = 42
		cfg["ShardFailureThreshold"] = -1
		cfg["ShardProbeIntervalMillis"] = 1000
		cfg["RankFraction"] = 0.5
		cfg["SlowLogSize"] = 4
		cfg["MaxInflightQueries"] = 2
		cfg["AdmissionQueue"] = 3
		cfg["D1"], cfg["D2"], cfg["D3"] = 0.5, 0.2, 0.1
		cfg["Epsilon"] = 0.001
		cfg["ElemRankVariant"] = "pagerank"
		cfg["DisableProximity"] = true
		cfg["PoolPages"] = 1
		cfg["SlowQueryMillis"] = -1
		cfg["IndexDir"] = filepath.Join(dir, "elsewhere")
		cfg["FailOnDegraded"] = true
		cfg["CacheBytes"] = 1 << 20
		cfg["CoalesceQueries"] = true
	})
	raw, err := os.ReadFile(filepath.Join(dir, fileEngine))
	if err != nil || !strings.Contains(string(raw), "CompactBudgetPages") {
		t.Fatalf("engine.json does not carry the retired fields: %v", err)
	}

	ffs := storage.NewFaultFS(nil, 1)
	e, err = OpenEngineFS(dir, ffs)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if got := crashSig(t, e); !reflect.DeepEqual(got, want) {
		t.Fatal("reopened engine answers differently")
	}
	b, err := json.Marshal(e.cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, retired := range []string{"Compact", "SuggestMaxK", "ShardWorkers", "ShardRetr", "ShardFailure", "ShardProbe", "RankFraction", "SlowLogSize", "MaxInflightQueries", "AdmissionQueue",
		"D1", "D2", "D3", "Epsilon", "ElemRankVariant", "DisableProximity", "PoolPages", "SlowQueryMillis", "FailOnDegraded", "SuggestDisabled"} {
		if strings.Contains(string(b), retired) {
			t.Fatalf("Config still has retired field %s: %s", retired, b)
		}
	}
	// The retired SuggestMaxK no longer lowers the clamp.
	if sug, _, err := e.Suggest("", 50); err != nil || len(sug) <= 7 {
		t.Fatalf("Suggest(k=50) = %d completions (%v), want more than the retired cap of 7", len(sug), err)
	}
	// The stored path, slow-query threshold, cache and coalescing are
	// not the reopened engine's.
	if c := e.cfg; c.IndexDir != dir || c.CacheBytes != 0 || c.CoalesceQueries {
		t.Fatalf("reopened Config = %+v, want IndexDir %s and no cache or coalescing", c, dir)
	}
	if th := e.SlowLog().Threshold(); th != defaultSlowQueryThreshold {
		t.Fatalf("slow-query threshold %v, want the default %v", th, defaultSlowQueryThreshold)
	}
	for i := 0; i < 2; i++ {
		if _, st, err := e.SearchDetailed("xml search", SearchOptions{}); err != nil || st.Cached || st.Coalesced {
			t.Fatalf("ask %d: cached %v, coalesced %v (%v); the stored cache settings took effect", i, st.Cached, st.Coalesced, err)
		}
	}
	if cs := e.CacheStats(); cs.Enabled || cs.Hits != 0 {
		t.Fatalf("cache stats %+v, want no cache", cs)
	}
	// The stored FailOnDegraded is not strict mode: a query over a failed
	// shard serves the healthy one.
	ffs.FailReads(shardPred(0), storage.ErrInjected, -1)
	if err := e.ColdCache(); err != nil {
		t.Fatal(err)
	}
	if _, st, err := e.SearchDetailed("xml search", SearchOptions{Algorithm: AlgoDIL}); err != nil || !st.Degraded {
		t.Fatalf("query over a failed shard: err %v, degraded %v; want partial results", err, st != nil && st.Degraded)
	}
}

// addRetiredNaiveFiles gives a built engine's segment 0 the shape
// engines wrote while they still built the naive baselines: every shard
// holds the five naive files beside its lists, and a meta.json that
// records them (has_naive, naive_entries and their checksums).
func addRetiredNaiveFiles(tb testing.TB, e *Engine) {
	tb.Helper()
	shards := e.NumShards()
	for s := 0; s < shards; s++ {
		shard := filepath.Join(e.cfg.IndexDir, segmentDirName(0), fmt.Sprintf("shard%03d", s))
		naive, err := index.BuildNaive(e.col, e.rank.Scores, shard, index.BuildOptions{
			DocFilter: func(doc uint32) bool { return index.ShardOf(doc, shards) == s },
		})
		if err != nil {
			tb.Fatal(err)
		}
		if err := os.Remove(filepath.Join(shard, "naive.json")); err != nil {
			tb.Fatal(err)
		}
		metaPath := filepath.Join(shard, "meta.json")
		var meta map[string]any
		if err := storage.ReadManifest(nil, metaPath, &meta); err != nil {
			tb.Fatal(err)
		}
		meta["has_naive"] = true
		meta["naive_entries"] = naive.Meta.NaiveEntries
		files := meta["files"].(map[string]any)
		for name, sum := range naive.Meta.Files {
			files[name] = sum
		}
		if err := storage.WriteManifestAtomic(nil, metaPath, meta); err != nil {
			tb.Fatal(err)
		}
	}
}

// retiredListFiles are the files every shard held before HDIL read its
// rank prefix from RDIL's list and the skip indexes replaced the
// lexicons.
var retiredListFiles = []string{"hdil.rank", "hdilrank.skip", "dil.lex", "rdil.lex", "hdil.lex"}

// addRetiredListFiles gives a built engine's segment 0 the shape engines
// wrote before HDIL read its rank prefix from RDIL's list: every shard
// also holds the five retiredListFiles, and a meta.json that records
// them but not min_rank_prefix. Open reads nothing of a retired file but
// its name in meta.json, so the contents are stand-ins in the retired
// formats: the rank prefix is a copy of RDIL's list and skip index, and
// each lexicon is an empty one.
func addRetiredListFiles(tb testing.TB, e *Engine) {
	tb.Helper()
	var emptyLex []byte
	for _, v := range []uint32{0x584C4558, 1, 0} { // "XLEX", version 1, no terms
		emptyLex = binary.LittleEndian.AppendUint32(emptyLex, v)
	}
	for s := 0; s < e.NumShards(); s++ {
		shard := filepath.Join(e.cfg.IndexDir, segmentDirName(0), fmt.Sprintf("shard%03d", s))
		metaPath := filepath.Join(shard, "meta.json")
		var meta map[string]any
		if err := storage.ReadManifest(nil, metaPath, &meta); err != nil {
			tb.Fatal(err)
		}
		delete(meta, "min_rank_prefix")
		files := meta["files"].(map[string]any)
		for _, name := range retiredListFiles {
			b := emptyLex
			if src, ok := map[string]string{"hdil.rank": "rdil.post", "hdilrank.skip": "rdil.skip"}[name]; ok {
				var err error
				if b, err = os.ReadFile(filepath.Join(shard, src)); err != nil {
					tb.Fatal(err)
				}
			}
			if err := os.WriteFile(filepath.Join(shard, name), b, 0o644); err != nil {
				tb.Fatal(err)
			}
			files[name] = storage.FileSum{Size: int64(len(b)), CRC32: storage.Checksum(b)}
		}
		if err := storage.WriteManifestAtomic(nil, metaPath, meta); err != nil {
			tb.Fatal(err)
		}
	}
}

// addRetiredRanksBlob gives a built engine's directory the shape engines
// wrote while they still stored ElemRank: segments.json without a rank
// CRC, and the current rank version's ranks-NNNNNN.bin blob (float64
// ranks by global element index in a checksummed "XRNK" blob) holding
// ranks — the engine's own, unless a test wants a blob that disagrees.
func addRetiredRanksBlob(tb testing.TB, e *Engine, ranks []float64) {
	tb.Helper()
	var payload []byte
	for _, r := range ranks {
		payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(r))
	}
	blob := filepath.Join(e.cfg.IndexDir, fmt.Sprintf("ranks-%06d.bin", e.RankVersion()))
	if err := storage.WriteBlobAtomic(nil, blob, 0x584b4e52, payload); err != nil {
		tb.Fatal(err)
	}
	editSegmentsManifest(tb, e.cfg.IndexDir, func(sm *segmentsManifest) { sm.RankCRC = nil })
}

// editEngineConfig rewrites the Config object of dir's engine.json
// through edit, keys and all, so it can add fields Config no longer has.
func editEngineConfig(tb testing.TB, dir string, edit func(cfg map[string]any)) {
	tb.Helper()
	path := filepath.Join(dir, fileEngine)
	var man map[string]map[string]any
	if err := storage.ReadManifest(nil, path, &man); err != nil {
		tb.Fatal(err)
	}
	edit(man["config"])
	if err := storage.WriteManifestAtomic(nil, path, man); err != nil {
		tb.Fatal(err)
	}
}

// editSegmentsManifest rewrites dir's segments.json through edit.
func editSegmentsManifest(tb testing.TB, dir string, edit func(*segmentsManifest)) {
	tb.Helper()
	path := filepath.Join(dir, fileSegments)
	var sm segmentsManifest
	if err := storage.ReadManifest(nil, path, &sm); err != nil {
		tb.Fatal(err)
	}
	edit(&sm)
	if err := storage.WriteManifestAtomic(nil, path, &sm); err != nil {
		tb.Fatal(err)
	}
}

// algorithmQueries are the queries the open tests compare, over
// crashCorpus.
var algorithmQueries = []string{"xml search", "keyword retrieval", "xql language", "ranked search"}

// TestOpenRankCRCMismatch: segments.json records the CRC of the ranks its
// segments were baked from, or, written while ranks were stored, its
// ranks blob vouches for them. When neither vouches for the ranks this
// binary solves — a wrong CRC (as if a later binary's ElemRank computed
// other bits), a blob of other ranks, no blob at all, or an engine.json
// from an engine that baked its ranks under the retired ElemRank variant
// setting — the directory opens with every segment stale, one rank
// version past the manifest's, and answers exactly as before and as a
// fresh Build of the same documents; the next CompactOnce re-bakes one
// fresh segment, and its commit records a CRC that the next open accepts.
func TestOpenRankCRCMismatch(t *testing.T) {
	late := `<book><title>late xml search</title><cite ref="1">x</cite></book>`
	fresh := NewEngine(&Config{IndexDir: t.TempDir(), Shards: 2})
	addCorpus(t, fresh, crashCorpus())
	if err := fresh.AddXML("late.xml", strings.NewReader(late)); err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Build(); err != nil {
		t.Fatal(err)
	}
	built := reopenSig(t, fresh, algorithmQueries)
	fresh.Close()

	for _, tc := range []struct {
		name   string
		doctor func(e *Engine)
	}{
		{"wrong-crc", func(e *Engine) {
			editSegmentsManifest(t, e.cfg.IndexDir, func(sm *segmentsManifest) { *sm.RankCRC ^= 1 })
		}},
		{"retired-blob-of-other-ranks", func(e *Engine) {
			other := slices.Clone(e.rank.Scores)
			other[0] /= 2
			addRetiredRanksBlob(t, e, other)
		}},
		{"no-crc-no-blob", func(e *Engine) {
			addRetiredRanksBlob(t, e, e.rank.Scores)
			if err := os.Remove(filepath.Join(e.cfg.IndexDir, fmt.Sprintf("ranks-%06d.bin", e.RankVersion()))); err != nil {
				t.Fatal(err)
			}
		}},
		{"retired-variant", func(e *Engine) {
			editEngineConfig(t, e.cfg.IndexDir, func(cfg map[string]any) { cfg["ElemRankVariant"] = "pagerank" })
			editSegmentsManifest(t, e.cfg.IndexDir, func(sm *segmentsManifest) { *sm.RankCRC ^= 1 })
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			e := NewEngine(&Config{IndexDir: dir, Shards: 2})
			addCorpus(t, e, crashCorpus())
			if _, err := e.Build(); err != nil {
				t.Fatal(err)
			}
			if err := e.AddDoc("late.xml", strings.NewReader(late)); err != nil {
				t.Fatal(err)
			}
			want := reopenSig(t, e, algorithmQueries)
			if want.segs[1].Stale {
				t.Fatalf("the batch's segment is stale before the manifest is touched: %+v", want.segs)
			}
			tc.doctor(e)
			e.Close()

			e, err := OpenEngine(dir)
			if err != nil {
				t.Fatal(err)
			}
			got := reopenSig(t, e, algorithmQueries)
			if got.rankVer != want.rankVer+1 {
				t.Fatalf("rank version %d after a CRC mismatch, want the manifest's %d + 1", got.rankVer, want.rankVer)
			}
			for _, s := range got.segs {
				if !s.Stale {
					t.Fatalf("segment %d is fresh after a CRC mismatch: %+v", s.ID, got.segs)
				}
			}
			if !reflect.DeepEqual(got.ranks, want.ranks) || !reflect.DeepEqual(got.answers, want.answers) {
				t.Fatal("a CRC mismatch changed the ranks or the answers")
			}
			if !reflect.DeepEqual(got.ranks, built.ranks) || !reflect.DeepEqual(got.answers, built.answers) {
				t.Fatal("after a CRC mismatch the ranks or the answers differ from a fresh Build's")
			}
			if cs, err := e.CompactOnce(0); err != nil || !cs.Compacted {
				t.Fatalf("CompactOnce after a CRC mismatch: %+v, %v", cs, err)
			}
			if segs := e.Segments(); len(segs) != 1 || segs[0].Stale {
				t.Fatalf("segments after the compaction: %+v, want one fresh segment", segs)
			}
			if blobs, _ := filepath.Glob(filepath.Join(dir, "ranks-*.bin")); len(blobs) != 0 {
				t.Fatalf("ranks blobs after the compaction: %v", blobs)
			}
			e.Close()

			e, err = OpenEngine(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			got = reopenSig(t, e, algorithmQueries)
			if len(got.segs) != 1 || got.segs[0].Stale {
				t.Fatalf("segments after the compaction and a reopen: %+v, want one fresh segment", got.segs)
			}
			if !reflect.DeepEqual(got.ranks, want.ranks) || !reflect.DeepEqual(got.answers, want.answers) {
				t.Fatal("the compaction changed the ranks or the answers")
			}
		})
	}
}

// TestOpenDefersRanks: only queries on a stale segment read current
// ranks, so open solves ElemRank only when a segment is stale. Over one
// fresh segment it solves nothing and queries read the baked ranks; the
// first ElemRank solves every component, a wrong CRC turns the segment
// stale at that moment, and the next batch solves only the component it
// changes.
func TestOpenDefersRanks(t *testing.T) {
	dir := t.TempDir()
	e := NewEngine(&Config{IndexDir: dir, Shards: 2})
	addCorpus(t, e, crashCorpus())
	if _, err := e.Build(); err != nil {
		t.Fatal(err)
	}
	want := reopenSig(t, e, algorithmQueries)
	comps := int64(len(e.col.Components()))
	e.Close()
	open := func(tag string, solved int64) *Engine {
		t.Helper()
		e, err := OpenEngine(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := e.SearchDetailed("xml search", SearchOptions{Algorithm: AlgoHDIL}); err != nil {
			t.Fatal(err)
		}
		if c, _ := solveCounters(e); c != solved {
			t.Fatalf("%s: open and a query solved %d components, want %d", tag, c, solved)
		}
		return e
	}

	e = open("fresh", 0)
	if got := reopenSig(t, e, algorithmQueries); !reflect.DeepEqual(got, want) {
		t.Fatalf("fresh: the reopened engine differs: segments %+v, want %+v", got.segs, want.segs)
	}
	if c, _ := solveCounters(e); c != comps {
		t.Fatalf("fresh: ElemRank solved %d components, want all %d", c, comps)
	}
	if err := e.AddDoc("late.xml", strings.NewReader(`<book><title>late xml search</title></book>`)); err != nil {
		t.Fatal(err)
	}
	if c, _ := solveCounters(e); c != comps+1 {
		t.Fatalf("fresh: the batch solved %d components, want its own 1", c-comps)
	}
	e.Close()

	e = open("stale", comps+1)
	if _, err := e.CompactOnce(0); err != nil {
		t.Fatal(err)
	}
	e.Close()

	editSegmentsManifest(t, dir, func(sm *segmentsManifest) { *sm.RankCRC ^= 1 })
	e = open("wrong-crc", 0)
	defer e.Close()
	if segs := e.Segments(); len(segs) != 1 || segs[0].Stale {
		t.Fatalf("wrong-crc: segments before the first solve: %+v, want one fresh segment", segs)
	}
	ver := e.RankVersion()
	if _, err := e.ElemRank("0"); err != nil {
		t.Fatal(err)
	}
	if segs := e.Segments(); e.RankVersion() != ver+1 || len(segs) != 1 || !segs[0].Stale {
		t.Fatalf("wrong-crc: rank version %d and segments %+v after the first solve, want %d and one stale segment",
			e.RankVersion(), segs, ver+1)
	}
}

// TestOpenSkipsRetiredNaiveFiles: a directory in the shape of an older
// engine — one that still built the naive baselines, one that still
// wrote HDIL's rank prefix and the lexicons beside the two lists, or one
// that still stored ElemRank in a ranks blob — must open exactly as
// before (ranks, segments, and answers under every algorithm), and its
// next batch and fold must leave no retired file behind: every shard
// directory then holds exactly the two lists, their skip indexes and
// meta.json.
func TestOpenSkipsRetiredNaiveFiles(t *testing.T) {
	for _, tc := range []struct {
		name    string
		add     func(testing.TB, *Engine)
		retired func(name string) bool
		count   int
	}{
		{"naive", addRetiredNaiveFiles, func(name string) bool { return strings.HasPrefix(name, "naive") }, 10},
		{"rank-prefix-and-lexicons", addRetiredListFiles, func(name string) bool { return slices.Contains(retiredListFiles, name) }, 10},
		{"ranks-blob", func(tb testing.TB, e *Engine) { addRetiredRanksBlob(tb, e, e.rank.Scores) }, func(name string) bool { return strings.HasPrefix(name, "ranks-") }, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			e := NewEngine(&Config{IndexDir: dir, Shards: 2})
			addCorpus(t, e, crashCorpus())
			if _, err := e.Build(); err != nil {
				t.Fatal(err)
			}
			want := reopenSig(t, e, algorithmQueries)
			tc.add(t, e)
			e.Close()
			retiredFiles := func() []string {
				var found []string
				filepath.WalkDir(dir, func(path string, d iofs.DirEntry, err error) error {
					if err == nil && tc.retired(d.Name()) {
						found = append(found, path)
					}
					return err
				})
				return found
			}
			if n := len(retiredFiles()); n != tc.count {
				t.Fatalf("parent-shaped directory holds %d retired files, want %d", n, tc.count)
			}

			e, err := OpenEngine(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			if got := reopenSig(t, e, algorithmQueries); !reflect.DeepEqual(got, want) {
				t.Fatalf("parent-shaped directory opens differently: rank version %d, segments %+v; want %d, %+v",
					got.rankVer, got.segs, want.rankVer, want.segs)
			}
			if err := e.AddDocs(map[string]io.Reader{"late.xml": strings.NewReader(`<book><title>late xml search</title></book>`)}); err != nil {
				t.Fatal(err)
			}
			if _, err := e.CompactOnce(0); err != nil {
				t.Fatal(err)
			}
			if left := retiredFiles(); len(left) != 0 {
				t.Fatalf("retired files survived the fold: %v", left)
			}
			shards, _ := filepath.Glob(filepath.Join(dir, "seg-*", "shard[0-9]*"))
			if len(shards) == 0 {
				t.Fatal("no shard directories after the fold")
			}
			for _, shard := range shards {
				ents, err := os.ReadDir(shard)
				if err != nil {
					t.Fatal(err)
				}
				var names []string
				for _, ent := range ents {
					names = append(names, ent.Name())
				}
				if want := []string{"dil.post", "dil.skip", "meta.json", "rdil.post", "rdil.skip"}; !slices.Equal(names, want) {
					t.Fatalf("%s holds %v, want %v", shard, names, want)
				}
			}
		})
	}
}

// BenchmarkAddDocsSteadyState is the write path's steady state: 64
// batches of 4 small XMark documents over an 8-document base under the
// spine's writer policy, per batch, with the ElemRank step's share.
func BenchmarkAddDocsSteadyState(b *testing.B) {
	const batches = 64
	var writes int64
	var elapsed, rank time.Duration
	for i := 0; i < b.N; i++ {
		w, _, d, r := steadyStateWrites(b, batches)
		writes += w
		elapsed += d
		rank += r
	}
	n := float64(b.N * batches)
	b.ReportMetric(float64(elapsed.Milliseconds())/n, "ms/batch")
	b.ReportMetric(float64(rank.Microseconds())/1000/n, "rank-ms/batch")
	b.ReportMetric(float64(writes)/n, "pages/batch")
}

// BenchmarkStaleSegmentDIL prices the rank override a stale segment pays
// per posting: DIL over a base made stale by one AddDocs, against the
// same engine compacted (one segment, ranks baked in).
func BenchmarkStaleSegmentDIL(b *testing.B) {
	e := NewEngine(&Config{IndexDir: b.TempDir(), Shards: 1})
	defer e.Close()
	for d := 0; d < 4; d++ {
		doc := xmark.Generate(xmark.Params{Seed: int64(d), Items: 150, People: 90, OpenAuctions: 100,
			ClosedAuctions: 60, Categories: 10, VocabSize: 500})
		if err := e.AddXML(fmt.Sprintf("base-%d.xml", d), strings.NewReader(doc)); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := e.Build(); err != nil {
		b.Fatal(err)
	}
	small := xmark.Generate(xmark.Params{Seed: 99, Items: 3, People: 2, OpenAuctions: 2,
		ClosedAuctions: 1, Categories: 1, VocabSize: 500})
	if err := e.AddDoc("delta.xml", strings.NewReader(small)); err != nil {
		b.Fatal(err)
	}
	queries := []string{"w0 w1", "w2 w5", "w1 w3 w4", "w7 w9", "w0 w12"}
	run := func(b *testing.B) {
		b.ReportAllocs()
		var postings int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, q := range queries {
				_, st, err := e.SearchDetailed(q, SearchOptions{Algorithm: AlgoDIL})
				if err != nil {
					b.Fatal(err)
				}
				postings += st.IO.Postings
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(postings), "ns/posting")
	}
	b.Run("stale", run)
	if _, err := e.CompactOnce(0); err != nil {
		b.Fatal(err)
	}
	b.Run("compacted", run)
}
