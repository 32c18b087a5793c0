package xrank

import (
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xrank/internal/storage"
)

// buildLayoutDir commits crashCorpus as a one-shard, one-segment index.
func buildLayoutDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	e := NewEngine(&Config{IndexDir: dir})
	addCorpus(t, e, crashCorpus())
	if _, err := e.Build(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// hoist moves every entry of dir/sub up into dir and removes sub.
func hoist(t *testing.T, dir, sub string) {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(dir, sub))
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		if err := os.Rename(filepath.Join(dir, sub, ent.Name()), filepath.Join(dir, ent.Name())); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Remove(filepath.Join(dir, sub)); err != nil {
		t.Fatal(err)
	}
}

// editSegments rewrites segments.json through its checksummed envelope,
// so the edit reaches the validator instead of tripping the CRC.
func editSegments(t *testing.T, dir string, edit func(*segmentsManifest)) {
	t.Helper()
	path := filepath.Join(dir, fileSegments)
	var sm segmentsManifest
	if err := storage.ReadManifest(nil, path, &sm); err != nil {
		t.Fatal(err)
	}
	edit(&sm)
	if err := storage.WriteManifestAtomic(nil, path, &sm); err != nil {
		t.Fatal(err)
	}
}

// editShardMeta rewrites the first segment's shard000/meta.json through
// its checksummed envelope, as raw JSON fields.
func editShardMeta(t *testing.T, dir string, edit func(map[string]any)) {
	t.Helper()
	path := filepath.Join(dir, segmentDirName(0), "shard000", "meta.json")
	var meta map[string]any
	if err := storage.ReadManifest(nil, path, &meta); err != nil {
		t.Fatal(err)
	}
	edit(meta)
	if err := storage.WriteManifestAtomic(nil, path, meta); err != nil {
		t.Fatal(err)
	}
}

// TestOpenRefusesOtherShapes: an index directory has exactly one shape.
// Directories laid out any other way — engine.json as the only manifest,
// index files directly in the index directory, an unsharded segment
// directory, a segment that is the index directory itself, a segment in a
// retired postings format — and segments.json contents that disagree with
// the document store are all refused with ErrCorrupt, never opened
// partially and never a panic; a refused shape tells the operator to
// rebuild.
func TestOpenRefusesOtherShapes(t *testing.T) {
	seg := segmentDirName(0)
	for _, tc := range []struct {
		name   string
		hint   bool // the refusal must point at `xrank index`
		mutate func(t *testing.T, dir string)
	}{
		{"engine.json without segments.json", true, func(t *testing.T, dir string) {
			os.Remove(filepath.Join(dir, fileSegments))
		}},
		{"index files in the index directory", true, func(t *testing.T, dir string) {
			os.Remove(filepath.Join(dir, fileSegments))
			hoist(t, dir, seg)
			os.Remove(filepath.Join(dir, "shards.json"))
			hoist(t, dir, "shard000")
		}},
		{"segment directory without shards.json", true, func(t *testing.T, dir string) {
			os.Remove(filepath.Join(dir, seg, "shards.json"))
			hoist(t, filepath.Join(dir, seg), "shard000")
		}},
		{`segment dir "."`, true, func(t *testing.T, dir string) {
			hoist(t, dir, seg)
			editSegments(t, dir, func(sm *segmentsManifest) { sm.Segments[0].Dir = "." })
		}},
		{"segment in per-entry postings", true, func(t *testing.T, dir string) {
			// What such a segment's meta.json records, with or without
			// compress_dewey: no postings format.
			editShardMeta(t, dir, func(m map[string]any) {
				delete(m, "postings_format")
				m["compress_dewey"] = true
			})
		}},
		{"segment in block postings beside B+-trees", true, func(t *testing.T, dir string) {
			editShardMeta(t, dir, func(m map[string]any) { m["postings_format"] = 2 })
		}},
		{"segment without its suggest.bin", false, func(t *testing.T, dir string) {
			os.Remove(filepath.Join(dir, seg, fileSuggest))
		}},
		{"segment directory missing", false, func(t *testing.T, dir string) {
			os.RemoveAll(filepath.Join(dir, seg))
		}},
		{"document missing from the store", false, func(t *testing.T, dir string) {
			os.Remove(filepath.Join(dir, "docs", "000002.xml"))
		}},
		{"document list shorter than the segment's", false, func(t *testing.T, dir string) {
			editSegments(t, dir, func(sm *segmentsManifest) { sm.Docs = sm.Docs[:len(sm.Docs)-1] })
		}},
		{"document list longer than the segment's", false, func(t *testing.T, dir string) {
			editSegments(t, dir, func(sm *segmentsManifest) { sm.Docs = append(sm.Docs, sm.Docs[0]) })
		}},
		{"document checksum disagrees", false, func(t *testing.T, dir string) {
			editSegments(t, dir, func(sm *segmentsManifest) { sm.Docs[1].CRC32++ })
		}},
		{"no segments", false, func(t *testing.T, dir string) {
			editSegments(t, dir, func(sm *segmentsManifest) { sm.Segments = nil })
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := buildLayoutDir(t)
			tc.mutate(t, dir)
			e, err := OpenEngine(dir)
			if err == nil {
				e.Close()
				t.Fatal("opened")
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%v (want ErrCorrupt)", err)
			}
			if tc.hint && !strings.Contains(err.Error(), "xrank index") {
				t.Fatalf("refusal does not point at `xrank index`: %v", err)
			}
		})
	}
}

// legacyQueries are asked of testdata/legacy under every algorithm.
var legacyQueries = []string{"keyword search", "dewey inverted lists", "ranked xml", "correlated keywords", "evaluation"}

// TestOpenCommittedLegacyDirectory: testdata/legacy/index is a directory
// written by `xrank index -shards 2` at commit 9884ddc over
// testdata/legacy/src, in every retired shape at once: each shard holds
// the three lexicons and HDIL's separate rank prefix (hdil.rank,
// hdilrank.skip), ranks-000000.bin stores ElemRank while segments.json
// has no rank CRC, and engine.json carries IndexDir, the ElemRank
// parameters and variant, DisableProximity, PoolPages and
// SlowQueryMillis. A copy of it opens and answers bit-identically to a
// fresh build of the same documents under every algorithm, and stays so
// through AddDocs, DeleteDoc, CompactOnce and a reopen; after the
// compaction no lexicon, retired rank prefix or ranks blob is left.
func TestOpenCommittedLegacyDirectory(t *testing.T) {
	const fixture = "testdata/legacy"
	old := t.TempDir()
	copyDir(t, filepath.Join(fixture, "index"), old)
	for _, name := range []string{"ranks-000000.bin", "seg-000000/shard001/dil.lex", "seg-000000/shard001/hdil.rank"} {
		if _, err := os.Stat(filepath.Join(old, name)); err != nil {
			t.Fatalf("the fixture lost its retired %s: %v", name, err)
		}
	}
	legacy, err := OpenEngine(old)
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewEngine(&Config{IndexDir: t.TempDir(), Shards: 2})
	for _, name := range []string{"alpha.xml", "beta.xml", "gamma.xml"} {
		src, err := os.ReadFile(filepath.Join(fixture, "src", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.AddXML(name, strings.NewReader(string(src))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fresh.Build(); err != nil {
		t.Fatal(err)
	}
	defer func() { legacy.Close(); fresh.Close() }()
	same := func(step string) {
		t.Helper()
		got, want := searchAll(t, legacy, legacyQueries), searchAll(t, fresh, legacyQueries)
		for i := range want {
			if err := sameAnswer(got[i], want[i]); err != nil {
				t.Fatalf("%s: %s %q: %v", step, searchLabel(diffAlgos[i%len(diffAlgos)]), legacyQueries[i/len(diffAlgos)], err)
			}
		}
	}
	both := func(step string, op func(e *Engine) error) {
		t.Helper()
		for _, e := range []*Engine{legacy, fresh} {
			if err := op(e); err != nil {
				t.Fatalf("%s: %v", step, err)
			}
		}
		same(step)
	}

	same("open")
	both("AddDocs", func(e *Engine) error {
		return e.AddDocs(map[string]io.Reader{"delta.xml": strings.NewReader(
			`<note><t>ranked keyword search revisited</t><link href="alpha.xml#c1">keyword retrieval</link></note>`)})
	})
	both("DeleteDoc", func(e *Engine) error { return e.DeleteDoc("beta.xml") })
	both("CompactOnce", func(e *Engine) error {
		_, err := e.CompactOnce(0)
		return err
	})
	err = filepath.WalkDir(old, func(path string, d iofs.DirEntry, err error) error {
		if err == nil && (strings.HasSuffix(path, ".lex") || d.Name() == "hdil.rank" || d.Name() == "hdilrank.skip" || strings.HasPrefix(d.Name(), "ranks-")) {
			err = fmt.Errorf("%s is left after the compaction", path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []**Engine{&legacy, &fresh} {
		dir := (*e).cfg.IndexDir
		if err := (*e).Close(); err != nil {
			t.Fatal(err)
		}
		if *e, err = OpenEngine(dir); err != nil {
			t.Fatal(err)
		}
	}
	same("reopen")
}
