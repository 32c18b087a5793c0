package index

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xrank/internal/elemrank"
	"xrank/internal/storage"
	"xrank/internal/xmldoc"
)

func buildIndexDir(t *testing.T) string {
	dir, _ := buildIndexDirs(t)
	return dir
}

// buildIndexDirs builds one small collection's index and its naive
// baseline index, each in a directory of its own.
func buildIndexDirs(t *testing.T) (dir, naiveDir string) {
	t.Helper()
	c := xmldoc.NewCollection()
	doc := `<w><t>xml keyword search engines</t><p><t>ranked retrieval</t><b>xml query language</b></p></w>`
	if _, err := c.AddXML("d", strings.NewReader(doc), nil); err != nil {
		t.Fatal(err)
	}
	g, _ := elemrank.BuildGraph(c)
	res, err := elemrank.Compute(g, elemrank.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	dir, naiveDir = t.TempDir(), t.TempDir()
	if _, err := Build(c, res.Scores, dir, BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := BuildNaive(c, res.Scores, naiveDir, BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	return dir, naiveDir
}

// persistedFiles lists every file of both directories with the opener
// that must reject it damaged: Open for the index, OpenNaive for the
// naive baseline (whose file names are disjoint from the index's).
func persistedFiles(t *testing.T) []corruptTarget {
	dir, naiveDir := buildIndexDirs(t)
	var out []corruptTarget
	for _, d := range []corruptTarget{
		{dir: dir, manifest: fileMeta, open: func() error {
			ix, err := Open(dir, OpenOptions{})
			if err == nil {
				ix.Close()
			}
			return err
		}},
		{dir: naiveDir, manifest: fileNaiveMeta, open: func() error {
			nx, err := OpenNaive(naiveDir, OpenOptions{})
			if err == nil {
				nx.Close()
			}
			return err
		}},
	} {
		if _, err := os.Stat(filepath.Join(d.dir, d.manifest)); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(d.dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, ent := range entries {
			if !ent.IsDir() {
				d.name = ent.Name()
				out = append(out, d)
			}
		}
	}
	return out
}

type corruptTarget struct {
	dir, manifest, name string
	open                func() error
}

// TestOpenDetectsCorruption flips one byte in every persisted index file
// in turn: each mutation must fail Open with an ErrCorrupt-wrapping
// error — never a panic, never a silent success over bad data.
func TestOpenDetectsCorruption(t *testing.T) {
	for _, f := range persistedFiles(t) {
		dir, name := f.dir, f.name
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(dir, name)
			pristine, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			defer os.WriteFile(path, pristine, 0o644)
			mut := append([]byte{}, pristine...)
			mut[len(mut)/2] ^= 0x40
			if err := os.WriteFile(path, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			err = f.open()
			if err == nil {
				t.Fatalf("open succeeded over corrupted %s", name)
			}
			if !errors.Is(err, storage.ErrCorrupt) {
				t.Fatalf("corrupted %s: %v (want ErrCorrupt)", name, err)
			}
		})
	}
}

// TestOpenDetectsTruncation truncates each data file to half its length;
// size verification must reject every one.
func TestOpenDetectsTruncation(t *testing.T) {
	for _, f := range persistedFiles(t) {
		if f.name == f.manifest {
			continue // manifest truncation is covered by the corruption test
		}
		dir, name := f.dir, f.name
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(dir, name)
			pristine, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			defer os.WriteFile(path, pristine, 0o644)
			if err := os.WriteFile(path, pristine[:len(pristine)/2], 0o644); err != nil {
				t.Fatal(err)
			}
			if f.open() == nil {
				t.Fatalf("open succeeded over truncated %s", name)
			}
		})
	}
}

// TestOpenRejectsEditedMeta: a meta.json that validly envelopes something
// this build cannot serve is corrupt, not trusted — no checksum for a
// required file (a hand-edited manifest), or a postings format other than
// the one this build reads.
func TestOpenRejectsEditedMeta(t *testing.T) {
	for name, edit := range map[string]func(*Meta){
		"missing checksum":        func(m *Meta) { delete(m.Files, fileDILPost) },
		"per-entry postings":      func(m *Meta) { m.PostingsFormat = 0 },
		"postings with B+-trees":  func(m *Meta) { m.PostingsFormat = 2 },
		"unknown postings format": func(m *Meta) { m.PostingsFormat = PostingsFormat + 1 },
		"term count":              func(m *Meta) { m.Terms++ },
	} {
		dir := buildIndexDir(t)
		var meta Meta
		if err := storage.ReadManifest(nil, filepath.Join(dir, fileMeta), &meta); err != nil {
			t.Fatal(err)
		}
		edit(&meta)
		if err := storage.WriteManifestAtomic(nil, filepath.Join(dir, fileMeta), &meta); err != nil {
			t.Fatal(err)
		}
		_, err := Open(dir, OpenOptions{})
		if !errors.Is(err, storage.ErrCorrupt) {
			t.Fatalf("%s: %v (want ErrCorrupt)", name, err)
		}
	}
}

// TestOpenRejectsListsFromDifferentBuilds: with no lexicon to cross-check
// a skip index against, Open holds the two lists to each other. An RDIL
// list and skip index from another build over the same vocabulary — both
// files checksummed in meta.json, so verification passes — must be
// refused, because a term's entry counts differ between the lists.
func TestOpenRejectsListsFromDifferentBuilds(t *testing.T) {
	_, _, a := buildTestIndex(t, map[string]string{"d": smallDoc}, BuildOptions{})
	_, _, b := buildTestIndex(t, map[string]string{"d": strings.Replace(smallDoc, "</lib>", "<ch>blue sea</ch></lib>", 1)}, BuildOptions{})
	if a.Meta.Terms != b.Meta.Terms {
		t.Fatalf("vocabularies differ: %d and %d terms", a.Meta.Terms, b.Meta.Terms)
	}
	var meta Meta
	if err := storage.ReadManifest(nil, filepath.Join(a.Dir, fileMeta), &meta); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{fileRDILPost, fileRDILSkip} {
		raw, err := os.ReadFile(filepath.Join(b.Dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(a.Dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		meta.Files[name] = b.Meta.Files[name]
	}
	if err := storage.WriteManifestAtomic(nil, filepath.Join(a.Dir, fileMeta), &meta); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(a.Dir, OpenOptions{}); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("Open = %v, want ErrCorrupt", err)
	}
}
