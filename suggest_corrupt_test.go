package xrank

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"xrank/internal/storage"
)

// TestSuggestCorruptArtifact flips bytes across suggest.bin: every
// mutation must fail the open with ErrCorrupt (blob CRC or structural
// validation) — never open an engine serving a damaged dictionary.
func TestSuggestCorruptArtifact(t *testing.T) {
	dir := t.TempDir()
	e := NewEngine(&Config{IndexDir: dir})
	addCorpus(t, e, crashCorpus())
	if _, err := e.Build(); err != nil {
		t.Fatal(err)
	}
	want := suggestCrashSig(t, e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, segmentDirName(0), fileSuggest)
	fs := storage.DefaultFS(nil)
	orig, err := fs.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int{0, 4, 8, 16, 21, len(orig) / 2, len(orig) - 1} {
		if off >= len(orig) {
			continue
		}
		mut := append([]byte(nil), orig...)
		mut[off] ^= 0x40
		if err := storage.WriteFileAtomic(fs, path, mut); err != nil {
			t.Fatal(err)
		}
		if _, oerr := OpenEngine(dir); oerr == nil {
			t.Fatalf("flip at offset %d: corrupted suggest.bin opened cleanly", off)
		} else if !strings.Contains(oerr.Error(), "corrupt") {
			t.Fatalf("flip at offset %d: error does not report corruption: %v", off, oerr)
		}
	}
	if err := storage.WriteFileAtomic(fs, path, orig); err != nil {
		t.Fatal(err)
	}
	re, err := OpenEngine(dir)
	if err != nil {
		t.Fatalf("restored suggest.bin fails to open: %v", err)
	}
	defer re.Close()
	if got := suggestCrashSig(t, re); !reflect.DeepEqual(got, want) {
		t.Fatal("restored suggest.bin changed suggestions")
	}
}

// TestOpenSuggestDisabledDirectory: a directory built while the retired
// SuggestDisabled knob was set (its engine.json says so, and its
// segments have no suggest.bin) opens and answers unchanged. Those
// segments give no completions, with no error, until a fold rewrites
// them, and the fold's dictionary survives a reopen. Without the stored
// flag a missing suggest.bin is corruption.
func TestOpenSuggestDisabledDirectory(t *testing.T) {
	dir := t.TempDir()
	e := NewEngine(&Config{IndexDir: dir, Shards: 2})
	addCorpus(t, e, crashCorpus())
	if _, err := e.Build(); err != nil {
		t.Fatal(err)
	}
	want := crashSig(t, e)
	wantSug := suggestCrashSig(t, e)
	e.Close()
	if err := os.Remove(filepath.Join(dir, segmentDirName(0), fileSuggest)); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenEngine(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open with a missing suggest.bin: %v, want ErrCorrupt", err)
	}
	editEngineConfig(t, dir, func(cfg map[string]any) { cfg["SuggestDisabled"] = true })

	e, err := OpenEngine(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := crashSig(t, e); !reflect.DeepEqual(got, want) {
		t.Fatal("the directory answers differently")
	}
	if sug, st, err := e.Suggest("x", 5); err != nil || len(sug) != 0 || st.Terms != 0 {
		t.Fatalf("Suggest = %v over %d terms (%v), want no completions and no error", sug, st.Terms, err)
	}
	extra := `<book><title>xquery keyword</title></book>`
	if err := e.AddDocs(map[string]io.Reader{"extra.xml": strings.NewReader(extra)}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CompactOnce(0); err != nil {
		t.Fatal(err)
	}
	got := suggestCrashSig(t, e)
	e.Close()

	// The reference: the same documents and the same fold, suggestions on.
	ref := NewEngine(&Config{IndexDir: t.TempDir(), Shards: 2})
	addCorpus(t, ref, crashCorpus())
	if _, err := ref.Build(); err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if err := ref.AddDocs(map[string]io.Reader{"extra.xml": strings.NewReader(extra)}); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.CompactOnce(0); err != nil {
		t.Fatal(err)
	}
	if want := suggestCrashSig(t, ref); !reflect.DeepEqual(got, want) || reflect.DeepEqual(got, wantSug) {
		t.Fatalf("after the fold: suggestions %v, want %v", got, want)
	}
	re, err := OpenEngine(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if sig := suggestCrashSig(t, re); !reflect.DeepEqual(sig, got) {
		t.Fatalf("reopened after the fold: suggestions %v, want %v", sig, got)
	}
}
