package xrank

import (
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
