package xrank

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"xrank/internal/suggest"
)

// Differential harness for the autosuggest subsystem: at every point of
// an incremental add/delete/compact/reopen interleaving, the engine's
// best-first trie completion must equal — scores and order, exactly —
// the brute-force scan over the same per-segment dictionaries, at shard
// counts 1 and 8.

// suggestTries is the test seam exposing the live per-segment tries in
// snapshot order (what Engine.Suggest merges).
func (e *Engine) suggestTries() []*suggest.Trie {
	e.snapMu.RLock()
	defer e.snapMu.RUnlock()
	out := make([]*suggest.Trie, 0, len(e.segs))
	for _, s := range e.segs {
		if s.sug != nil {
			out = append(out, s.sug)
		}
	}
	return out
}

var suggestDiffPrefixes = []string{
	"", "x", "xml", "xq", "k", "key", "keyword", "ch", "the", "s", "vol", "ranked", "zzz",
}

// checkSuggestDifferential compares Engine.Suggest against
// suggest.ScanTopK for a grid of prefixes and k values.
func checkSuggestDifferential(t *testing.T, e *Engine, stage string) {
	t.Helper()
	tries := e.suggestTries()
	if len(tries) == 0 {
		t.Fatalf("%s: no suggest tries live", stage)
	}
	for _, prefix := range suggestDiffPrefixes {
		for _, k := range []int{1, 3, 50} {
			got, st, err := e.Suggest(prefix, k)
			if err != nil {
				t.Fatalf("%s: Suggest(%q, %d): %v", stage, prefix, k, err)
			}
			want := suggest.ScanTopK(tries, prefix, k)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Suggest(%q, %d) = %v, brute force = %v", stage, prefix, k, got, want)
			}
			if st.Prefix != prefix {
				t.Fatalf("%s: normalized %q to %q (inputs are pre-normalized)", stage, prefix, st.Prefix)
			}
			if st.Terms <= 0 {
				t.Fatalf("%s: stats report %d dictionary terms", stage, st.Terms)
			}
		}
	}
}

// suggestSnapshot captures a full-dictionary completion for equality
// checks across operations that must not change suggestions.
func suggestSnapshot(t *testing.T, e *Engine) []Suggestion {
	t.Helper()
	got, _, err := e.Suggest("", 50)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestSuggestDifferential(t *testing.T) {
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			e := NewEngine(&Config{IndexDir: dir, Shards: shards})
			addCorpus(t, e, crashCorpus())
			if _, err := e.Build(); err != nil {
				t.Fatal(err)
			}
			checkSuggestDifferential(t, e, "after Build")

			// Incremental batch: a second segment with fresh terms.
			if err := e.AddDoc("extra.xml", strings.NewReader(
				`<book><title>ranked proximity keyword</title><p>xquery extension volume</p></book>`)); err != nil {
				t.Fatal(err)
			}
			if e.SegmentCount() != 2 {
				t.Fatalf("expected 2 segments, got %d", e.SegmentCount())
			}
			checkSuggestDifferential(t, e, "after AddDocs")

			// DeleteDoc must not move a single suggestion: tombstoned
			// documents keep contributing until a rebuild (Section 4.5
			// semantics; see suggest.go).
			before := suggestSnapshot(t, e)
			if err := e.DeleteDoc("doc2.xml"); err != nil {
				t.Fatal(err)
			}
			checkSuggestDifferential(t, e, "after DeleteDoc")
			if after := suggestSnapshot(t, e); !reflect.DeepEqual(before, after) {
				t.Fatalf("DeleteDoc moved suggestions: %v -> %v", before, after)
			}

			// Shadowing replace: another segment, old version tombstoned.
			if err := e.AddDoc("doc1.xml", strings.NewReader(
				`<book><title>replacement xml chapter</title></book>`)); err != nil {
				t.Fatal(err)
			}
			checkSuggestDifferential(t, e, "after shadowing AddDocs")

			// Reopen: the persisted tries must reproduce the in-memory
			// ones bit-for-bit.
			preReopen := suggestSnapshot(t, e)
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			e, err := OpenEngine(dir)
			if err != nil {
				t.Fatal(err)
			}
			checkSuggestDifferential(t, e, "after reopen")
			if got := suggestSnapshot(t, e); !reflect.DeepEqual(got, preReopen) {
				t.Fatalf("reopen moved suggestions: %v -> %v", preReopen, got)
			}

			// Compaction rebuilds one merged dictionary at the current
			// rank version (weights may legitimately move — stale
			// segments' baked ranks are replaced — but trie-vs-scan
			// exactness and persistence must hold).
			if cs, err := e.CompactOnce(0); err != nil || !cs.Compacted {
				t.Fatalf("CompactOnce: %+v, %v", cs, err)
			}
			checkSuggestDifferential(t, e, "after CompactOnce")

			preReopen = suggestSnapshot(t, e)
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			e, err = OpenEngine(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			checkSuggestDifferential(t, e, "after post-compaction reopen")
			if got := suggestSnapshot(t, e); !reflect.DeepEqual(got, preReopen) {
				t.Fatalf("post-compaction reopen moved suggestions: %v -> %v", preReopen, got)
			}
		})
	}
}

// TestSuggestNormalization checks the raw-input path: queries fold
// through the index tokenizer, so only the last token is completed and
// case folds identically to indexing.
func TestSuggestNormalization(t *testing.T) {
	e := NewEngine(&Config{IndexDir: t.TempDir()})
	addCorpus(t, e, crashCorpus())
	if _, err := e.Build(); err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	lower, _, err := e.Suggest("key", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(lower) == 0 {
		t.Fatal("no completions for 'key'")
	}
	upper, st, err := e.Suggest("ranked KEY", 5)
	if err != nil {
		t.Fatal(err)
	}
	if st.Prefix != "key" {
		t.Fatalf("normalized prefix = %q, want key", st.Prefix)
	}
	if !reflect.DeepEqual(lower, upper) {
		t.Fatalf("case folding diverged: %v vs %v", lower, upper)
	}
}

func TestSuggestDisabled(t *testing.T) {
	dir := t.TempDir()
	e := NewEngine(&Config{IndexDir: dir, SuggestDisabled: true})
	addCorpus(t, e, crashCorpus())
	if _, err := e.Build(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Suggest("x", 5); !errors.Is(err, ErrSuggestDisabled) {
		t.Fatalf("Suggest on a disabled engine: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// The persisted config keeps it disabled across reopen, and no
	// suggest.bin was ever written.
	re, err := OpenEngine(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, _, err := re.Suggest("x", 5); !errors.Is(err, ErrSuggestDisabled) {
		t.Fatalf("Suggest after reopen: %v", err)
	}
}

// TestSuggestMetrics checks the new xrank_suggest_* series move.
func TestSuggestMetrics(t *testing.T) {
	e := NewEngine(&Config{IndexDir: t.TempDir()})
	addCorpus(t, e, crashCorpus())
	if _, err := e.Build(); err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, _, err := e.Suggest("x", 5); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Suggest("zzzmiss", 5); err != nil {
		t.Fatal(err)
	}
	if got := e.met.suggestQueries.Value(); got != 2 {
		t.Fatalf("suggest queries counter = %d, want 2", got)
	}
	if got := e.met.suggestEmpty.Value(); got != 1 {
		t.Fatalf("suggest empty counter = %d, want 1", got)
	}
	if got := e.met.suggestNodes.Value(); got <= 0 {
		t.Fatalf("suggest nodes counter = %d", got)
	}
	if got := e.met.suggestTerms.Value(); got <= 0 || got != int64(e.SuggestTerms()) {
		t.Fatalf("suggest terms gauge = %d, SuggestTerms = %d", got, e.SuggestTerms())
	}
}
