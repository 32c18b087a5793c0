package xrank

import (
	"reflect"
	"testing"
)

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
