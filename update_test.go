package xrank

import (
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestDeleteDocTombstone(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "idx")
	e := NewEngine(&Config{IndexDir: dir})
	if err := e.AddXML("keep", strings.NewReader(`<r><a>needle in here</a></r>`)); err != nil {
		t.Fatal(err)
	}
	if err := e.AddXML("drop", strings.NewReader(`<r><a>needle too</a></r>`)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Build(); err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	before, err := e.Search("needle")
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != 2 {
		t.Fatalf("before deletion: %d results", len(before))
	}
	if err := e.DeleteDoc("drop"); err != nil {
		t.Fatal(err)
	}
	after, err := e.Search("needle")
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 1 || after[0].Doc != "keep" {
		t.Fatalf("after deletion: %+v", after)
	}
	if got := e.DeletedDocs(); len(got) != 1 || got[0] != "drop" {
		t.Errorf("DeletedDocs = %v", got)
	}
	// Tombstones persist across reopen.
	e.Close()
	re, err := OpenEngine(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	again, err := re.Search("needle")
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 1 || again[0].Doc != "keep" {
		t.Fatalf("after reopen: %+v", again)
	}
	// Errors.
	if err := re.DeleteDoc("drop"); err == nil {
		t.Errorf("double delete should fail")
	}
	if err := re.DeleteDoc("nosuch"); err == nil {
		t.Errorf("deleting unknown doc should fail")
	}
}

func TestUpdateRebuild(t *testing.T) {
	dir1 := filepath.Join(t.TempDir(), "v1")
	e := NewEngine(&Config{IndexDir: dir1})
	if err := e.AddXML("old", strings.NewReader(`<r><a>alpha topic</a></r>`)); err != nil {
		t.Fatal(err)
	}
	if err := e.AddXML("gone", strings.NewReader(`<r><a>beta topic</a></r>`)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Build(); err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.DeleteDoc("gone"); err != nil {
		t.Fatal(err)
	}

	dir2 := filepath.Join(t.TempDir(), "v2")
	ne, err := e.Update(dir2, map[string]io.Reader{
		"new":       strings.NewReader(`<r><a>gamma topic</a></r>`),
		"page.html": strings.NewReader(`<html><body>delta topic page</body></html>`),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ne.Close()

	rs, _, err := ne.SearchDetailed("topic", SearchOptions{TopM: 10})
	if err != nil {
		t.Fatal(err)
	}
	docs := map[string]bool{}
	for _, r := range rs {
		docs[r.Doc] = true
	}
	if !docs["old"] || !docs["new"] || !docs["page.html"] {
		t.Errorf("updated engine docs = %v", docs)
	}
	if docs["gone"] {
		t.Errorf("tombstoned document survived the rebuild")
	}
	// Same directory must be rejected.
	if _, err := e.Update(dir1, nil); err == nil {
		t.Errorf("Update into the same directory should fail")
	}
}

// TestUpdateBesideMutatorsRace runs Update while another goroutine
// deletes and re-adds a document, so that under -race an Update reading
// the document store or the collection without the lock AddDocs and
// DeleteDoc hold is reported. Every rebuilt engine holds the two
// documents no mutator touches.
func TestUpdateBesideMutatorsRace(t *testing.T) {
	base := t.TempDir()
	e := NewEngine(&Config{IndexDir: filepath.Join(base, "idx")})
	for _, n := range []string{"keep0", "keep1", "churn"} {
		if err := e.AddXML(n, strings.NewReader(`<r><a>needle `+n+`</a></r>`)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Build(); err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const rounds = 6
	var wg sync.WaitGroup
	errs := make(chan error, rounds)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if err := e.DeleteDoc("churn"); err != nil {
				errs <- err
				return
			}
			if err := e.AddDoc("churn", strings.NewReader(fmt.Sprintf(`<r><a>needle churn %d</a></r>`, i))); err != nil {
				errs <- err
				return
			}
		}
	}()
	for i := 0; i < rounds; i++ {
		ne, err := e.Update(filepath.Join(base, fmt.Sprintf("update%d", i)), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []string{"keep0", "keep1"} {
			if rs, err := ne.Search(n); err != nil || len(rs) != 1 {
				t.Fatalf("update %d: %q gives %d results (%v), want 1", i, n, len(rs), err)
			}
		}
		ne.Close()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestDisjunctiveSearch(t *testing.T) {
	e := buildEngine(t, nil)
	rs, stats, err := e.SearchDetailed("xyleme navarro", SearchOptions{Disjunctive: true, TopM: 20})
	if err != nil {
		t.Fatal(err)
	}
	if stats == nil || len(rs) < 2 {
		t.Fatalf("disjunctive results = %v", rs)
	}
	// Conjunctive would be empty (the words never co-occur in an element).
	con, err := e.Search("xyleme navarro")
	if err != nil {
		t.Fatal(err)
	}
	if len(con) != 0 {
		// They do co-occur somewhere high up; at minimum disjunctive must
		// return at least as many results.
		if len(rs) < len(con) {
			t.Errorf("disjunctive (%d) smaller than conjunctive (%d)", len(rs), len(con))
		}
	}
}

func TestWeightedSearch(t *testing.T) {
	e := buildEngine(t, nil)
	plain, _, err := e.SearchDetailed("xql language", SearchOptions{TopM: 5, Algorithm: AlgoDIL})
	if err != nil {
		t.Fatal(err)
	}
	weighted, _, err := e.SearchDetailed("xql language", SearchOptions{
		TopM: 5, Algorithm: AlgoDIL, Weights: []float64{3, 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(weighted) != len(plain) {
		t.Fatalf("weighting changed result count: %d vs %d", len(weighted), len(plain))
	}
	if weighted[0].Score == plain[0].Score {
		t.Errorf("weights had no effect on scores")
	}
}
