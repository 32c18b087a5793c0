package xrank_test

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"xrank"
	"xrank/internal/httpapi"
)

// TestEngineGettersRace runs the engine's read-only accessors against
// every mutator at once — AddDocs, DeleteDoc and /api/docs POSTs, whose
// handler reads NumDocs right after its AddDoc — so that under -race an
// accessor reading the collection, ranks or manifest without the lock
// its writer holds is reported.
func TestEngineGettersRace(t *testing.T) {
	doc := func(n int) string {
		return fmt.Sprintf(`<doc id="d%d"><title>alpha doc%d</title><p>beta gamma <cite xlink="base0">x</cite></p></doc>`, n, n)
	}
	e := xrank.NewEngine(&xrank.Config{IndexDir: t.TempDir(), Shards: 2})
	for i := 0; i < 4; i++ {
		if err := e.AddXML(fmt.Sprintf("base%d", i), strings.NewReader(doc(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Build(); err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	mux := httpapi.NewMux(e, httpapi.Options{Updates: true})

	const rounds = 6
	var writers, readers sync.WaitGroup
	done := make(chan struct{})
	errs := make(chan error, 64)
	writers.Add(3)
	go func() {
		defer writers.Done()
		for i := 0; i < rounds; i++ {
			if err := e.AddDocs(map[string]io.Reader{fmt.Sprintf("add%d", i): strings.NewReader(doc(100 + i))}); err != nil {
				errs <- err
			}
		}
	}()
	go func() {
		defer writers.Done()
		for i := 1; i < 4; i++ {
			if err := e.DeleteDoc(fmt.Sprintf("base%d", i)); err != nil {
				errs <- err
			}
		}
	}()
	go func() {
		defer writers.Done()
		for i := 0; i < rounds; i++ {
			req := httptest.NewRequest(http.MethodPost, fmt.Sprintf("/api/docs?name=post%d", i), strings.NewReader(doc(200+i)))
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				errs <- fmt.Errorf("POST /api/docs: %d %s", rec.Code, rec.Body)
			}
		}
	}()
	readers.Add(2)
	for r := 0; r < 2; r++ {
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if e.NumDocs() < 4 || e.NumElements() == 0 {
					errs <- fmt.Errorf("NumDocs %d, NumElements %d", e.NumDocs(), e.NumElements())
				}
				if _, err := e.ElemRank("0.0"); err != nil {
					errs <- err
				}
				if _, err := e.Ancestors("0.1"); err != nil {
					errs <- err
				}
				if _, err := e.Fragment("0", 1); err != nil {
					errs <- err
				}
				e.DeletedDocs()
			}
		}()
	}
	writers.Wait()
	close(done)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got, want := e.NumDocs(), 4+2*rounds; got != want {
		t.Fatalf("NumDocs = %d after the writers, want %d", got, want)
	}
	if got := e.DeletedDocs(); len(got) != 3 {
		t.Fatalf("DeletedDocs = %v, want the three deleted base documents", got)
	}
}
