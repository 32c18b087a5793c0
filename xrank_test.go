package xrank

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

const proceedings = `<workshop date="28 July 2000">
  <title>XML and IR a SIGIR 2000 Workshop</title>
  <editors>David Carmel, Yoelle Maarek, Aya Soffer</editors>
  <proceedings>
    <paper id="1">
      <title>XQL and Proximal Nodes</title>
      <author>Ricardo Baeza-Yates</author>
      <author>Gonzalo Navarro</author>
      <abstract>We consider the recently proposed language</abstract>
      <body>
        <section name="Introduction">Searching on structured text is more important</section>
        <section name="Implementing XML Operations">
          <subsection name="Path Expressions">At first sight the XQL query language looks</subsection>
        </section>
        <cite ref="2">Querying XML in Xyleme</cite>
      </body>
    </paper>
    <paper id="2">
      <title>Querying XML in Xyleme</title>
    </paper>
  </proceedings>
</workshop>`

func buildEngine(t *testing.T, cfg *Config) *Engine {
	t.Helper()
	e := NewEngine(cfg)
	if err := e.AddXML("sigir2000", strings.NewReader(proceedings)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Build(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func TestEngineQuickstart(t *testing.T) {
	e := buildEngine(t, nil)
	results, err := e.Search("xql language")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no results")
	}
	// The most specific element containing both keywords is the
	// subsection; it must be present and carry a path + snippet.
	foundSub := false
	for _, r := range results {
		if r.Tag == "subsection" {
			foundSub = true
			if !strings.Contains(r.Path, "paper/body/section/subsection") {
				t.Errorf("subsection path = %q", r.Path)
			}
			if !strings.Contains(r.Snippet, "XQL query language") {
				t.Errorf("snippet = %q", r.Snippet)
			}
			if r.Doc != "sigir2000" {
				t.Errorf("doc = %q", r.Doc)
			}
		}
		if r.Tag == "section" || r.Tag == "body" {
			t.Errorf("spurious ancestor %q in results", r.Tag)
		}
		if r.Score <= 0 {
			t.Errorf("non-positive score for %s", r.Path)
		}
	}
	if !foundSub {
		t.Errorf("subsection missing from results: %+v", results)
	}
}

func TestEngineAllAlgorithmsAgree(t *testing.T) {
	e := buildEngine(t, nil)
	var ref []SearchResult
	for _, algo := range []Algorithm{AlgoDIL, AlgoRDIL, AlgoHDIL} {
		rs, stats, err := e.SearchDetailed("xql language", SearchOptions{Algorithm: algo, TopM: 20, ColdCache: true})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if stats.Algorithm != algo || stats.IO.Reads == 0 {
			t.Errorf("%v stats = %+v", algo, stats)
		}
		if ref == nil {
			ref = rs
			continue
		}
		if len(rs) != len(ref) {
			t.Fatalf("%v returned %d results, want %d", algo, len(rs), len(ref))
		}
		for i := range rs {
			if rs[i].DeweyID != ref[i].DeweyID {
				t.Errorf("%v result %d = %s, want %s", algo, i, rs[i].DeweyID, ref[i].DeweyID)
			}
		}
	}
}

func TestEnginePersistence(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "idx")
	e := NewEngine(&Config{IndexDir: dir})
	if err := e.AddXML("sigir2000", strings.NewReader(proceedings)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Build(); err != nil {
		t.Fatal(err)
	}
	want, err := e.Search("xql language")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenEngine(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got, err := re.Search("xql language")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("reopened engine: %d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].DeweyID != want[i].DeweyID || got[i].Score != want[i].Score {
			t.Errorf("result %d differs after reopen: %+v vs %+v", i, got[i], want[i])
		}
	}
}

func TestAnswerTags(t *testing.T) {
	e := buildEngine(t, &Config{AnswerTags: []string{"paper", "workshop"}})
	results, err := e.Search("xql language")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no results")
	}
	for _, r := range results {
		if r.Tag != "paper" && r.Tag != "workshop" {
			t.Errorf("non-answer-node result %q (%s)", r.Tag, r.Path)
		}
	}
	// The subsection hit must collapse to its paper.
	if results[0].Tag != "paper" {
		t.Errorf("top answer-node result = %q", results[0].Tag)
	}
}

func TestAncestorsNavigation(t *testing.T) {
	e := buildEngine(t, nil)
	results, err := e.Search("xql language")
	if err != nil || len(results) == 0 {
		t.Fatal(err)
	}
	var sub SearchResult
	for _, r := range results {
		if r.Tag == "subsection" {
			sub = r
		}
	}
	anc, err := e.Ancestors(sub.DeweyID)
	if err != nil {
		t.Fatal(err)
	}
	wantChain := []string{"section", "body", "paper", "proceedings", "workshop"}
	if len(anc) != len(wantChain) {
		t.Fatalf("ancestors = %d, want %d", len(anc), len(wantChain))
	}
	for i, w := range wantChain {
		if anc[i].Tag != w {
			t.Errorf("ancestor %d = %q, want %q", i, anc[i].Tag, w)
		}
	}
	if _, err := e.Ancestors("99.99"); err == nil {
		t.Errorf("Ancestors of bogus ID should fail")
	}
}

func TestMixedHTMLCollection(t *testing.T) {
	e := NewEngine(nil)
	if err := e.AddXML("sigir2000", strings.NewReader(proceedings)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		page := fmt.Sprintf(`<html><body><h1>xml research page %d</h1>
		<p>notes about the xql language</p>
		<a href="sigir2000">workshop</a></body></html>`, i)
		if err := e.AddHTML(fmt.Sprintf("page%d.html", i), strings.NewReader(page)); err != nil {
			t.Fatal(err)
		}
	}
	info, err := e.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if info.ResolvedLinks == 0 {
		t.Errorf("HTML->XML links not resolved: %+v", info)
	}
	results, err := e.Search("xql language")
	if err != nil {
		t.Fatal(err)
	}
	sawHTML, sawXML := false, false
	for _, r := range results {
		if strings.HasSuffix(r.Doc, ".html") {
			sawHTML = true
			// HTML results must be whole documents (the root element).
			if strings.Contains(r.Path, "/") {
				t.Errorf("HTML result is not the root: %s", r.Path)
			}
		} else {
			sawXML = true
		}
	}
	if !sawHTML || !sawXML {
		t.Errorf("mixed corpus should return both kinds: html=%v xml=%v", sawHTML, sawXML)
	}
}

func TestElemRankAccessor(t *testing.T) {
	e := buildEngine(t, nil)
	r, err := e.ElemRank("0")
	if err != nil || r <= 0 {
		t.Errorf("root ElemRank = %g, %v", r, err)
	}
	if _, err := e.ElemRank("not-an-id"); err == nil {
		t.Errorf("bad ID should fail")
	}
	if _, err := e.ElemRank("9.9.9"); err == nil {
		t.Errorf("missing element should fail")
	}
}

func TestEngineErrors(t *testing.T) {
	e := NewEngine(nil)
	if _, err := e.Build(); err == nil {
		t.Errorf("Build with no documents should fail")
	}
	if _, err := e.Search("x"); err == nil {
		t.Errorf("Search before build should fail")
	}
	if err := e.AddXML("d", strings.NewReader("<a>hi</a>")); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Build(); err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.AddXML("d2", strings.NewReader("<a>more</a>")); err == nil {
		t.Errorf("Add after Build should fail")
	}
	if _, err := e.Build(); err == nil {
		t.Errorf("double Build should fail")
	}
	if _, err := e.Search("   "); err == nil {
		t.Errorf("empty query should fail")
	}
	if _, _, err := e.SearchDetailed("hi", SearchOptions{Algorithm: Algorithm(99)}); err == nil {
		t.Errorf("unknown algorithm should fail")
	}
}

func TestFragment(t *testing.T) {
	e := buildEngine(t, nil)
	results, err := e.Search("xql language")
	if err != nil || len(results) == 0 {
		t.Fatal(err)
	}
	var sub SearchResult
	for _, r := range results {
		if r.Tag == "subsection" {
			sub = r
		}
	}
	frag, err := e.Fragment(sub.DeweyID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(frag, "<subsection") || !strings.Contains(frag, "XQL query language") {
		t.Errorf("fragment = %s", frag)
	}
	// Depth-limited fragment of the whole paper.
	paper := sub.DeweyID[:strings.LastIndex(sub.DeweyID, ".")]
	paper = paper[:strings.LastIndex(paper, ".")]
	paper = paper[:strings.LastIndex(paper, ".")]
	frag2, err := e.Fragment(paper, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(frag2, "<paper") || strings.Contains(frag2, "<subsection") {
		t.Errorf("depth-limited fragment = %s", frag2)
	}
	if _, err := e.Fragment("bogus", 0); err == nil {
		t.Errorf("bad ID should fail")
	}
}

func TestBuildInfoShape(t *testing.T) {
	e := NewEngine(nil)
	if err := e.AddXML("sigir2000", strings.NewReader(proceedings)); err != nil {
		t.Fatal(err)
	}
	info, err := e.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if info.NumDocs != 1 || info.NumElements == 0 || info.Terms == 0 {
		t.Errorf("info = %+v", info)
	}
	if !info.ElemRankConverged || info.ElemRankIterations == 0 {
		t.Errorf("elemrank did not run: %+v", info)
	}
	// The Table 1 shape against the naive baselines is asserted in the
	// index and bench package tests.
	if info.Sizes.DILList == 0 || info.Sizes.Meta.DeweyEntries == 0 {
		t.Errorf("sizes shape wrong: %+v", info.Sizes)
	}
}
