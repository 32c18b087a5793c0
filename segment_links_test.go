package xrank

import (
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"xrank/internal/datagen/dblp"
	"xrank/internal/elemrank"
)

// The differential's "links" script: documents joined by XLinks, so the
// collection has several connected components that batches merge and
// split, and AddDocs re-solves ElemRank only for the components whose
// document sets changed. Every step is checked bit for bit against the
// replayed from-scratch build like the other scripts, and each batch
// asserts, through the xrank_elemrank_*_solved_total counters, exactly
// which components its rank step solved.

// linkDoc is generated XML content with one XLink per target appended to
// its root.
func (h *segRun) linkDoc(targets ...string) string {
	var b strings.Builder
	for _, t := range targets {
		fmt.Fprintf(&b, `<see xlink="%s">alpha</see>`, t)
	}
	return strings.Replace(h.content(0), "</doc>", b.String()+"</doc>", 1)
}

// page is an HTML page linking to targets; with none, its single element
// is a dangling root.
func (h *segRun) page(targets ...string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "<html><body>alpha beta page uniq%d", h.nextUniq)
	h.nextUniq++
	for _, t := range targets {
		fmt.Fprintf(&b, ` <a href="%s">gamma</a>`, t)
	}
	b.WriteString("</body></html>")
	return b.String()
}

// solveCounters reads the engine's ElemRank solve counters.
func solveCounters(e *Engine) (comps, elems int64) {
	return e.met.componentsSolved.Value(), e.met.elementsSolved.Value()
}

// versionID returns the ID of the newest version of name among the first
// n history entries.
func (h *segRun) versionID(name string, n int) int {
	for id := n - 1; id >= 0; id-- {
		if h.history[id].name == name {
			return id
		}
	}
	h.t.Fatalf("no version of %q", name)
	return -1
}

// linkBatch applies batch and checks that its rank step solved exactly
// the components want, each listed by document name: "name" is the
// newest version after the batch, "name~" the version the batch
// shadowed.
func (h *segRun) linkBatch(tag string, batch map[string]string, want ...[]string) {
	h.t.Helper()
	before := len(h.history)
	c0, e0 := solveCounters(h.cur)
	h.apply(tag, batch)
	c1, e1 := solveCounters(h.cur)
	elems := 0
	for _, comp := range want {
		for _, n := range comp {
			id := 0
			if old, ok := strings.CutSuffix(n, "~"); ok {
				id = h.versionID(old, before)
			} else {
				id = h.versionID(n, len(h.history))
			}
			elems += h.cur.col.Docs[id].NumElements()
		}
	}
	if c1-c0 != int64(len(want)) || e1-e0 != int64(elems) {
		h.t.Fatalf("%s: solved %d components of %d elements, want %v: %d components of %d elements",
			tag, c1-c0, e1-e0, want, len(want), elems)
	}
}

// solvedEverything checks that the solve counters moved by every
// component and element of the collection since (c0, e0).
func (h *segRun) solvedEverything(tag string, c0, e0 int64) {
	h.t.Helper()
	c1, e1 := solveCounters(h.cur)
	comps := len(h.cur.col.Components())
	if c1-c0 != int64(comps) || e1-e0 != int64(h.cur.NumElements()) {
		h.t.Fatalf("%s: solved %d components of %d elements, want all %d of %d",
			tag, c1-c0, e1-e0, comps, h.cur.NumElements())
	}
}

// TestSingleComponentEngineMatchesGlobalSolve: over a fully linked corpus
// (the DBLP fixture, whose citations join every proceedings document)
// the engine's component-wise ranks are the global solve's, bit for bit,
// after Build and after a batch that links into the component.
func TestSingleComponentEngineMatchesGlobalSolve(t *testing.T) {
	e := NewEngine(&Config{IndexDir: t.TempDir(), Shards: 2})
	defer e.Close()
	docs := dblp.Generate(dblp.Params{Seed: 3, Docs: 6, PapersPerDoc: 40})
	for _, d := range docs {
		if err := e.AddXML(d.Name, strings.NewReader(d.XML)); err != nil {
			t.Fatal(err)
		}
	}
	info, err := e.Build()
	if err != nil {
		t.Fatal(err)
	}
	check := func(tag string, iterations int) {
		t.Helper()
		if n := len(e.col.Components()); n != 1 {
			t.Fatalf("%s: %d components, want 1", tag, n)
		}
		g, _ := elemrank.BuildGraph(e.col)
		want, err := elemrank.Compute(g, elemrank.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		if len(e.rank.Scores) != len(want.Scores) {
			t.Fatalf("%s: %d ranks, want %d", tag, len(e.rank.Scores), len(want.Scores))
		}
		for i, r := range e.rank.Scores {
			if math.Float64bits(r) != math.Float64bits(want.Scores[i]) {
				t.Fatalf("%s: rank %d is %v, the global solve %v", tag, i, r, want.Scores[i])
			}
		}
		if iterations >= 0 && iterations != want.Iterations {
			t.Fatalf("%s: %d iterations reported, the global solve took %d", tag, iterations, want.Iterations)
		}
	}
	check("build", info.ElemRankIterations)
	late := fmt.Sprintf(`<proceedings><paper><title>late</title><cite xlink="%s">see</cite></paper></proceedings>`, docs[0].Name)
	if err := e.AddDoc("late.xml", strings.NewReader(late)); err != nil {
		t.Fatal(err)
	}
	check("add", -1)
}

// TestReopenRanksExact: ElemRank is derived, not stored. The links
// script — XLinks that merge and split components, shadowing, HTML
// pages, a failed batch — runs under the paper's final ElemRank formula
// with a reopen after every step, and each reopened engine's ElemRank of
// every element, segment layout and DIL, RDIL, HDIL and disjunctive
// answers equal the live engine's bit for bit (segRun.reopen). The
// script's solve-counter assertions hold across every reopen too: the
// reopened engine's solve, at open or at the first ElemRank, leaves the
// component cache warm.
func TestReopenRanksExact(t *testing.T) {
	t.Run("final", func(t *testing.T) {
		h := startSegRun(t, 1, 20030609*7)
		h.reopenEach = true
		linksScript(h)
	})
}

func linkOp(name string, batch func(h *segRun) map[string]string, want ...[]string) segOp {
	return segOp{name, func(h *segRun, tag string) { h.linkBatch(tag, batch(h), want...) }}
}

// linksScript runs the links script on h, a run startSegRun made.
func linksScript(h *segRun) {
	t := h.t
	h.build([]segVersion{
		{"b0", h.linkDoc()},
		{"b1", h.linkDoc("b2")},
		{"b2", h.linkDoc()},
		{"b3", h.linkDoc()},
		{"p4.html", h.page()},
		{"p5.html", h.page("b3")},
	})
	h.solvedEverything("initial build", 0, 0)
	if got := len(h.cur.col.Components()); got != 4 {
		t.Fatalf("base has %d components, want 4", got)
	}
	var failedID int
	h.run([]segOp{
		// A batch document joins a base document's component.
		linkOp("join", func(h *segRun) map[string]string {
			return map[string]string{"c0": h.linkDoc("b0")}
		}, []string{"b0", "c0"}),
		// c1 links to c3, which arrives two batches later; a page without
		// links is a component of one dangling root.
		linkOp("forward", func(h *segRun) map[string]string {
			return map[string]string{"c1": h.linkDoc("c3"), "p6.html": h.page()}
		}, []string{"c1"}, []string{"p6.html"}),
		// A fragment no version of b1 has dangles.
		linkOp("dangling fragment", func(h *segRun) map[string]string {
			return map[string]string{"c2": h.linkDoc("b1#nope")}
		}, []string{"c2"}),
		linkOp("arrive", func(h *segRun) map[string]string {
			return map[string]string{"c3": h.linkDoc()}
		}, []string{"c1", "c3"}),
		// A new version of b2 retargets b1's link and splits the old
		// version off into a component of its own.
		linkOp("shadow", func(h *segRun) map[string]string {
			return map[string]string{"b2": h.linkDoc()}
		}, []string{"b1", "b2"}, []string{"b2~"}),
		// d0 links an identified element of d1, and d1 links back.
		linkOp("fragment", func(h *segRun) map[string]string {
			d1 := strings.Replace(h.linkDoc("d0"), "</doc>", `<see id="frag">alpha</see></doc>`, 1)
			return map[string]string{"d0": h.linkDoc("d1#frag"), "d1": d1}
		}, []string{"d0", "d1"}),
		// A new version of d1 without that id leaves d0's link dangling,
		// while the old version's link keeps {d0, d1~} together: the same
		// documents, a different subgraph, solved again.
		linkOp("fragment dropped", func(h *segRun) map[string]string {
			return map[string]string{"d1": h.linkDoc()}
		}, []string{"d0", "d1~"}, []string{"d1"}),
		deleteOp,
		// c4 parses, zz does not: the batch fails and its IDs are reused.
		{"fail", func(h *segRun, tag string) {
			failedID = len(h.history)
			docs, segs := h.cur.NumDocs(), h.cur.SegmentCount()
			c0, e0 := solveCounters(h.cur)
			err := h.cur.AddDocs(map[string]io.Reader{
				"c4": strings.NewReader(h.linkDoc()),
				"zz": strings.NewReader("<broken"),
			})
			if err == nil {
				t.Fatalf("%s: AddDocs accepted an unparsable document", tag)
			}
			c1, e1 := solveCounters(h.cur)
			if h.cur.NumDocs() != docs || h.cur.SegmentCount() != segs || c1 != c0 || e1 != e0 {
				t.Fatalf("%s: a failed AddDocs changed the engine", tag)
			}
		}},
		{"reuse", func(h *segRun, tag string) {
			h.linkBatch(tag, map[string]string{"c5": h.linkDoc()}, []string{"c5"})
			if h.liveID["c5"] != failedID {
				t.Fatalf("%s: c5 got document ID %d, the failed batch had %d", tag, h.liveID["c5"], failedID)
			}
		}},
		reopenOp,
		// A stale segment makes open re-solve every component, so the
		// reopened engine's cache is warm: its first batch solves only
		// the component it changes.
		{"warm", func(h *segRun, tag string) {
			h.solvedEverything(tag+": open", 0, 0)
			h.linkBatch(tag, map[string]string{"c6": h.linkDoc("p4.html")}, []string{"p4.html", "c6"})
		}},
		linkOp("grow", func(h *segRun) map[string]string {
			return map[string]string{"c7": h.linkDoc("c6")}
		}, []string{"p4.html", "c6", "c7"}),
		compactOp,
		linkOp("page joins", func(h *segRun) map[string]string {
			return map[string]string{"p8.html": h.page("b0")}
		}, []string{"b0", "c0", "p8.html"}),
	})
}
