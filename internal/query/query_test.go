package query

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"xrank/internal/dewey"
	"xrank/internal/elemrank"
	"xrank/internal/index"
	"xrank/internal/storage"
	"xrank/internal/xmldoc"
)

// fixture bundles a parsed collection, its ranks and an opened index.
type fixture struct {
	c     *xmldoc.Collection
	ranks []float64
	ix    *index.Index
}

// naive builds and opens the naive baseline index over the fixture's
// collection and ranks.
func (fx *fixture) naive(t *testing.T) *index.NaiveIndex {
	t.Helper()
	dir := t.TempDir()
	if _, err := index.BuildNaive(fx.c, fx.ranks, dir, index.BuildOptions{}); err != nil {
		t.Fatalf("BuildNaive: %v", err)
	}
	nx, err := index.OpenNaive(dir, index.OpenOptions{})
	if err != nil {
		t.Fatalf("OpenNaive: %v", err)
	}
	t.Cleanup(func() { nx.Close() })
	return nx
}

func newFixture(t *testing.T, docs []string, opts index.BuildOptions) *fixture {
	t.Helper()
	c := xmldoc.NewCollection()
	for i, s := range docs {
		if _, err := c.AddXML(fmt.Sprintf("doc%03d", i), strings.NewReader(s), nil); err != nil {
			t.Fatalf("AddXML doc%03d: %v", i, err)
		}
	}
	g, _ := elemrank.BuildGraph(c)
	res, err := elemrank.Compute(g, elemrank.DefaultParams())
	if err != nil || !res.Converged {
		t.Fatalf("elemrank: %v", err)
	}
	dir := t.TempDir()
	if _, err := index.Build(c, res.Scores, dir, opts); err != nil {
		t.Fatalf("Build: %v", err)
	}
	ix, err := index.Open(dir, index.OpenOptions{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { ix.Close() })
	return &fixture{c: c, ranks: res.Scores, ix: ix}
}

const figure1 = `<workshop date="28 July 2000">
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

func elementByPath(t *testing.T, c *xmldoc.Collection, path string) *xmldoc.Element {
	t.Helper()
	for _, d := range c.Docs {
		var found *xmldoc.Element
		xmldoc.Walk(d.Root, func(e *xmldoc.Element) bool {
			if xmldoc.Path(e) == path {
				found = e
				return false
			}
			return true
		})
		if found != nil {
			return found
		}
	}
	t.Fatalf("no element at %s", path)
	return nil
}

func containsID(rs []Result, id dewey.ID) bool {
	for _, r := range rs {
		if dewey.Equal(r.ID, id) {
			return true
		}
	}
	return false
}

// TestFigure1Semantics walks the paper's worked example (Section 2.2): the
// query 'XQL language' returns the <subsection> (most specific), does NOT
// return its <section>/<body> ancestors whose only occurrences are in the
// subsection... except <body> also holds no independent occurrences, while
// <paper> does (title and abstract), so <paper> IS a result.
func TestFigure1Semantics(t *testing.T) {
	fx := newFixture(t, []string{figure1}, index.BuildOptions{})
	results, err := DIL(fx.ix, []string{"xql", "language"}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sub := elementByPath(t, fx.c, "workshop/proceedings/paper/body/section/subsection")
	sec := sub.Parent
	body := sec.Parent
	paper := body.Parent
	if !containsID(results, sub.DeweyID()) {
		t.Errorf("subsection should be a result")
	}
	if containsID(results, sec.DeweyID()) {
		t.Errorf("section is spurious (only occurrence is the subsection result)")
	}
	if containsID(results, body.DeweyID()) {
		t.Errorf("body is spurious")
	}
	if !containsID(results, paper.DeweyID()) {
		t.Errorf("paper should be a result (independent occurrences in title and abstract)")
	}
}

// TestSofferXQLTwoDimensionalProximity checks the paper's introduction
// example: for 'Soffer XQL' the keywords are close in the raw text (lines
// 3 and 6 of Figure 1) but their deepest common ancestor is the whole
// <workshop>, so the result exists yet ranks far below a truly specific
// result — the ancestor-distance dimension of proximity at work via the
// decay factor.
func TestSofferXQLTwoDimensionalProximity(t *testing.T) {
	fx := newFixture(t, []string{figure1}, index.BuildOptions{})
	opts := DefaultOptions()
	opts.TopM = 100
	wide, err := DIL(fx.ix, []string{"soffer", "xql"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(wide) != 1 {
		t.Fatalf("'soffer xql' results = %d, want exactly the workshop root", len(wide))
	}
	root := fx.c.Docs[0].Root
	if !dewey.Equal(wide[0].ID, root.DeweyID()) {
		t.Fatalf("'soffer xql' result = %v, want workshop root", wide[0].ID)
	}
	narrow, err := DIL(fx.ix, []string{"xql", "language"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	sub := elementByPath(t, fx.c, "workshop/proceedings/paper/body/section/subsection")
	var subScore float64
	for _, r := range narrow {
		if dewey.Equal(r.ID, sub.DeweyID()) {
			subScore = r.Score
		}
	}
	if subScore == 0 {
		t.Fatalf("subsection missing from 'xql language' results")
	}
	if wide[0].Score >= subScore/2 {
		t.Errorf("unspecific workshop result (%g) should score far below the specific subsection (%g)",
			wide[0].Score, subScore)
	}
}

func sameResults(t *testing.T, name string, got, want []Result, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d\n got: %v\nwant: %v", name, len(got), len(want), got, want)
	}
	for i := range got {
		if !dewey.Equal(got[i].ID, want[i].ID) {
			t.Fatalf("%s: result %d ID %v, want %v (scores %g vs %g)", name, i, got[i].ID, want[i].ID, got[i].Score, want[i].Score)
		}
		if d := math.Abs(got[i].Score - want[i].Score); d > tol*(math.Abs(want[i].Score)+1e-300) && d > 1e-15 {
			t.Fatalf("%s: result %d (%v) score %g, want %g", name, i, got[i].ID, got[i].Score, want[i].Score)
		}
	}
}

func TestDILMatchesBruteForce(t *testing.T) {
	fx := newFixture(t, []string{figure1}, index.BuildOptions{})
	for _, q := range [][]string{
		{"xql", "language"},
		{"xml", "workshop"},
		{"soffer", "xql"},
		{"querying", "xyleme"},
		{"xql"},
		{"xml"},
		{"ricardo", "xql"},
		{"xml", "xql", "language"},
	} {
		opts := DefaultOptions()
		opts.TopM = 1000
		want, err := BruteForce(fx.c, fx.ranks, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DIL(fx.ix, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, fmt.Sprintf("DIL(%v)", q), got, want, 1e-9)
	}
}

// randomCorpus builds nd random documents with nested structure, a 40-word
// vocabulary (dense co-occurrence) and occasional references.
func randomCorpus(r *rand.Rand, nd int) []string {
	docs := make([]string, nd)
	for d := 0; d < nd; d++ {
		var b strings.Builder
		var gen func(depth int)
		id := 0
		gen = func(depth int) {
			id++
			tag := fmt.Sprintf("e%d", id%7)
			fmt.Fprintf(&b, "<%s>", tag)
			nWords := r.Intn(5)
			for w := 0; w < nWords; w++ {
				fmt.Fprintf(&b, " v%d", r.Intn(40))
			}
			if depth < 5 {
				for c := 0; c < r.Intn(4); c++ {
					gen(depth + 1)
				}
			}
			fmt.Fprintf(&b, "</%s>", tag)
		}
		b.WriteString("<root>")
		gen(0)
		gen(0)
		b.WriteString("</root>")
		docs[d] = b.String()
	}
	return docs
}

// costModels are the two devices HDIL's estimator is run with: whichever
// way a model tips the switch, the results must not change.
var costModels = []struct {
	name string
	cm   storage.CostModel
}{
	{"serving", storage.DefaultCostModel()},
	{"paper-disk", storage.PaperDiskCostModel()},
}

func TestAllAlgorithmsAgreeOnRandomCorpora(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		r := rand.New(rand.NewSource(seed))
		fx := newFixture(t, randomCorpus(r, 3), index.BuildOptions{MinRankPrefix: 4, RankFraction: 0.2})
		for trial := 0; trial < 12; trial++ {
			nk := 1 + r.Intn(3)
			q := make([]string, nk)
			for i := range q {
				q[i] = fmt.Sprintf("v%d", r.Intn(40))
			}
			opts := DefaultOptions()
			opts.TopM = 5
			// Ground truth: brute force, truncated to top-m.
			all, err := BruteForce(fx.c, fx.ranks, q, opts)
			if err != nil {
				t.Fatal(err)
			}
			want := all
			if len(want) > opts.TopM {
				want = want[:opts.TopM]
			}
			gotDIL, err := DIL(fx.ix, q, opts)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, fmt.Sprintf("seed%d DIL(%v)", seed, q), gotDIL, want, 1e-9)

			gotRDIL, err := RDIL(fx.ix, q, opts)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, fmt.Sprintf("seed%d RDIL(%v)", seed, q), gotRDIL, want, 1e-9)

			for _, m := range costModels {
				gotHDIL, _, err := HDIL(fx.ix, q, opts, m.cm)
				if err != nil {
					t.Fatal(err)
				}
				sameResults(t, fmt.Sprintf("seed%d HDIL/%s(%v)", seed, m.name, q), gotHDIL, want, 1e-9)
			}
		}
	}
}

func TestNaiveIDReturnsR0(t *testing.T) {
	fx := newFixture(t, []string{figure1}, index.BuildOptions{})
	q := []string{"xql", "language"}
	wantElems, err := BruteForceR0(fx.c, q)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.TopM = 1000
	got, err := NaiveID(fx.naive(t), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameElems(t, "NaiveID", got, wantElems)
	// The naive result set must include spurious ancestors that DIL prunes:
	// strictly more results than Result(Q) here.
	dil, err := DIL(fx.ix, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) <= len(dil) {
		t.Errorf("naive should return spurious ancestors: naive %d <= dil %d", len(got), len(dil))
	}
}

func TestNaiveRankMatchesNaiveID(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	fx := newFixture(t, randomCorpus(r, 3), index.BuildOptions{})
	nx := fx.naive(t)
	for trial := 0; trial < 10; trial++ {
		nk := 1 + r.Intn(2)
		q := make([]string, nk)
		for i := range q {
			q[i] = fmt.Sprintf("v%d", r.Intn(40))
		}
		opts := DefaultOptions()
		opts.TopM = 5
		a, err := NaiveID(nx, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NaiveRank(nx, q, opts)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, fmt.Sprintf("naive(%v)", q), b, a, 1e-9)
	}
}

// sameElems checks that a naive result set is exactly the given global
// element indexes (the single-component IDs NaiveID returns).
func sameElems(t *testing.T, name string, got []Result, want []int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d (R0)", name, len(got), len(want))
	}
	gotSet := map[int32]bool{}
	for _, r := range got {
		if len(r.ID) != 1 {
			t.Fatalf("%s: result %v is not an element index", name, r.ID)
		}
		gotSet[int32(r.ID[0])] = true
	}
	for _, e := range want {
		if !gotSet[e] {
			t.Errorf("%s missing R0 element %d", name, e)
		}
	}
}

func TestMissingKeywordEmptiesConjunction(t *testing.T) {
	fx := newFixture(t, []string{figure1}, index.BuildOptions{})
	cm := storage.DefaultCostModel()
	q := []string{"xql", "zzzznotthere"}
	if rs, err := DIL(fx.ix, q, DefaultOptions()); err != nil || rs != nil {
		t.Errorf("DIL: %v %v", rs, err)
	}
	if rs, err := RDIL(fx.ix, q, DefaultOptions()); err != nil || rs != nil {
		t.Errorf("RDIL: %v %v", rs, err)
	}
	if rs, _, err := HDIL(fx.ix, q, DefaultOptions(), cm); err != nil || rs != nil {
		t.Errorf("HDIL: %v %v", rs, err)
	}
	nx := fx.naive(t)
	if rs, err := NaiveID(nx, q, DefaultOptions()); err != nil || rs != nil {
		t.Errorf("NaiveID: %v %v", rs, err)
	}
	if rs, err := NaiveRank(nx, q, DefaultOptions()); err != nil || rs != nil {
		t.Errorf("NaiveRank: %v %v", rs, err)
	}
}

func TestAggSumSupport(t *testing.T) {
	fx := newFixture(t, []string{figure1}, index.BuildOptions{})
	opts := DefaultOptions()
	opts.Agg = AggSum
	opts.TopM = 100
	want, err := BruteForce(fx.c, fx.ranks, []string{"xql", "language"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DIL(fx.ix, []string{"xql", "language"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "DIL sum", got, want, 1e-9)
	// The threshold algorithms must reject AggSum.
	if _, err := RDIL(fx.ix, []string{"xql", "language"}, opts); err == nil {
		t.Errorf("RDIL should reject AggSum")
	}
	if _, _, err := HDIL(fx.ix, []string{"xql", "language"}, opts, storage.DefaultCostModel()); err == nil {
		t.Errorf("HDIL should reject AggSum")
	}
	if _, err := NaiveRank(fx.naive(t), []string{"xql", "language"}, opts); err == nil {
		t.Errorf("NaiveRank should reject AggSum")
	}
}

func TestProximityOffMatchesBruteForce(t *testing.T) {
	fx := newFixture(t, []string{figure1}, index.BuildOptions{})
	opts := DefaultOptions()
	opts.UseProximity = false
	opts.TopM = 100
	q := []string{"xml", "workshop"}
	want, _ := BruteForce(fx.c, fx.ranks, q, opts)
	got, err := DIL(fx.ix, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "DIL no-prox", got, want, 1e-9)
}

func TestProximityFunction(t *testing.T) {
	cases := []struct {
		lists [][]uint32
		want  float64
	}{
		{[][]uint32{{5}, {6}}, 1},                        // adjacent
		{[][]uint32{{5}, {9}}, 2.0 / 5.0},                // window 5
		{[][]uint32{{0, 100}, {101}}, 1},                 // best window uses 100,101
		{[][]uint32{{1}, {2}, {3}}, 1},                   // 3 adjacent
		{[][]uint32{{1}, {2}, {12}}, 3.0 / 12.0},         // window 1..12
		{[][]uint32{{7}}, 1},                             // single keyword
		{[][]uint32{{1}, {}}, 0},                         // missing keyword
		{[][]uint32{}, 0},                                // no keywords
		{[][]uint32{{4}, {4}}, 1},                        // duplicate positions clamp
		{[][]uint32{{0, 50}, {60, 200}, {55}}, 3. / 11.}, // window 50..60
	}
	for _, c := range cases {
		if got := Proximity(c.lists); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Proximity(%v) = %g, want %g", c.lists, got, c.want)
		}
	}
}

func TestResultHeapTopM(t *testing.T) {
	h := newResultHeap(3)
	for i := 0; i < 10; i++ {
		h.offer(Result{ID: dewey.ID{uint32(i)}, Score: float64(i % 7)})
	}
	out := h.sorted()
	if len(out) != 3 {
		t.Fatalf("heap kept %d", len(out))
	}
	if out[0].Score != 6 || out[1].Score != 5 || out[2].Score != 4 {
		t.Errorf("heap top = %v", out)
	}
	// Ties: with equal scores, the smallest IDs are kept, in ID order.
	h2 := newResultHeap(2)
	for i := 5; i >= 1; i-- {
		h2.offer(Result{ID: dewey.ID{uint32(i)}, Score: 1.0})
	}
	out2 := h2.sorted()
	if len(out2) != 2 || out2[0].ID[0] != 1 || out2[1].ID[0] != 2 {
		t.Errorf("tie handling = %v", out2)
	}
}

func TestInvalidOptions(t *testing.T) {
	fx := newFixture(t, []string{figure1}, index.BuildOptions{})
	opts := DefaultOptions()
	opts.Decay = 1.5
	if _, err := DIL(fx.ix, []string{"xml"}, opts); err == nil {
		t.Errorf("decay > 1 should be rejected")
	}
	if _, err := DIL(fx.ix, nil, DefaultOptions()); err == nil {
		t.Errorf("empty query should be rejected")
	}
	if _, err := DIL(fx.ix, []string{""}, DefaultOptions()); err == nil {
		t.Errorf("empty keyword should be rejected")
	}
}

func TestDuplicateKeywordsDeduped(t *testing.T) {
	fx := newFixture(t, []string{figure1}, index.BuildOptions{})
	a, err := DIL(fx.ix, []string{"xql", "xql"}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := DIL(fx.ix, []string{"xql"}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "dedup", a, b, 0)
}

// TestHDILSwitches builds a corpus with frequent-but-uncorrelated
// keywords, where the ranked strategy cannot find m results and must
// switch to DIL within its first round (the Figure 11 regime).
func TestHDILSwitches(t *testing.T) {
	var docs []string
	var b strings.Builder
	b.WriteString("<root>")
	for i := 0; i < 800; i++ {
		// 'alpha' and 'beta' are each frequent but never co-occur in any
		// element except the root.
		if i%2 == 0 {
			fmt.Fprintf(&b, "<item>alpha filler f%d</item>", i%31)
		} else {
			fmt.Fprintf(&b, "<item>beta filler f%d</item>", i%31)
		}
	}
	b.WriteString("</root>")
	docs = append(docs, b.String())
	fx := newFixture(t, docs, index.BuildOptions{MinRankPrefix: 8, RankFraction: 0.02})
	opts := DefaultOptions()
	opts.TopM = 10
	want, err := DIL(fx.ix, []string{"alpha", "beta"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range costModels {
		got, trace, err := HDIL(fx.ix, []string{"alpha", "beta"}, opts, m.cm)
		if err != nil {
			t.Fatal(err)
		}
		if !trace.SwitchedToDIL || trace.SwitchReason == "" || trace.RankedEntriesRead > 2 {
			t.Errorf("%s model: HDIL should have switched within its first round on uncorrelated keywords (trace %+v)", m.name, trace)
		}
		sameResults(t, "HDIL switched/"+m.name, got, want, 1e-9)
	}
}

// TestRDILStopsEarly verifies the point of RDIL: on highly correlated
// keywords it terminates after reading far fewer entries than the list
// length (Figure 10's regime).
func TestRDILStopsEarly(t *testing.T) {
	var b strings.Builder
	b.WriteString("<root>")
	for i := 0; i < 2000; i++ {
		// gamma and delta always co-occur.
		fmt.Fprintf(&b, "<item>gamma delta filler f%d</item>", i%31)
	}
	b.WriteString("</root>")
	fx := newFixture(t, []string{b.String()}, index.BuildOptions{})
	if err := fx.ix.ColdCache(); err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.TopM = 5
	opts.Exec = storage.NewExecContext(nil)
	rs, err := RDIL(fx.ix, []string{"gamma", "delta"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 5 {
		t.Fatalf("RDIL returned %d results", len(rs))
	}
	rdilStats := opts.Exec.Stats()

	if err := fx.ix.ColdCache(); err != nil {
		t.Fatal(err)
	}
	opts.Exec = storage.NewExecContext(nil)
	want, err := DIL(fx.ix, []string{"gamma", "delta"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	dilStats := opts.Exec.Stats()
	sameResults(t, "rdil-early", rs, want, 1e-9)
	if rdilStats.Reads >= dilStats.Reads {
		t.Errorf("on correlated keywords RDIL (%d reads) should touch fewer pages than DIL (%d)",
			rdilStats.Reads, dilStats.Reads)
	}
}
