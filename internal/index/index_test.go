package index

import (
	"bytes"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"xrank/internal/dewey"
	"xrank/internal/elemrank"
	"xrank/internal/storage"
	"xrank/internal/xmldoc"
)

// buildTestIndex parses the given documents, computes ElemRanks, builds
// all index variants in a temp dir and opens the result.
func buildTestIndex(t testing.TB, docs map[string]string, opts BuildOptions) (*xmldoc.Collection, []float64, *Index) {
	t.Helper()
	c := xmldoc.NewCollection()
	names := make([]string, 0, len(docs))
	for n := range docs {
		names = append(names, n)
	}
	// Sort names for deterministic doc IDs.
	for i := range names {
		for j := i + 1; j < len(names); j++ {
			if names[j] < names[i] {
				names[i], names[j] = names[j], names[i]
			}
		}
	}
	for _, n := range names {
		if _, err := c.AddXML(n, strings.NewReader(docs[n]), nil); err != nil {
			t.Fatalf("AddXML(%s): %v", n, err)
		}
	}
	g, _ := elemrank.BuildGraph(c)
	res, err := elemrank.Compute(g, elemrank.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := Build(c, res.Scores, dir, opts); err != nil {
		t.Fatalf("Build: %v", err)
	}
	ix, err := Open(dir, OpenOptions{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { ix.Close() })
	return c, res.Scores, ix
}

// referencePostings computes the expected direct postings per term from
// the collection: (element, positions) for elements directly containing
// the term, in document order.
func referencePostings(c *xmldoc.Collection) map[string][]Posting {
	ref := make(map[string][]Posting)
	for _, d := range c.Docs {
		for _, e := range d.Elements {
			byTerm := map[string][]uint32{}
			for _, tok := range e.Tokens {
				byTerm[tok.Term] = append(byTerm[tok.Term], tok.Pos)
			}
			for term, pos := range byTerm {
				ref[term] = append(ref[term], Posting{
					ID:        e.DeweyID(),
					Elem:      int32(c.GlobalIndex(e)),
					Positions: pos,
				})
			}
		}
	}
	return ref
}

const smallDoc = `<lib>
  <book id="b1"><title>deep blue sea</title><body><ch>blue whale song</ch><ch>sea and sky</ch></body></book>
  <book id="b2"><title>red sky</title><body><ch>crimson sky at night</ch></body><cite ref="b1">see blue</cite></book>
</lib>`

func TestBuildOpenRoundTrip(t *testing.T) {
	c, _, ix := buildTestIndex(t, map[string]string{"lib": smallDoc}, BuildOptions{})
	ref := referencePostings(c)
	if ix.Meta.Terms != len(ref) {
		t.Errorf("Terms = %d, want %d", ix.Meta.Terms, len(ref))
	}
	for term, want := range ref {
		if ix.DILCount(term) == 0 {
			t.Fatalf("missing term %q", term)
		}
		cur, ok := ix.DILCursor(term)
		if !ok {
			t.Fatalf("no DIL cursor for %q", term)
		}
		if cur.Count() != len(want) {
			t.Fatalf("term %q: count %d, want %d", term, cur.Count(), len(want))
		}
		for i := range want {
			p, ok, err := cur.Next()
			if err != nil || !ok {
				t.Fatalf("term %q entry %d: %v %v", term, i, ok, err)
			}
			if !dewey.Equal(p.ID, want[i].ID) {
				t.Errorf("term %q entry %d: ID %v, want %v", term, i, p.ID, want[i].ID)
			}
			if len(p.Positions) != len(want[i].Positions) {
				t.Errorf("term %q entry %d: %d positions, want %d", term, i, len(p.Positions), len(want[i].Positions))
			} else {
				for j := range p.Positions {
					if p.Positions[j] != want[i].Positions[j] {
						t.Errorf("term %q entry %d pos %d: %d != %d", term, i, j, p.Positions[j], want[i].Positions[j])
					}
				}
			}
			if p.Rank <= 0 {
				t.Errorf("term %q entry %d: rank %g", term, i, p.Rank)
			}
		}
		if _, ok, _ := cur.Next(); ok {
			t.Errorf("term %q: cursor overran", term)
		}
		cur.Close()
	}
	if _, ok := ix.DILCursor("nonexistentterm"); ok {
		t.Errorf("cursor for unknown term")
	}
}

func TestRDILRankOrdered(t *testing.T) {
	_, _, ix := buildTestIndex(t, map[string]string{"lib": smallDoc}, BuildOptions{})
	for _, term := range []string{"sky", "blue", "book"} {
		cur, ok := ix.RDILRankCursor(term)
		if !ok {
			t.Fatalf("no cursor for %q", term)
		}
		last := float32(2)
		for {
			p, ok, err := cur.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if p.Rank > last {
				t.Errorf("term %q: rank order violated: %g after %g", term, p.Rank, last)
			}
			last = p.Rank
		}
		cur.Close()
	}
}

// bigCorpus generates one document whose lists span multiple pages.
func bigCorpus(n int) map[string]string {
	var b strings.Builder
	b.WriteString("<root>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "<item><name>common w%d</name><desc>filler text number %d</desc></item>", i%97, i)
	}
	b.WriteString("</root>")
	return map[string]string{"big": b.String()}
}

// scanDIL reads term's whole DIL list under ec and returns its length.
func scanDIL(t testing.TB, ix *Index, ec *storage.ExecContext, term string) int {
	t.Helper()
	cur, ok := ix.DILCursorExec(ec, term)
	if !ok {
		t.Fatalf("no DIL list for %q", term)
	}
	defer cur.Close()
	n := 0
	for {
		_, more, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !more {
			return n
		}
		n++
	}
}

// TestPostingsCounted pins the cost model's CPU terms: a full scan
// attributes exactly the list's length to the query, all of it decoded;
// a probe attributes what it read (at most one block), not the list, and
// counts the entries it only stepped over by Dewey ID as stepped.
func TestPostingsCounted(t *testing.T) {
	_, _, ix := buildTestIndex(t, bigCorpus(3000), BuildOptions{MinRankPrefix: 8, RankFraction: 0.05})
	ec := storage.NewExecContext(nil)
	n := scanDIL(t, ix, ec, "common")
	if st := ec.Stats(); n != 3000 || st.Postings != 3000 || st.Stepped != 0 {
		t.Errorf("scan of %d entries counted %d postings, %d stepped", n, st.Postings, st.Stepped)
	}
	ec = storage.NewExecContext(nil)
	prober, _ := ix.ProberExec(ec, "common")
	if _, err := prober.ProbeLCP(dewey.ID{0, 1500, 0}); err != nil {
		t.Fatal(err)
	}
	if st := ec.Stats(); st.Postings < 1 || st.Postings > blockMaxEntries || st.Stepped != st.Postings {
		t.Errorf("one probe counted %d postings, %d stepped", st.Postings, st.Stepped)
	}
	ec = storage.NewExecContext(nil)
	prober, _ = ix.ProberExec(ec, "common")
	returned := int64(0)
	if err := prober.ScanPrefix(dewey.ID{0, 1500}, func(*Posting) error { returned++; return nil }); err != nil {
		t.Fatal(err)
	}
	if st := ec.Stats(); returned == 0 || st.Stepped <= 0 || st.Stepped != st.Postings-returned {
		t.Errorf("a prefix scan returned %d entries and counted %d postings, %d stepped", returned, st.Postings, st.Stepped)
	}
}

// BenchmarkDILScanPerPosting is the sequential-scan cost the serving cost
// model charges per posting (storage.CostModel.Posting): page fetch,
// block decode and Dewey decode of a warm list, reported per posting (the
// merge above the cursor is not in it).
func BenchmarkDILScanPerPosting(b *testing.B) {
	_, _, ix := buildTestIndex(b, bigCorpus(20000), BuildOptions{})
	ec := storage.NewExecContext(nil)
	n := scanDIL(b, ix, ec, "common")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scanDIL(b, ix, ec, "common")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/posting")
}

func TestMultiPageListAndProbers(t *testing.T) {
	c, ranks, ix := buildTestIndex(t, bigCorpus(3000), BuildOptions{MinRankPrefix: 8, RankFraction: 0.05})
	ref := referencePostings(c)
	want := ref["common"]
	if len(want) != 3000 {
		t.Fatalf("reference has %d entries", len(want))
	}
	cur, _ := ix.DILCursor("common")
	got := 0
	for {
		p, ok, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if !dewey.Equal(p.ID, want[got].ID) {
			t.Fatalf("entry %d: %v != %v", got, p.ID, want[got].ID)
		}
		got++
	}
	cur.Close()
	if got != 3000 {
		t.Fatalf("scanned %d entries", got)
	}

	// HDIL rank prefix must be a strict prefix of the list.
	hc, _ := ix.HDILRankCursorExec(nil, "common")
	if hc.Count() >= 3000 || hc.Count() < 8 {
		t.Errorf("HDIL rank prefix = %d entries", hc.Count())
	}
	hc.Close()

	// The probers must agree with the in-memory reference, and charge the
	// query exactly the entries they step: from the start of each block
	// they read to the entry that stops them, or the block's end.
	ec := storage.NewExecContext(nil)
	prober, _ := ix.ProberExec(ec, "common")
	var blockEnds []int // the list's block boundaries, in entries
	end := 0
	for _, r := range ix.dil.refs["common"] {
		end += int(r.Count)
		blockEnds = append(blockEnds, end)
	}
	// charged counts, by brute force, what a read charges that stops at
	// entry to (len(want): runs off the list) after reading the blocks
	// that end after entry from and start before entry to: each from its
	// first entry up to entry to, inclusive, or to its last.
	charged := func(from, to int) int64 {
		n, start := 0, 0
		for _, end := range blockEnds {
			if end > from && start < to {
				n += min(end, to+1) - start
			}
			start = end
		}
		return int64(n)
	}
	postings := func() int64 { return ec.Stats().Postings }
	firstAtOrAfter := func(id dewey.ID) int {
		for i := range want {
			if dewey.Compare(want[i].ID, id) >= 0 {
				return i
			}
		}
		return len(want)
	}

	refLCP := func(target dewey.ID) int {
		best := 0
		for i := range want {
			if n := dewey.CommonPrefixLen(target, want[i].ID); n > best {
				best = n
			}
		}
		return best
	}
	r := rand.New(rand.NewSource(3))
	for _, target := range lcpTargets(r, want, 200) {
		wantLCP := refLCP(target)
		before := postings()
		got, err := prober.ProbeLCP(target)
		if err != nil {
			t.Fatal(err)
		}
		if got != wantLCP {
			t.Fatalf("ProbeLCP(%v) = %d, want %d", target, got, wantLCP)
		}
		// The candidate block holds the entry before target; the step
		// stops at the first entry >= target.
		stop := firstAtOrAfter(target)
		if n, w := postings()-before, charged(stop-1, stop); n != w {
			t.Fatalf("ProbeLCP(%v) charged %d postings, stepped %d", target, n, w)
		}
	}

	// ScanPrefix must agree with reference filtering: IDs, ranks and
	// positions.
	for _, prefix := range scanPrefixes(r, want, 50) {
		var wantPosts []Posting
		for i := range want {
			if prefix.IsPrefixOf(want[i].ID) {
				wantPosts = append(wantPosts, want[i])
			}
		}
		var got []Posting
		before := postings()
		err := prober.ScanPrefix(prefix, func(p *Posting) error {
			got = append(got, Posting{ID: p.ID.Clone(), Rank: p.Rank, Positions: slices.Clone(p.Positions)})
			return nil
		})
		if err != nil {
			t.Fatalf("ScanPrefix: %v", err)
		}
		if len(got) != len(wantPosts) {
			t.Fatalf("ScanPrefix(%v): %d entries, want %d", prefix, len(got), len(wantPosts))
		}
		for i := range got {
			w := &wantPosts[i]
			if !dewey.Equal(got[i].ID, w.ID) || got[i].Rank != float32(ranks[w.Elem]) ||
				!slices.Equal(got[i].Positions, w.Positions) {
				t.Fatalf("ScanPrefix(%v)[%d] = %v %g %v, want %v %g %v", prefix, i,
					got[i].ID, got[i].Rank, got[i].Positions, w.ID, float32(ranks[w.Elem]), w.Positions)
			}
		}
		// The scan reads from the block holding the first entry >= prefix
		// to the first entry past the prefix's range; a block starting
		// past the range is not read.
		first := firstAtOrAfter(prefix)
		past := first + len(wantPosts)
		if n, w := postings()-before, charged(first, past); n != w {
			t.Fatalf("ScanPrefix(%v) charged %d postings, stepped %d", prefix, n, w)
		}
	}
}

func TestColdCacheAndStats(t *testing.T) {
	_, _, ix := buildTestIndex(t, bigCorpus(2000), BuildOptions{})
	if err := ix.ColdCache(); err != nil {
		t.Fatal(err)
	}
	cur, _ := ix.DILCursor("common")
	for {
		_, ok, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	cur.Close()
	s1 := ix.IOStats()
	if s1.Reads == 0 {
		t.Fatalf("no reads recorded")
	}
	if s1.SeqReads < s1.RandReads {
		t.Errorf("a DIL scan should be mostly sequential: %+v", s1)
	}
	// Re-scan warm: all hits, no new device reads.
	cur, _ = ix.DILCursor("common")
	for {
		_, ok, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	cur.Close()
	s2 := ix.IOStats()
	if s2.Reads != s1.Reads {
		t.Errorf("warm re-scan hit the device: %d -> %d", s1.Reads, s2.Reads)
	}
	if s2.CacheHits == s1.CacheHits {
		t.Errorf("warm re-scan produced no cache hits")
	}
	if err := ix.ColdCache(); err != nil {
		t.Fatal(err)
	}
	if s := ix.IOStats(); s.Reads != 0 {
		t.Errorf("ColdCache did not reset stats: %+v", s)
	}
}

// TestBuildWritesOnlyDeweyFiles: a build writes the two Dewey-family
// lists, their skip indexes and meta.json — no lexicon, no separate HDIL
// rank prefix; the naive baselines live in a directory of their own
// (BuildNaive).
func TestBuildWritesOnlyDeweyFiles(t *testing.T) {
	c := xmldoc.NewCollection()
	if _, err := c.AddXML("d", strings.NewReader(smallDoc), nil); err != nil {
		t.Fatal(err)
	}
	g, _ := elemrank.BuildGraph(c)
	res, _ := elemrank.Compute(g, elemrank.DefaultParams())
	dir := t.TempDir()
	if _, err := Build(c, res.Scores, dir, BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, ent := range entries {
		got = append(got, ent.Name())
	}
	want := []string{"dil.post", "dil.skip", "meta.json", "rdil.post", "rdil.skip"}
	if !slices.Equal(got, want) {
		t.Errorf("build wrote %v, want %v", got, want)
	}
}

// TestBuildShardedDeterministic: two builds of one collection write
// byte-identical directories, every manifest included, so the index's
// size is a function of its input alone.
func TestBuildShardedDeterministic(t *testing.T) {
	c, ranks, _ := buildTestIndex(t, bigCorpus(3000), BuildOptions{})
	var dirs [2]string
	for i := range dirs {
		dirs[i] = t.TempDir()
		if _, err := BuildSharded(c, ranks, dirs[i], BuildOptions{}, 3); err != nil {
			t.Fatal(err)
		}
	}
	files := func(dir string) map[string][]byte {
		out := map[string][]byte{}
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			b, err := os.ReadFile(path)
			rel, _ := filepath.Rel(dir, path)
			out[rel] = b
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := files(dirs[0]), files(dirs[1])
	if len(a) != len(b) || len(a) < 16 { // shards.json + 3 × 5 files
		t.Fatalf("builds wrote %d and %d files", len(a), len(b))
	}
	for name, body := range a {
		if !bytes.Equal(body, b[name]) {
			t.Errorf("%s differs between two builds of one collection", name)
		}
	}
}

func TestBuildValidation(t *testing.T) {
	c := xmldoc.NewCollection()
	if _, err := c.AddXML("d", strings.NewReader(smallDoc), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := Build(c, []float64{1, 2, 3}, t.TempDir(), BuildOptions{}); err == nil {
		t.Errorf("rank/element mismatch should fail")
	}
}

func TestListCursorExhaustedAndCount(t *testing.T) {
	_, _, ix := buildTestIndex(t, map[string]string{"d": smallDoc}, BuildOptions{})
	cur, ok := ix.DILCursor("sky")
	if !ok {
		t.Fatal("no cursor")
	}
	if cur.Exhausted() {
		t.Errorf("fresh cursor exhausted")
	}
	n := 0
	for {
		_, ok, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
	}
	if n != cur.Count() || !cur.Exhausted() {
		t.Errorf("consumed %d of %d, exhausted=%v", n, cur.Count(), cur.Exhausted())
	}
	cur.Close()
	cur.Close() // idempotent
}

// TestRankRuns: at any point of a rank-prefix scan, the runs the cursor
// reports cover exactly the entries it has yet to return, each bounded by
// its run's MaxRank, and AppendRunRanks reads those entries' ranks
// without moving the cursor.
func TestRankRuns(t *testing.T) {
	_, _, ix := buildTestIndex(t, bigCorpus(3000), BuildOptions{MinRankPrefix: 8, RankFraction: 0.2})
	for _, at := range []int{0, 1, 5, 127, 128, 129, 300, 599} {
		cur, _ := ix.HDILRankCursorExec(nil, "common")
		for i := 0; i < at; i++ {
			if _, ok, err := cur.Next(); err != nil || !ok {
				t.Fatalf("entry %d: ok=%v err=%v", i, ok, err)
			}
		}
		runs := cur.AppendRankRuns(nil)
		var ranks []float32
		for j, r := range runs {
			n := len(ranks)
			var err error
			if ranks, err = cur.AppendRunRanks(ranks, j); err != nil {
				t.Fatal(err)
			}
			if len(ranks)-n != r.N {
				t.Fatalf("after %d: run %d of %d entries read %d ranks", at, j, r.N, len(ranks)-n)
			}
			for _, rank := range ranks[n:] {
				if rank > r.MaxRank {
					t.Fatalf("after %d: run %d holds rank %g above its MaxRank %g", at, j, rank, r.MaxRank)
				}
			}
		}
		for i, want := range ranks {
			p, ok, err := cur.Next()
			if err != nil || !ok {
				t.Fatalf("after %d: entry %d: ok=%v err=%v", at, i, ok, err)
			}
			if p.Rank != want {
				t.Fatalf("after %d: entry %d has rank %g, its run read %g", at, i, p.Rank, want)
			}
		}
		if _, ok, _ := cur.Next(); ok || at+len(ranks) != cur.Count() {
			t.Errorf("after %d: runs cover %d entries of the %d-entry prefix", at, len(ranks), cur.Count())
		}
		cur.Close()
	}
}

func ExampleAppendDeweyEntryCompressed() {
	enc := AppendDeweyEntryCompressed(nil, dewey.ID{5, 0, 3}, dewey.ID{5, 0, 4, 1}, 0.5, []uint32{7, 9})
	fmt.Println("shares", enc[entryLenSize], "components with the previous ID")
	// Output: shares 2 components with the previous ID
}
