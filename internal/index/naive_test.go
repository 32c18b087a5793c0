package index

import (
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"xrank/internal/elemrank"
	"xrank/internal/storage"
	"xrank/internal/xmldoc"
)

// buildTestNaive builds the naive baseline index beside buildTestIndex's
// Dewey index over the same collection and ranks, and opens it.
func buildTestNaive(t testing.TB, c *xmldoc.Collection, ranks []float64) (*NaiveStats, *NaiveIndex) {
	t.Helper()
	dir := t.TempDir()
	stats, err := BuildNaive(c, ranks, dir, BuildOptions{})
	if err != nil {
		t.Fatalf("BuildNaive: %v", err)
	}
	nx, err := OpenNaive(dir, OpenOptions{})
	if err != nil {
		t.Fatalf("OpenNaive: %v", err)
	}
	t.Cleanup(func() { nx.Close() })
	return stats, nx
}

func TestNaiveClosureCorrectness(t *testing.T) {
	c, ranks, _ := buildTestIndex(t, map[string]string{"lib": smallDoc}, BuildOptions{})
	_, nx := buildTestNaive(t, c, ranks)
	// An element is in term's naive list iff it contains* the term.
	for _, term := range []string{"blue", "sky", "crimson"} {
		wantSet := map[int32]bool{}
		for _, d := range c.Docs {
			for _, e := range d.Elements {
				if xmldoc.ContainsTerm(e, term) {
					wantSet[int32(c.GlobalIndex(e))] = true
				}
			}
		}
		cur, ok := nx.IDCursor(nil, term)
		if !ok {
			t.Fatalf("no naive cursor for %q", term)
		}
		var gotElems []int32
		for {
			p, ok, err := cur.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			gotElems = append(gotElems, p.Elem)
			if !wantSet[p.Elem] {
				t.Errorf("term %q: spurious naive entry for elem %d", term, p.Elem)
			}
			if p.Rank <= 0 {
				t.Errorf("term %q elem %d: naive rank %g", term, p.Elem, p.Rank)
			}
			if len(p.Positions) == 0 {
				t.Errorf("term %q elem %d: empty posList", term, p.Elem)
			}
		}
		cur.Close()
		if len(gotElems) != len(wantSet) {
			t.Errorf("term %q: %d naive entries, want %d", term, len(gotElems), len(wantSet))
		}
		for i := 1; i < len(gotElems); i++ {
			if gotElems[i] <= gotElems[i-1] {
				t.Errorf("term %q: naive IDs out of order", term)
			}
		}
	}
	if _, ok := nx.IDCursor(nil, "nonexistentterm"); ok {
		t.Errorf("naive cursor for unknown term")
	}
}

func TestNaiveLookup(t *testing.T) {
	c, ranks, _ := buildTestIndex(t, bigCorpus(1500), BuildOptions{})
	_, nx := buildTestNaive(t, c, ranks)
	// Every element in the closure must be findable via the hash index,
	// and the rank-ordered list must hold the same entries.
	term := "common"
	cur, _ := nx.IDCursor(nil, term)
	var all []Posting
	for {
		p, ok, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		all = append(all, Posting{Elem: p.Elem, Rank: p.Rank, Positions: append([]uint32(nil), p.Positions...)})
	}
	cur.Close()
	if len(all) < 1500 {
		t.Fatalf("closure too small: %d", len(all))
	}
	rc, _ := nx.RankCursor(nil, term)
	last, n := float32(2), 0
	for ; ; n++ {
		p, ok, err := rc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if p.Rank > last {
			t.Fatalf("rank order violated: %g after %g", p.Rank, last)
		}
		last = p.Rank
	}
	rc.Close()
	if n != len(all) {
		t.Errorf("rank-ordered list has %d entries, ID-ordered %d", n, len(all))
	}
	var probe Posting
	for _, want := range all {
		ok, err := nx.Lookup(nil, term, want.Elem, &probe)
		if err != nil || !ok {
			t.Fatalf("Lookup(%d): %v %v", want.Elem, ok, err)
		}
		if probe.Rank != want.Rank || !slices.Equal(probe.Positions, want.Positions) {
			t.Fatalf("Lookup(%d): wrong entry", want.Elem)
		}
	}
	// Misses: element IDs not in the closure.
	inClosure := map[int32]bool{}
	for _, p := range all {
		inClosure[p.Elem] = true
	}
	misses := 0
	for g := 0; g < c.NumElements() && misses < 50; g++ {
		if !inClosure[int32(g)] {
			misses++
			ok, err := nx.Lookup(nil, term, int32(g), &probe)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				t.Fatalf("Lookup(%d) found an absent element", g)
			}
		}
	}
	if ok, err := nx.Lookup(nil, "unknownterm", 0, &probe); ok || err != nil {
		t.Errorf("lookup on unknown term: %v %v", ok, err)
	}
}

func TestSpaceShapeNaiveVsDIL(t *testing.T) {
	// The Table 1 shape at miniature scale: naive lists replicate
	// ancestors, so they must be strictly larger than DIL.
	c := xmldoc.NewCollection()
	for n, s := range bigCorpus(2000) {
		if _, err := c.AddXML(n, strings.NewReader(s), nil); err != nil {
			t.Fatal(err)
		}
	}
	g, _ := elemrank.BuildGraph(c)
	res, _ := elemrank.Compute(g, elemrank.DefaultParams())
	stats, err := Build(c, res.Scores, t.TempDir(), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := BuildNaive(c, res.Scores, t.TempDir(), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if naive.NaiveIDList <= stats.DILList {
		t.Errorf("naive list (%d) should exceed DIL (%d)", naive.NaiveIDList, stats.DILList)
	}
	// HDIL's own index covers only the rank-ordered prefix, RDIL's the
	// whole rank-ordered list (Table 1's "HDIL index tiny vs RDIL index").
	if stats.HDILSkip >= stats.RDILSkip {
		t.Errorf("HDIL prefix skip index (%d) should be smaller than RDIL's (%d)", stats.HDILSkip, stats.RDILSkip)
	}
	if naive.Meta.NaiveEntries <= stats.Meta.DeweyEntries {
		t.Errorf("naive entries (%d) should exceed dewey entries (%d)", naive.Meta.NaiveEntries, stats.Meta.DeweyEntries)
	}
}

func newHashEnv(t *testing.T) (*storage.PageFile, *storage.BufferPool, *hashBuilder) {
	t.Helper()
	pf, err := storage.CreatePageFileFS(nil, filepath.Join(t.TempDir(), "hash.pages"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pf.Close() })
	return pf, storage.NewBufferPool(pf, 32), newHashBuilder(pf)
}

func buildAndProbe(t *testing.T, n int) {
	t.Helper()
	pf, pool, hb := newHashEnv(t)
	r := rand.New(rand.NewSource(int64(n)))
	entries := make([]hashEntry, n)
	used := map[int32]bool{}
	for i := range entries {
		var e int32
		for {
			e = int32(r.Intn(n * 20))
			if !used[e] {
				used[e] = true
				break
			}
		}
		entries[i] = hashEntry{elem: e, page: storage.PageID(i / 7), off: uint16(i % 4096)}
	}
	meta, err := hb.build(entries)
	if err != nil {
		t.Fatal(err)
	}
	if err := hb.flush(); err != nil {
		t.Fatal(err)
	}
	if pf.NumPages() == 0 {
		t.Fatalf("nothing written")
	}
	for _, want := range entries {
		page, off, ok, err := hashLookup(nil, pool, meta, want.elem)
		if err != nil || !ok {
			t.Fatalf("n=%d lookup(%d): %v %v", n, want.elem, ok, err)
		}
		if page != want.page || off != want.off {
			t.Fatalf("n=%d lookup(%d) = (%d,%d), want (%d,%d)", n, want.elem, page, off, want.page, want.off)
		}
	}
	// Misses.
	for i := 0; i < 100; i++ {
		e := int32(n*20 + i)
		_, _, ok, err := hashLookup(nil, pool, meta, e)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatalf("n=%d lookup of absent %d succeeded", n, e)
		}
	}
}

func TestHashPackedSmallTable(t *testing.T) { buildAndProbe(t, 20) }

// TestHashPageAlignedLargeTable exceeds one page of slots (682), forcing
// the aligned multi-page layout and cross-page linear probing.
func TestHashPageAlignedLargeTable(t *testing.T) { buildAndProbe(t, 3000) }

func TestHashBoundaryJustFits(t *testing.T) {
	// Around the one-page capacity boundary, both layouts must work.
	for _, n := range []int{440, 460, 500} {
		buildAndProbe(t, n)
	}
}

func TestHashManySmallTablesSharePages(t *testing.T) {
	pf, pool, hb := newHashEnv(t)
	type tbl struct {
		meta HashMeta
		e    hashEntry
	}
	var tables []tbl
	for i := 0; i < 150; i++ {
		e := hashEntry{elem: int32(i), page: storage.PageID(i), off: uint16(i)}
		meta, err := hb.build([]hashEntry{e})
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, tbl{meta: meta, e: e})
	}
	if err := hb.flush(); err != nil {
		t.Fatal(err)
	}
	if np := pf.NumPages(); np > 2 {
		t.Errorf("150 tiny hash tables used %d pages; packing broken", np)
	}
	for _, tb := range tables {
		page, off, ok, err := hashLookup(nil, pool, tb.meta, tb.e.elem)
		if err != nil || !ok || page != tb.e.page || off != tb.e.off {
			t.Fatalf("shared-page lookup(%d) = (%d,%d,%v,%v)", tb.e.elem, page, off, ok, err)
		}
	}
}

func TestHashEmptyTable(t *testing.T) {
	_, pool, hb := newHashEnv(t)
	meta, err := hb.build(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := hb.flush(); err != nil {
		t.Fatal(err)
	}
	_, _, ok, err := hashLookup(nil, pool, HashMeta{}, 5)
	if err != nil || ok {
		t.Errorf("zero-slot lookup: %v %v", ok, err)
	}
	_, _, ok, err = hashLookup(nil, pool, meta, 5)
	if err != nil || ok {
		t.Errorf("empty-table lookup: %v %v", ok, err)
	}
}

func TestPostWriterPaddingBoundaries(t *testing.T) {
	pf, err := storage.CreatePageFileFS(nil, filepath.Join(t.TempDir(), "post.pages"))
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	pool := storage.NewBufferPool(pf, 8)
	w := newPostWriter(pf)

	// Entries sized so the second one exactly fills the remainder of the
	// page and the third forces padding.
	mk := func(n int) []byte {
		e := make([]byte, n+entryLenSize)
		e[0] = byte(n)
		e[1] = byte(n >> 8)
		for i := entryLenSize; i < len(e); i++ {
			e[i] = 0xAB
		}
		return e
	}
	var loc Loc
	sizes := []int{1000, storage.PageSize - 1000 - 2*entryLenSize - 2, 5000, 8000, 3}
	for i, n := range sizes {
		page, off, err := w.writeEntry(mk(n))
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if i == 0 {
			loc = Loc{Page: page, Off: off}
		}
		loc.Bytes += uint32(n + entryLenSize)
		loc.Count++
	}
	if err := w.flush(); err != nil {
		t.Fatal(err)
	}
	c := newNaiveCursor(pool, loc, nil)
	for i, n := range sizes {
		ok, err := c.next()
		if err != nil || !ok {
			t.Fatalf("cursor entry %d: %v %v", i, ok, err)
		}
		if len(c.body) != n {
			t.Fatalf("entry %d body = %d bytes, want %d", i, len(c.body), n)
		}
		for _, b := range c.body {
			if b != 0xAB {
				t.Fatalf("entry %d corrupted", i)
			}
		}
	}
	if ok, _ := c.next(); ok {
		t.Errorf("cursor overran")
	}
	c.Close()
	c.Close() // idempotent

	// Oversized entries are rejected.
	if _, _, err := w.writeEntry(make([]byte, storage.PageSize+1)); err == nil {
		t.Errorf("oversized entry accepted")
	}
}

func TestEntryCodecsRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		want := Posting{
			Elem: int32(r.Intn(1 << 30)),
			Rank: r.Float32(),
		}
		pos := uint32(0)
		for i := 0; i < r.Intn(20); i++ {
			pos += uint32(1 + r.Intn(500))
			want.Positions = append(want.Positions, pos)
		}
		enc := AppendNaiveEntry(nil, &want)
		var got Posting
		if err := DecodeNaiveEntry(enc[entryLenSize:], &got); err != nil {
			t.Fatal(err)
		}
		if got.Elem != want.Elem || got.Rank != want.Rank || !slices.Equal(got.Positions, want.Positions) {
			t.Fatalf("naive round trip: %+v != %+v", got, want)
		}
	}
}

func TestDecodeCorruptEntries(t *testing.T) {
	var p Posting
	if err := DecodeNaiveEntry(nil, &p); err == nil {
		t.Errorf("empty naive entry accepted")
	}
	if err := DecodeNaiveEntry([]byte{0x05, 0x00}, &p); err == nil {
		t.Errorf("truncated naive entry accepted")
	}
	if err := DecodeNaiveEntry([]byte{0x05, 0, 0, 0, 0, 0x02, 0x01}, &p); err == nil {
		t.Errorf("truncated posList accepted")
	}
}
