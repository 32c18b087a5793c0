package index

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"xrank/internal/dewey"
	"xrank/internal/storage"
)

func newHashEnv(t *testing.T) (*storage.PageFile, *storage.BufferPool, *hashBuilder) {
	t.Helper()
	pf, err := storage.CreatePageFile(filepath.Join(t.TempDir(), "hash.pages"))
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
	pf, err := storage.CreatePageFile(filepath.Join(t.TempDir(), "post.pages"))
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
	c := newPostCursor(pool, loc, nil, false)
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
	c.close()
	c.close() // idempotent

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

func ExampleAppendDeweyEntryCompressed() {
	enc := AppendDeweyEntryCompressed(nil, dewey.ID{5, 0, 3}, dewey.ID{5, 0, 4, 1}, 0.5, []uint32{7, 9})
	fmt.Println("shares", enc[entryLenSize], "components with the previous ID")
	// Output: shares 2 components with the previous ID
}
