package index

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"xrank/internal/dewey"
	"xrank/internal/storage"
)

// Tests for the prefix-compressed Dewey entry encoding and the block
// lists built from it.

// TestCompressedEntryCodec round-trips one long chain of prefix-compressed
// entries — random IDs that often share a prefix with their predecessor,
// components past the one-byte encoding, multi-byte position deltas —
// through the block decoder.
func TestCompressedEntryCodec(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	var posts []Posting
	var prev dewey.ID
	for trial := 0; trial < 500; trial++ {
		id := make(dewey.ID, 1+r.Intn(8))
		// Random but often sharing a prefix with prev, as real lists do.
		copyLen := 0
		if prev != nil {
			copyLen = min(r.Intn(len(prev)+1), len(id))
			copy(id, prev[:copyLen])
		}
		for i := copyLen; i < len(id); i++ {
			id[i] = uint32(r.Intn(1 << 14))
		}
		var positions []uint32
		pos := uint32(0)
		for i := 0; i < r.Intn(6); i++ {
			pos += uint32(1 + r.Intn(999))
			positions = append(positions, pos)
		}
		posts = append(posts, Posting{ID: id, Rank: r.Float32(), Positions: positions})
		prev = id
	}
	got, err := decodeBlock(encodeBlock(posts))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(posts) {
		t.Fatalf("decoded %d entries, want %d", len(got), len(posts))
	}
	for i, want := range posts {
		if !dewey.Equal(got[i].ID, want.ID) || got[i].Rank != want.Rank || !slices.Equal(got[i].Positions, want.Positions) {
			t.Fatalf("entry %d: %v != %v", i, got[i], want)
		}
	}
}

// corruptPrev is the ID of the good entry each corruptEntries case follows.
var corruptPrev = dewey.ID{1, 2, 3}

// corruptEntries returns damaged entry bodies by name.
func corruptEntries() map[string][]byte {
	good := AppendDeweyEntryCompressed(nil, corruptPrev, dewey.ID{1, 2, 4}, 0.5, []uint32{9})[entryLenSize:]
	return map[string][]byte{
		"empty":            {},
		"too short":        {3},
		"lcp exceeds prev": {9, 0, 0},
		"lcp too long":     {255, 1, 0x80},
		"suffix too long":  {1, 5, 0},
		"truncated suffix": {0, 1, 0, 0x80},
		"truncated":        good[:len(good)-3],
		"bad posList":      append(append([]byte{}, good[:len(good)-1]...), 0xFF),
		"bad suffixLen":    {1, 0xFF},
	}
}

// decodeCorruptSecond decodes a two-entry block — a good entry with ID
// corruptPrev and posList 1,2, then mut — and returns the decoder with
// the error of the second entry.
func decodeCorruptSecond(t *testing.T, name string, mut []byte) (*blockDecoder, error) {
	t.Helper()
	body := binary.LittleEndian.AppendUint16(nil, 2)
	body = AppendDeweyEntryCompressed(body, nil, corruptPrev, 0.25, []uint32{1, 2})
	body = binary.LittleEndian.AppendUint16(body, uint16(len(mut)))
	body = append(body, mut...)
	dec := new(blockDecoder)
	if err := dec.init(body); err != nil {
		t.Fatal(err)
	}
	if ok, err := dec.next(); !ok || err != nil {
		t.Fatalf("%s: first entry: ok=%v err=%v", name, ok, err)
	}
	_, err := dec.next()
	return dec, err
}

// TestCompressedCorrupt feeds a block whose second entry is damaged: the
// damaged entry must be rejected as corrupt.
func TestCompressedCorrupt(t *testing.T) {
	for name, mut := range corruptEntries() {
		if _, err := decodeCorruptSecond(t, name, mut); !errors.Is(err, storage.ErrCorrupt) {
			t.Fatalf("%s: decode accepted or misreported a corrupt entry: %v", name, err)
		}
	}
}

// TestDecodeDeweyEntryCompressedResetsOnError is the regression test for
// the partial-write bug: a damaged entry must leave nothing of itself in
// the decoder's columns, because the next entry takes its ID prefix from
// there — a partially written ID would corrupt every later entry in the
// block instead of surfacing the error's true position.
func TestDecodeDeweyEntryCompressedResetsOnError(t *testing.T) {
	for name, mut := range corruptEntries() {
		dec, err := decodeCorruptSecond(t, name, mut)
		if err == nil {
			t.Fatalf("%s: decode accepted corrupt entry", name)
		}
		if dec.decoded() != 1 || !slices.Equal(dec.comps, corruptPrev) || !slices.Equal(dec.pos, []uint32{1, 2}) {
			t.Fatalf("%s: error path left a partial entry: %d decoded, comps %v, pos %v", name, dec.decoded(), dec.comps, dec.pos)
		}
		var p Posting
		dec.at(0, &p)
		if !dewey.Equal(p.ID, corruptPrev) || p.Rank != 0.25 || !slices.Equal(p.Positions, []uint32{1, 2}) {
			t.Fatalf("%s: good entry reads back as %v/%v/%v after the error", name, p.ID, p.Rank, p.Positions)
		}
	}
}

// TestCompressionEquivalenceAndSavings builds a deep corpus and checks,
// for every term, that each list scans back as the reference postings in
// its order, that its skip index summarizes its blocks exactly (entry
// counts, first and last IDs, maximum rank, order), that HDIL's prefix
// cursor yields exactly the head of the RDIL list, and that prefix
// compression makes dil.post smaller than storing every ID in full.
func TestCompressionEquivalenceAndSavings(t *testing.T) {
	// A deep corpus (nested groups, like XMark): sibling entries share
	// long Dewey prefixes, which is where prefix compression pays.
	var b strings.Builder
	b.WriteString("<root>")
	for g := 0; g < 12; g++ {
		b.WriteString("<region><zone><grp>")
		for i := 0; i < 220; i++ {
			fmt.Fprintf(&b, "<item><name>common w%d</name><desc>filler text number %d</desc></item>", i%97, g*1000+i)
		}
		b.WriteString("</grp></zone></region>")
	}
	b.WriteString("</root>")
	c, ranks, ix := buildTestIndex(t, map[string]string{"big": b.String()}, BuildOptions{MinRankPrefix: 8})
	ref := referencePostings(c)

	var fullIDs int64 // dil.post's size were every ID stored in full
	var midBlock, boundary, multiBlock bool
	for term, want := range ref {
		for i := range want {
			want[i].Rank = float32(ranks[want[i].Elem])
			fullIDs += int64(entryLenSize + 2 + dewey.EncodedLen(want[i].ID) + 4 + len(appendPositions(nil, want[i].Positions)))
		}
		for _, l := range []struct {
			name string
			list *deweyList
		}{{"dil", ix.dil}, {"rdil", ix.rdil}} {
			refs := l.list.refs[term]
			cur, ok := l.list.cursor(nil, term, false)
			if !ok {
				t.Fatalf("%s %q: no list", l.name, term)
			}
			var got []Posting
			for _, r := range refs {
				if r.Count > blockMaxEntries {
					t.Fatalf("%s %q: block of %d entries", l.name, term, r.Count)
				}
				first := len(got)
				maxRank := float32(0)
				for k := 0; k < int(r.Count); k++ {
					p, ok, err := cur.Next()
					if err != nil || !ok {
						t.Fatalf("%s %q: list ends inside a block: %v", l.name, term, err)
					}
					got = append(got, Posting{ID: p.ID.Clone(), Rank: p.Rank, Positions: slices.Clone(p.Positions)})
					maxRank = max(maxRank, p.Rank)
				}
				if !bytes.Equal(r.FirstID, dewey.Encode(got[first].ID)) || !bytes.Equal(r.LastID, dewey.Encode(got[len(got)-1].ID)) {
					t.Fatalf("%s %q: skip ref range %v..%v, block holds %v..%v", l.name, term,
						r.FirstID, r.LastID, got[first].ID, got[len(got)-1].ID)
				}
				if r.MaxRank != maxRank {
					t.Fatalf("%s %q: skip ref MaxRank %g, block max %g", l.name, term, r.MaxRank, maxRank)
				}
			}
			if _, more, _ := cur.Next(); more {
				t.Fatalf("%s %q: entries beyond the skip index's blocks", l.name, term)
			}
			cur.Close()
			// DIL holds the reference postings in Dewey order; RDIL the same
			// set in rank order.
			wantOrder := want
			if l.name != "dil" {
				wantOrder = byRank(want)
			}
			if len(got) != len(wantOrder) {
				t.Fatalf("%s %q: %d entries, want %d", l.name, term, len(got), len(wantOrder))
			}
			for i := range got {
				w := wantOrder[i]
				if !dewey.Equal(got[i].ID, w.ID) || got[i].Rank != w.Rank || !slices.Equal(got[i].Positions, w.Positions) {
					t.Fatalf("%s %q entry %d: %v, want %v", l.name, term, i, got[i], w)
				}
			}
		}

		// HDIL's prefix cursor yields exactly the first n entries of the
		// RDIL list and then reports Exhausted: for prefixes that end inside
		// a block, on a block boundary, at the list's end, and at the
		// RankPrefixLen HDIL uses.
		wantRank := byRank(want)
		refs := ix.rdil.refs[term]
		first := int(refs[0].Count)
		lens := []int{1, first, len(want)}
		if first > 1 {
			lens = append(lens, first-1)
		}
		if len(refs) > 1 {
			lens = append(lens, first+1, first+int(refs[1].Count))
			multiBlock = true
		}
		built := ix.Meta
		for k, n := range append(lens, built.RankPrefixLen(len(want))) {
			if k < len(lens) {
				// A MinRankPrefix of n over a vanishing fraction makes the
				// prefix n entries long.
				ix.Meta.MinRankPrefix, ix.Meta.RankFraction = n, 1e-9
			} else {
				ix.Meta = built // the prefix HDIL reads
			}
			cur, _ := ix.HDILRankCursorExec(nil, term)
			if n < len(want) {
				onBoundary := prefixEndsOnBoundary(refs, n)
				boundary = boundary || onBoundary
				midBlock = midBlock || !onBoundary
			}
			if cur.Count() != n {
				t.Fatalf("prefix %q/%d: Count %d", term, n, cur.Count())
			}
			for i := 0; i < n; i++ {
				p, ok, err := cur.Next()
				if err != nil || !ok {
					t.Fatalf("prefix %q/%d: ends after %d entries: %v", term, n, i, err)
				}
				if w := wantRank[i]; !dewey.Equal(p.ID, w.ID) || p.Rank != w.Rank || !slices.Equal(p.Positions, w.Positions) {
					t.Fatalf("prefix %q/%d entry %d: %v, want %v", term, n, i, *p, w)
				}
			}
			if !cur.Exhausted() {
				t.Fatalf("prefix %q/%d: not exhausted after its last entry", term, n)
			}
			if p, more, err := cur.Next(); more || err != nil {
				t.Fatalf("prefix %q/%d: yields %v (%v) past its end", term, n, p, err)
			}
			cur.Close()
		}
		ix.Meta = built
	}
	if !midBlock || !boundary || !multiBlock {
		t.Fatalf("prefix cases not covered: mid-block %v, block boundary %v, multi-block list %v", midBlock, boundary, multiBlock)
	}
	if st := ix.Meta.Files[fileDILPost].Size; st >= fullIDs {
		t.Errorf("prefix-compressed dil.post (%d bytes) not smaller than full IDs (%d)", st, fullIDs)
	}
}

// byRank returns posts in RDIL's order: descending rank, ties in Dewey
// order.
func byRank(posts []Posting) []Posting {
	out := slices.Clone(posts)
	slices.SortStableFunc(out, func(a, b Posting) int { return cmp.Compare(b.Rank, a.Rank) })
	return out
}

// prefixEndsOnBoundary reports whether the first n entries of a list with
// these block refs end exactly at the end of a block.
func prefixEndsOnBoundary(refs []BlockRef, n int) bool {
	for _, r := range refs {
		n -= int(r.Count)
		if n <= 0 {
			return n == 0
		}
	}
	return false
}

// TestDerivedListLocations: with no lexicon, a list's entry count and
// encoded size are derived from its skip refs. DILCount and DILListBytes
// (and the RDIL list's derived Loc) must equal a brute-force walk of the
// postings file: terms are written in sorted order, each as consecutive
// blocks, so a term's blocks are the next ones whose entry counts add up
// to its reference posting count.
func TestDerivedListLocations(t *testing.T) {
	docs := bigCorpus(3000)
	docs["small"] = smallDoc
	c, _, ix := buildTestIndex(t, docs, BuildOptions{})
	ref := referencePostings(c)
	terms := make([]string, 0, len(ref))
	for term := range ref {
		terms = append(terms, term)
	}
	slices.Sort(terms)
	for _, l := range []struct {
		file string
		refs map[string][]BlockRef
	}{{fileDILPost, ix.dil.refs}, {fileRDILPost, ix.rdil.refs}} {
		pf, err := storage.OpenPageFileFS(nil, filepath.Join(ix.Dir, l.file))
		if err != nil {
			t.Fatal(err)
		}
		defer pf.Close()
		// Every block in file order: its u16 length prefix and entry count.
		type block struct{ bytes, count int }
		var blocks []block
		page := make([]byte, storage.PageSize)
		for id := storage.PageID(0); uint32(id) < pf.NumPages(); id++ {
			if err := pf.ReadPageExec(nil, id, page); err != nil {
				t.Fatal(err)
			}
			for off := 0; off+entryLenSize <= storage.PageSize; {
				ln := int(binary.LittleEndian.Uint16(page[off:]))
				if ln == padEntry {
					break
				}
				body := page[off+entryLenSize : off+entryLenSize+ln]
				blocks = append(blocks, block{entryLenSize + ln, int(binary.LittleEndian.Uint16(body))})
				off += entryLenSize + ln
			}
		}
		for _, term := range terms {
			want := Loc{Count: uint32(len(ref[term]))}
			for n := 0; n < len(ref[term]); blocks = blocks[1:] {
				if len(blocks) == 0 {
					t.Fatalf("%s: file ends inside %q", l.file, term)
				}
				n += blocks[0].count
				want.Bytes += uint32(blocks[0].bytes)
			}
			got := locOf(l.refs[term])
			if got.Count != want.Count || got.Bytes != want.Bytes {
				t.Fatalf("%s %q: derived %d entries in %d bytes, file holds %d in %d",
					l.file, term, got.Count, got.Bytes, want.Count, want.Bytes)
			}
			if l.file == fileDILPost && (ix.DILCount(term) != int(want.Count) || ix.DILListBytes(term) != int64(want.Bytes)) {
				t.Fatalf("%q: DILCount %d, DILListBytes %d, want %d, %d",
					term, ix.DILCount(term), ix.DILListBytes(term), want.Count, want.Bytes)
			}
		}
		if len(blocks) != 0 {
			t.Fatalf("%s: %d blocks beyond the last term", l.file, len(blocks))
		}
	}
}
