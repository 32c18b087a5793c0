package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"xrank/internal/dewey"
	"xrank/internal/elemrank"
	"xrank/internal/storage"
	"xrank/internal/xmldoc"
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

// TestCompressionEquivalenceAndSavings builds the same corpus as v1 and
// as block lists: every cursor and prober must yield identical postings,
// and the prefix-compressed block list must be smaller.
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
	c := xmldoc.NewCollection()
	if _, err := c.AddXML("big", strings.NewReader(b.String()), nil); err != nil {
		t.Fatal(err)
	}
	g, _ := elemrank.BuildGraph(c)
	res, err := elemrank.Compute(g, elemrank.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	open := func(block bool) (*Index, *BuildStats) {
		dir := t.TempDir()
		stats, err := Build(c, res.Scores, dir, BuildOptions{BlockPostings: block, MinRankPrefix: 8})
		if err != nil {
			t.Fatal(err)
		}
		ix, err := Open(dir, OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ix.Close() })
		return ix, stats
	}
	plain, plainStats := open(false)
	comp, compStats := open(true)

	if compStats.DILList >= plainStats.DILList {
		t.Errorf("compressed DIL (%d) not smaller than plain (%d)", compStats.DILList, plainStats.DILList)
	}

	// Every term's DIL scan must match entry for entry.
	for _, term := range []string{"common", "filler", "w13", "name", "item"} {
		a, okA := plain.DILCursor(term)
		b, okB := comp.DILCursor(term)
		if !okA || !okB {
			t.Fatalf("term %q missing (%v %v)", term, okA, okB)
		}
		for {
			pa, oka, err := a.Next()
			if err != nil {
				t.Fatal(err)
			}
			pb, okb, err := b.Next()
			if err != nil {
				t.Fatal(err)
			}
			if oka != okb {
				t.Fatalf("term %q: cursor lengths differ", term)
			}
			if !oka {
				break
			}
			if !dewey.Equal(pa.ID, pb.ID) || pa.Rank != pb.Rank || len(pa.Positions) != len(pb.Positions) {
				t.Fatalf("term %q: %v vs %v", term, pa, pb)
			}
		}
		a.Close()
		b.Close()
	}

	// Probers must agree on LCPs and prefix scans.
	hpPlain, _ := plain.HDILProber("common")
	hpComp, _ := comp.HDILProber("common")
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		target := dewey.ID{0, uint32(r.Intn(3000)), uint32(r.Intn(3))}
		a, err := hpPlain.ProbeLCP(target)
		if err != nil {
			t.Fatal(err)
		}
		b, err := hpComp.ProbeLCP(target)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("ProbeLCP(%v): %d vs %d", target, a, b)
		}
	}
	var idsA, idsB []string
	prefix := dewey.ID{0}
	if err := hpPlain.ScanPrefix(prefix, func(p *Posting) error {
		idsA = append(idsA, fmt.Sprintf("%v@%d", p.ID, len(p.Positions)))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := hpComp.ScanPrefix(prefix, func(p *Posting) error {
		idsB = append(idsB, fmt.Sprintf("%v@%d", p.ID, len(p.Positions)))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(idsA) == 0 || len(idsA) != len(idsB) {
		t.Fatalf("ScanPrefix lengths: %d vs %d", len(idsA), len(idsB))
	}
	for i := range idsA {
		if idsA[i] != idsB[i] {
			t.Fatalf("ScanPrefix[%d]: %s vs %s", i, idsA[i], idsB[i])
		}
	}
}
