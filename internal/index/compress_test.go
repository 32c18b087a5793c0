package index

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"xrank/internal/dewey"
	"xrank/internal/elemrank"
	"xrank/internal/xmldoc"
)

// Tests for the prefix-compressed Dewey entry encoding and the block
// lists built from it.

func TestCompressedEntryCodec(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	var prev dewey.ID
	for trial := 0; trial < 500; trial++ {
		id := make(dewey.ID, 1+r.Intn(8))
		// Random but often sharing a prefix with prev, as real lists do.
		copyLen := 0
		if prev != nil {
			copyLen = r.Intn(len(prev) + 1)
			if copyLen > len(id) {
				copyLen = len(id)
			}
			copy(id, prev[:copyLen])
		}
		for i := copyLen; i < len(id); i++ {
			id[i] = uint32(r.Intn(1 << 14))
		}
		rank := r.Float32()
		var positions []uint32
		pos := uint32(0)
		for i := 0; i < r.Intn(6); i++ {
			pos += uint32(1 + r.Intn(99))
			positions = append(positions, pos)
		}
		enc := AppendDeweyEntryCompressed(nil, prev, id, rank, positions)
		var got Posting
		if err := DecodeDeweyEntryCompressed(enc[entryLenSize:], prev, &got); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !dewey.Equal(got.ID, id) || got.Rank != rank || len(got.Positions) != len(positions) {
			t.Fatalf("trial %d: %v/%v != %v/%v", trial, got.ID, got.Rank, id, rank)
		}
		prev = id
	}
}

func TestCompressedCorrupt(t *testing.T) {
	var p Posting
	prev := dewey.ID{1, 2}
	cases := [][]byte{
		{},
		{9, 0, 0},       // lcp exceeds prev
		{1, 5, 0},       // suffixLen beyond buffer
		{0, 1, 0, 0x80}, // truncated suffix component
	}
	for i, c := range cases {
		if err := DecodeDeweyEntryCompressed(c, prev, &p); err == nil {
			t.Errorf("case %d accepted", i)
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
