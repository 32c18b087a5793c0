package xmark

import (
	"strings"
	"testing"

	"xrank/internal/xmldoc"
)

func parse(t *testing.T, p Params) *xmldoc.Collection {
	t.Helper()
	xml := Generate(p)
	c := xmldoc.NewCollection()
	if _, err := c.AddXML("xmark", strings.NewReader(xml), nil); err != nil {
		t.Fatalf("generated XMark does not parse: %v", err)
	}
	return c
}

func TestGenerateParsesDeep(t *testing.T) {
	c := parse(t, Params{Seed: 1, Items: 50, People: 30, OpenAuctions: 20, ClosedAuctions: 15, Categories: 10})
	d := c.Docs[0]
	if d.Root.Tag != "site" {
		t.Fatalf("root = %s", d.Root.Tag)
	}
	maxDepth := 0
	for _, e := range d.Elements {
		if dep := len(e.DeweyID()) - 1; dep > maxDepth {
			maxDepth = dep
		}
	}
	// Deep profile (the paper quotes depth about 10 for XMark).
	if maxDepth < 7 {
		t.Errorf("XMark-shape depth = %d, want >= 7", maxDepth)
	}
	// Single-document, intra-document references only.
	_, stats := c.ResolveLinks()
	if stats.Resolved == 0 || stats.Dangling > 0 {
		t.Errorf("reference resolution: %+v", stats)
	}
}

func TestSchemaSections(t *testing.T) {
	xml := Generate(Params{Seed: 2, Items: 20, People: 10, OpenAuctions: 8, ClosedAuctions: 5, Categories: 5})
	for _, tag := range []string{
		"<regions>", "<categories>", "<catgraph>", "<people>",
		"<open_auctions>", "<closed_auctions>", "<parlist>", "<listitem>",
		"<mailbox>", "<bidder>", "<itemref", "<personref", "<incategory",
	} {
		if !strings.Contains(xml, tag) {
			t.Errorf("schema section %s missing", tag)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := Generate(Params{Seed: 5, Items: 30})
	b := Generate(Params{Seed: 5, Items: 30})
	if a != b {
		t.Fatalf("generation not deterministic")
	}
	if c := Generate(Params{Seed: 6, Items: 30}); a == c {
		t.Errorf("different seeds gave identical output")
	}
}

func TestStainedMirrorAnecdote(t *testing.T) {
	xml := Generate(Params{Seed: 3, Items: 40, OpenAuctions: 40, PlantAnecdotes: true})
	if !strings.Contains(xml, "<name>stained</name>") {
		t.Errorf("'stained' item not planted")
	}
	if !strings.Contains(xml, "antique mirror") {
		t.Errorf("'mirror' description not planted")
	}
	// The planted item must be referenced by many auctions.
	refs := strings.Count(xml, `<itemref ref="item0"/>`)
	if refs < 5 {
		t.Errorf("anecdote item referenced only %d times", refs)
	}
}

func TestCorrelationMarkers(t *testing.T) {
	xml := Generate(Params{Seed: 4, Items: 200, CorrelationGroups: 2, CorrelationWidth: 2, PlantRate: 0.5})
	if !strings.Contains(xml, "hicorr0k0 hicorr0k1") {
		t.Errorf("high-correlation group missing")
	}
	if !strings.Contains(xml, "locorr1k0") && !strings.Contains(xml, "locorr1k1") {
		t.Errorf("low-correlation markers missing")
	}
}
