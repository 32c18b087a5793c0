package dblp

import (
	"strings"
	"testing"

	"xrank/internal/xmldoc"
)

func genCollection(t *testing.T, p Params) (*xmldoc.Collection, []Doc) {
	t.Helper()
	docs := Generate(p)
	c := xmldoc.NewCollection()
	for _, d := range docs {
		if _, err := c.AddXML(d.Name, strings.NewReader(d.XML), nil); err != nil {
			t.Fatalf("generated XML does not parse (%s): %v", d.Name, err)
		}
	}
	return c, docs
}

func TestGenerateParsesAndScales(t *testing.T) {
	p := Params{Seed: 1, Docs: 5, PapersPerDoc: 30}
	c, docs := genCollection(t, p)
	if len(docs) != 5 {
		t.Fatalf("docs = %d", len(docs))
	}
	if c.NumElements() < 5*30*5 {
		t.Errorf("too few elements: %d", c.NumElements())
	}
	// Shallow profile: depth about 4 (proceedings/inproceedings/field,
	// attributes add one more).
	maxDepth := 0
	for _, d := range c.Docs {
		for _, e := range d.Elements {
			if dep := len(e.DeweyID()) - 1; dep > maxDepth {
				maxDepth = dep
			}
		}
	}
	if maxDepth < 2 || maxDepth > 5 {
		t.Errorf("DBLP-shape depth = %d, want ~2-5", maxDepth)
	}
}

func TestCitationsResolveAndSkew(t *testing.T) {
	c, _ := genCollection(t, Params{Seed: 2, Docs: 6, PapersPerDoc: 40, MaxCites: 6})
	out, stats := c.ResolveLinks()
	if stats.Resolved == 0 {
		t.Fatalf("no citations resolved: %+v", stats)
	}
	if stats.Dangling > 0 {
		t.Errorf("generator produced dangling citations: %+v", stats)
	}
	// Preferential attachment produces skewed in-degrees.
	in := make(map[int32]int)
	for _, targets := range out {
		for _, v := range targets {
			in[v]++
		}
	}
	maxIn := 0
	for _, n := range in {
		if n > maxIn {
			maxIn = n
		}
	}
	if maxIn < 5 {
		t.Errorf("citation skew too flat: max in-degree %d", maxIn)
	}
}

func TestDeterminism(t *testing.T) {
	a := Generate(Params{Seed: 7, Docs: 2, PapersPerDoc: 10})
	b := Generate(Params{Seed: 7, Docs: 2, PapersPerDoc: 10})
	for i := range a {
		if a[i].XML != b[i].XML || a[i].Name != b[i].Name {
			t.Fatalf("generation not deterministic at doc %d", i)
		}
	}
	c := Generate(Params{Seed: 8, Docs: 2, PapersPerDoc: 10})
	if a[0].XML == c[0].XML {
		t.Errorf("different seeds gave identical output")
	}
}

func TestCorrelationMarkers(t *testing.T) {
	docs := Generate(Params{Seed: 3, Docs: 4, PapersPerDoc: 50, CorrelationGroups: 2, CorrelationWidth: 2, PlantRate: 0.5})
	joined := ""
	for _, d := range docs {
		joined += d.XML
	}
	// High-correlation markers always co-occur in one text block.
	if !strings.Contains(joined, "hicorr0k0 hicorr0k1") {
		t.Errorf("high-correlation group not planted together")
	}
	if !strings.Contains(joined, "locorr0k0") || !strings.Contains(joined, "locorr0k1") {
		t.Errorf("low-correlation members missing")
	}
	if strings.Contains(joined, "locorr0k0 locorr0k1") {
		t.Errorf("low-correlation members planted together")
	}
}

func TestGrayAnecdotePlanted(t *testing.T) {
	docs := Generate(Params{Seed: 4, Docs: 6, PapersPerDoc: 60, PlantAnecdotes: true})
	gray, codes := false, false
	for _, d := range docs {
		if strings.Contains(d.XML, "<author>jim gray</author>") {
			gray = true
		}
		if strings.Contains(d.XML, "gray codes") {
			codes = true
		}
	}
	if !gray {
		t.Errorf("'jim gray' author not planted in cited papers")
	}
	if !codes {
		t.Errorf("'gray codes' titles not planted")
	}
}
