package xmldoc

import (
	"strings"
	"testing"

	"xrank/internal/datagen/dblp"
	"xrank/internal/datagen/htmlgen"
	"xrank/internal/datagen/xmark"
	"xrank/internal/dewey"
)

// elementAtRef is the pointer walk IndexAt replaced: Root, then
// Children[ord] per component. It is the reference FuzzIndexAt compares
// against.
func elementAtRef(d *Document, id dewey.ID) *Element {
	if len(id) == 0 || id[0] != d.ID || d.Root == nil {
		return nil
	}
	e := d.Root
	for _, ord := range id[1:] {
		if int(ord) >= len(e.Children) {
			return nil
		}
		e = e.Children[int(ord)]
	}
	return e
}

// TestIndexAtMatchesElementAt: over XMark, DBLP and HTML documents,
// every element's Dewey ID — attribute pseudo-elements included —
// resolves through the child-offset table to its own Index.
func TestIndexAtMatchesElementAt(t *testing.T) {
	c := NewCollection()
	add := func(name, src string, html bool) {
		var err error
		if html {
			_, err = c.AddHTML(name, strings.NewReader(src), nil)
		} else {
			_, err = c.AddXML(name, strings.NewReader(src), nil)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	add("xmark", xmark.Generate(xmark.Params{Seed: 1, Items: 40, People: 20, OpenAuctions: 20, ClosedAuctions: 10, Categories: 5}), false)
	for _, d := range dblp.Generate(dblp.Params{Seed: 1, Docs: 2, PapersPerDoc: 30}) {
		add(d.Name, d.XML, false)
	}
	for _, d := range htmlgen.Generate(htmlgen.Params{Seed: 1, Pages: 5}) {
		add(d.Name, d.HTML, true)
	}
	add("figure1", figure1, false)

	attrs, html := 0, 0
	for _, d := range c.Docs {
		for _, e := range d.Elements {
			switch e.Kind {
			case KindAttr:
				attrs++
			case KindHTMLRoot:
				html++
			}
			if got := d.IndexAt(e.DeweyID()); got != int(e.Index) {
				t.Fatalf("%s: IndexAt(%v) = %d, want %d", d.Name, e.DeweyID(), got, e.Index)
			}
		}
	}
	if attrs == 0 || html == 0 {
		t.Fatalf("fixtures cover %d attribute pseudo-elements and %d HTML roots; want both", attrs, html)
	}
}

// FuzzIndexAt: for any ID — another document's, an ordinal past the
// last child, empty, deeper than the tree — IndexAt returns -1 exactly
// where the pointer walk finds nothing, and the element's index where it
// finds one.
func FuzzIndexAt(f *testing.F) {
	f.Add(uint32(5), []byte{0, 1})
	f.Add(uint32(5), []byte{})
	f.Add(uint32(6), []byte{0})
	f.Add(uint32(5), []byte{9})
	f.Add(uint32(5), []byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint32(5), []byte{0xff})
	doc, err := ParseXML(5, "figure1", strings.NewReader(figure1), nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, docID uint32, path []byte) {
		id := dewey.ID{docID}
		for _, b := range path {
			id = append(id, uint32(b%16))
		}
		if len(path) > 0 && path[0] == 0xff { // stands for the empty ID
			id = nil
		}
		got, want := doc.IndexAt(id), elementAtRef(doc, id)
		switch {
		case want == nil && got != -1:
			t.Fatalf("IndexAt(%v) = %d, the walk finds nothing", id, got)
		case want != nil && got != int(want.Index):
			t.Fatalf("IndexAt(%v) = %d, the walk finds element %d", id, got, want.Index)
		case want != doc.ElementAt(id):
			t.Fatalf("ElementAt(%v) disagrees with the walk", id)
		}
	})
}
