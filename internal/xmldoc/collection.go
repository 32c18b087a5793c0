package xmldoc

import (
	"fmt"
	"io"
	"strings"
)

// Collection is a set of hyperlinked XML/HTML documents — the graph
// G = (N, CE, HE) of Section 2.1. Containment edges are implicit in the
// element trees; hyperlink edges are materialized by ResolveLinks.
type Collection struct {
	Docs   []*Document
	byName map[string]*Document
	total  int
}

// NewCollection returns an empty collection.
func NewCollection() *Collection {
	return &Collection{byName: make(map[string]*Document)}
}

// AddXML parses an XML document from r and adds it under the given
// collection-unique name. The document ID is assigned sequentially.
func (c *Collection) AddXML(name string, r io.Reader, opts *ParseOptions) (*Document, error) {
	if _, dup := c.byName[name]; dup {
		return nil, fmt.Errorf("xmldoc: duplicate document name %q", name)
	}
	doc, err := ParseXML(uint32(len(c.Docs)), name, r, opts)
	if err != nil {
		return nil, err
	}
	c.attach(doc)
	return doc, nil
}

// AddHTML parses an HTML document from r and adds it under the given name.
func (c *Collection) AddHTML(name string, r io.Reader, opts *ParseOptions) (*Document, error) {
	if _, dup := c.byName[name]; dup {
		return nil, fmt.Errorf("xmldoc: duplicate document name %q", name)
	}
	doc, err := ParseHTML(uint32(len(c.Docs)), name, r, opts)
	if err != nil {
		return nil, err
	}
	c.attach(doc)
	return doc, nil
}

func (c *Collection) attach(doc *Document) {
	doc.Base = c.total
	c.total += len(doc.Elements)
	c.Docs = append(c.Docs, doc)
	c.byName[doc.Name] = doc
}

// AddXMLVersion parses an XML document from r and appends it even when
// the name already exists: the new document shadows the old one in
// DocByName while the old one keeps its ID and Dewey space. Segmented
// engines use this for document replacement — the shadowed version is
// tombstoned, not renumbered.
func (c *Collection) AddXMLVersion(name string, r io.Reader, opts *ParseOptions) (*Document, error) {
	doc, err := ParseXML(uint32(len(c.Docs)), name, r, opts)
	if err != nil {
		return nil, err
	}
	c.attach(doc)
	return doc, nil
}

// AddHTMLVersion is AddXMLVersion for HTML content.
func (c *Collection) AddHTMLVersion(name string, r io.Reader, opts *ParseOptions) (*Document, error) {
	doc, err := ParseHTML(uint32(len(c.Docs)), name, r, opts)
	if err != nil {
		return nil, err
	}
	c.attach(doc)
	return doc, nil
}

// Clone returns a shallow copy sharing the (immutable) documents but
// owning its own Docs slice and name map, so versions can be appended
// without disturbing readers of the original.
func (c *Collection) Clone() *Collection {
	nc := &Collection{
		Docs:   make([]*Document, len(c.Docs)),
		byName: make(map[string]*Document, len(c.byName)),
		total:  c.total,
	}
	copy(nc.Docs, c.Docs)
	// Rebuild in attach order so the newest version of a name wins.
	for _, d := range nc.Docs {
		nc.byName[d.Name] = d
	}
	return nc
}

// DocByName returns the document with the given name, or nil.
func (c *Collection) DocByName(name string) *Document { return c.byName[name] }

// NumDocs returns N_d, the number of documents.
func (c *Collection) NumDocs() int { return len(c.Docs) }

// NumElements returns N_e, the total number of element nodes across all
// documents.
func (c *Collection) NumElements() int { return c.total }

// GlobalIndex returns the collection-wide dense index of element e.
func (c *Collection) GlobalIndex(e *Element) int { return e.Doc.Base + int(e.Index) }

// ElementByGlobalIndex is the inverse of GlobalIndex. Documents are
// attached in Base order, so the owning document is found by binary
// search.
func (c *Collection) ElementByGlobalIndex(g int) *Element {
	if g < 0 || g >= c.total {
		return nil
	}
	lo, hi := 0, len(c.Docs)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if c.Docs[mid].Base <= g {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	d := c.Docs[lo]
	return d.Elements[g-d.Base]
}

// LinkStats summarizes hyperlink resolution.
type LinkStats struct {
	Resolved  int // hyperlink edges added to HE
	Dangling  int // references whose target does not exist
	SelfLinks int // references resolving to the referencing element itself (dropped)
}

// Resolve returns the element that ref, an outgoing hyperlink of an
// element of document d, points at under the collection's current names,
// or nil when it dangles.
//
// IDREF targets are element IDs in the same document. XLink targets take
// the form "docname" (the target document's root) or "docname#id" (an
// identified element in that document). An XLink resolves through the
// newest version of its document name, so a shadowing version retargets
// its referrers.
func (c *Collection) Resolve(d *Document, ref Ref) *Element {
	if ref.Kind == RefIDREF {
		return d.elementByID(ref.Target)
	}
	docName, frag, _ := strings.Cut(ref.Target, "#")
	td := c.byName[docName]
	if td == nil {
		return nil
	}
	if frag != "" {
		return td.elementByID(frag)
	}
	return td.Root
}

// ResolveLinks resolves every Ref in the collection into hyperlink edges
// and returns the adjacency list indexed by global element index:
// out[g] lists the global indexes of elements hyperlinked from element g.
// Dangling references are counted and dropped, like dead links on the
// web, and so are links from an element to itself.
func (c *Collection) ResolveLinks() ([][]int32, LinkStats) {
	var stats LinkStats
	out := make([][]int32, c.total)
	for _, d := range c.Docs {
		for _, e := range d.Elements {
			for _, ref := range e.Refs {
				target := c.Resolve(d, ref)
				if !stats.Count(e, target) {
					continue
				}
				g := c.GlobalIndex(e)
				out[g] = append(out[g], int32(c.GlobalIndex(target)))
			}
		}
	}
	return out, stats
}

// Count records the outcome of resolving one reference of element e to
// target (nil when it dangles) and reports whether it is a hyperlink edge.
func (s *LinkStats) Count(e, target *Element) bool {
	switch target {
	case nil:
		s.Dangling++
		return false
	case e:
		s.SelfLinks++
		return false
	}
	s.Resolved++
	return true
}

// Component is one connected component of a collection's hyperlink graph.
type Component struct {
	// Docs are the component's document IDs in ascending order.
	Docs []uint32
	// DanglingXLinks counts the XLinks of those documents that resolve to
	// no element.
	DanglingXLinks int
}

// Components partitions the collection's documents into the connected
// components of the hyperlink graph: two documents share a component
// when an XLink of one resolves into the other. Containment and IDREF
// edges never leave a document, so these are exactly the connected
// components of the element graph, and ElemRank's random surfer never
// moves between them except by its random jump. Components are ordered
// by their smallest document ID. The cost is O(documents + XLinks): it
// reads the XLink lists collected at parse time, never the elements.
func (c *Collection) Components() []Component {
	parent := make([]uint32, len(c.Docs))
	for i := range parent {
		parent[i] = uint32(i)
	}
	find := func(x uint32) uint32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	dangling := make([]int, len(c.Docs))
	for _, d := range c.Docs {
		for _, ref := range d.xlinks {
			t := c.Resolve(d, ref)
			if t == nil {
				dangling[d.ID]++
				continue
			}
			a, b := find(d.ID), find(t.Doc.ID)
			// Root each set at its smallest member, so the first document
			// met below names its component.
			if a < b {
				parent[b] = a
			} else {
				parent[a] = b
			}
		}
	}
	var comps []Component
	slot := make([]int, len(c.Docs)) // root document -> index in comps
	for i := range c.Docs {
		r := find(uint32(i))
		if r == uint32(i) {
			slot[r] = len(comps)
			comps = append(comps, Component{})
		}
		k := &comps[slot[r]]
		k.Docs = append(k.Docs, uint32(i))
		k.DanglingXLinks += dangling[i]
	}
	return comps
}
