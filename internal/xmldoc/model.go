// Package xmldoc defines the hyperlinked XML data model of XRANK (Guo et
// al., SIGMOD 2003, Section 2.1) and parsers that build it from XML and
// HTML input.
//
// A collection of documents is a directed graph G = (N, CE, HE): N is the
// set of element and value nodes, CE the containment edges, and HE the
// hyperlink edges (IDREFs within a document, XLinks across documents). As
// in the paper, attributes are modeled as sub-elements, and element tag
// names and attribute names are treated as values (so keyword queries can
// match them — the paper's 'author gray' anecdote depends on this).
package xmldoc

import (
	"fmt"
	"sync"

	"xrank/internal/dewey"
)

// Kind distinguishes how an element node arose.
type Kind uint8

const (
	// KindElement is a regular XML element.
	KindElement Kind = iota
	// KindAttr is an attribute materialized as a sub-element (Section 2.1:
	// "we treat attributes as though they are sub-elements").
	KindAttr
	// KindHTMLRoot is the single element representing an entire HTML
	// document with presentation tags stripped (Section 2.2).
	KindHTMLRoot
)

func (k Kind) String() string {
	switch k {
	case KindElement:
		return "element"
	case KindAttr:
		return "attr"
	case KindHTMLRoot:
		return "htmlroot"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Token is one keyword occurrence directly contained by an element. Pos is
// the token's offset in a single position space covering the whole
// document in document order, which is what makes the smallest-window
// proximity metric (Section 2.3.2.2) meaningful across sibling elements.
type Token struct {
	Term string
	Pos  uint32
}

// RefKind distinguishes hyperlink flavors. Both are treated uniformly as
// hyperlink edges (HE); the distinction is kept for diagnostics.
type RefKind uint8

const (
	// RefIDREF is an intra-document reference to an element's ID attribute.
	RefIDREF RefKind = iota
	// RefXLink is an inter-document reference "docname" or "docname#id".
	RefXLink
)

// Ref is an unresolved outgoing hyperlink recorded during parsing.
type Ref struct {
	Kind   RefKind
	Target string // IDREF: element id; XLink: "doc" or "doc#id"
}

// Element is an element node. Value nodes are not materialized as separate
// structs: an element's directly contained text is kept in Tokens/Text,
// which is equivalent for every algorithm in the paper (value nodes have
// ElemRank 0 and never appear in query results; only their parent elements
// do).
type Element struct {
	Tag    string
	Kind   Kind
	Parent *Element
	// Doc is the owning document.
	Doc *Document
	// Ord is the element's ordinal among its parent's sub-elements; it is
	// the element's final Dewey component.
	Ord uint32
	// Index is the element's position in Document.Elements (document order).
	Index int32
	// Children are sub-elements in document order, attribute pseudo-elements
	// first (they precede content in the serialized form).
	Children []*Element
	// Tokens are the keyword occurrences directly contained by this element:
	// its tag name, then for attribute pseudo-elements the attribute value,
	// then direct text. Positions are document-global.
	Tokens []Token
	// Text is the concatenated directly contained character data, kept for
	// snippets; it does not include the tag name.
	Text string
	// XMLID is the element's id attribute value, if any ("" otherwise).
	XMLID string
	// Refs are unresolved outgoing hyperlinks parsed from this element.
	Refs []Ref
}

// Document is one parsed XML or HTML document.
type Document struct {
	ID   uint32 // first Dewey component of every element in the document
	Name string // collection-unique name, used as XLink target
	// Base is the document's offset in the collection-wide element
	// numbering (set by Collection); element e has global index
	// Base + int(e.Index).
	Base int
	Root *Element
	// Elements lists all element nodes (including attribute pseudo-elements)
	// in document order; Elements[e.Index] == e.
	Elements []*Element
	// NumTokens is the total number of tokens assigned positions in this
	// document; positions are in [0, NumTokens).
	NumTokens uint32

	// kidOff and kids are the child-offset table IndexAt walks: the
	// children of Elements[i], in ordinal order, are the elements indexed
	// by kids[kidOff[i]:kidOff[i+1]]. Built once at parse time (8 bytes
	// per element, no pointers), so resolving a Dewey ID never touches an
	// Element.
	kidOff []int32
	kids   []int32

	// xlinks are the document's XLink references in document order,
	// collected at parse time so Collection.Components partitions the
	// collection without walking any element.
	xlinks []Ref

	// ids maps XMLID values to element indexes (the last element wins on
	// a duplicate id); built on first use by elementByID, under idsOnce.
	idsOnce sync.Once
	ids     map[string]int32
}

// finish builds the parse-time lookup tables: the child-offset table
// from the parsed tree, and the XLink list.
func (d *Document) finish() {
	d.kidOff = make([]int32, len(d.Elements)+1)
	d.kids = make([]int32, 0, len(d.Elements))
	for i, e := range d.Elements {
		d.kidOff[i] = int32(len(d.kids))
		for _, c := range e.Children {
			d.kids = append(d.kids, c.Index)
		}
		for _, r := range e.Refs {
			if r.Kind == RefXLink {
				d.xlinks = append(d.xlinks, r)
			}
		}
	}
	d.kidOff[len(d.Elements)] = int32(len(d.kids))
}

// elementByID returns the element whose id attribute is id, or nil.
func (d *Document) elementByID(id string) *Element {
	d.idsOnce.Do(func() {
		d.ids = make(map[string]int32)
		for _, e := range d.Elements {
			if e.XMLID != "" {
				d.ids[e.XMLID] = e.Index
			}
		}
	})
	if i, ok := d.ids[id]; ok {
		return d.Elements[i]
	}
	return nil
}

// NumElements returns N_de for the document: the number of element nodes
// it contains (used by the ElemRank random-jump term).
func (d *Document) NumElements() int { return len(d.Elements) }

// DeweyID returns the Dewey ID of e, with the document ID as the first
// component (Section 4.2.1). The root element's ID is just [docID].
func (e *Element) DeweyID() dewey.ID {
	depth := 0
	for p := e; p.Parent != nil; p = p.Parent {
		depth++
	}
	id := make(dewey.ID, depth+1)
	id[0] = e.Doc.ID
	for p, i := e, depth; p.Parent != nil; p, i = p.Parent, i-1 {
		id[i] = p.Ord
	}
	return id
}

// IndexAt resolves a Dewey ID to the index in Elements of the element it
// names, or -1 when the ID does not belong to this document or names no
// element. Its collection-wide index is Base + IndexAt(id).
func (d *Document) IndexAt(id dewey.ID) int {
	if len(id) == 0 || id[0] != d.ID || len(d.kidOff) == 0 {
		return -1
	}
	i := int32(0) // the root is Elements[0]
	for _, ord := range id[1:] {
		lo, hi := d.kidOff[i], d.kidOff[i+1]
		if ord >= uint32(hi-lo) {
			return -1
		}
		i = d.kids[lo+int32(ord)]
	}
	return int(i)
}

// ElementAt resolves a Dewey ID (which must belong to this document) to its
// element, or nil if the path does not exist.
func (d *Document) ElementAt(id dewey.ID) *Element {
	if i := d.IndexAt(id); i >= 0 {
		return d.Elements[i]
	}
	return nil
}

// IsAncestorOrSelf reports whether a is e or one of e's ancestors.
func IsAncestorOrSelf(a, e *Element) bool {
	for p := e; p != nil; p = p.Parent {
		if p == a {
			return true
		}
	}
	return false
}

// ContainsTerm reports whether e directly or indirectly contains the term
// (the paper's contains* predicate). It is a reference implementation used
// by tests and the brute-force query reference; indexes answer this much
// faster.
func ContainsTerm(e *Element, term string) bool {
	for _, t := range e.Tokens {
		if t.Term == term {
			return true
		}
	}
	for _, c := range e.Children {
		if ContainsTerm(c, term) {
			return true
		}
	}
	return false
}

// DirectTerms returns the set of terms directly contained by e.
func DirectTerms(e *Element) map[string]bool {
	m := make(map[string]bool, len(e.Tokens))
	for _, t := range e.Tokens {
		m[t.Term] = true
	}
	return m
}

// Walk calls fn for every element in the subtree rooted at e, in document
// order (pre-order). It stops early if fn returns false.
func Walk(e *Element, fn func(*Element) bool) bool {
	if e == nil {
		return true
	}
	if !fn(e) {
		return false
	}
	for _, c := range e.Children {
		if !Walk(c, fn) {
			return false
		}
	}
	return true
}

// Path returns the slash-separated tag path from the root to e, e.g.
// "workshop/proceedings/paper/title", for display purposes.
func Path(e *Element) string {
	if e == nil {
		return ""
	}
	if e.Parent == nil {
		return e.Tag
	}
	return Path(e.Parent) + "/" + e.Tag
}
