// Package elemrank computes ElemRank — the XRANK measure of the objective
// importance of an XML element (Guo et al., SIGMOD 2003, Section 3).
// ElemRank generalizes PageRank to element granularity: importance flows
// along hyperlink edges (like PageRank), forward along containment edges
// (an important paper makes its sections important), and in aggregate
// backward along reverse containment edges (a workshop with many important
// papers is important).
//
// The package implements the paper's final formula and, for ablation, the
// three intermediate refinements developed in Section 3.1.
package elemrank

import (
	"fmt"

	"xrank/internal/xmldoc"
)

// Graph is the element-granularity link graph of a collection in a compact
// array form: elements are identified by their collection-wide global
// index (xmldoc.Collection.GlobalIndex).
type Graph struct {
	N    int // number of element nodes
	Docs int // N_d, number of documents

	// Parent[v] is the global index of v's parent element, or -1 for
	// document roots. Reverse containment edges are v -> Parent[v].
	Parent []int32

	// Children in CSR form: children of u are
	// ChildList[ChildOff[u]:ChildOff[u+1]].
	ChildOff  []int32
	ChildList []int32

	// Hyperlinks in CSR form: hyperlink targets of u are
	// HLinkList[HLinkOff[u]:HLinkOff[u+1]].
	HLinkOff  []int32
	HLinkList []int32

	// DocSize[v] is N_de(v): the number of elements in v's document.
	DocSize []int32
}

// BuildGraph extracts the ElemRank graph of a whole parsed collection,
// resolving hyperlinks: ComponentGraph over every document, so element v
// of the graph is the element with global index v. The returned
// LinkStats reports dropped references.
func BuildGraph(c *xmldoc.Collection) (*Graph, xmldoc.LinkStats) {
	docs := make([]uint32, c.NumDocs())
	for i := range docs {
		docs[i] = uint32(i)
	}
	return ComponentGraph(c, docs)
}

// ComponentGraph extracts the ElemRank graph over the documents docs of
// c, in ascending ID order: element v of the graph is the v-th element of
// those documents taken in that order, each document's in document
// order, and Docs is len(docs). Every hyperlink out of docs must resolve
// back into docs, as it does for a component of c.Components(); the
// graph is then exactly the subgraph the random surfer walks inside it.
func ComponentGraph(c *xmldoc.Collection, docs []uint32) (*Graph, xmldoc.LinkStats) {
	var stats xmldoc.LinkStats
	base := make(map[uint32]int32, len(docs))
	n := 0
	for _, id := range docs {
		base[id] = int32(n)
		n += c.Docs[id].NumElements()
	}
	g := &Graph{
		N:         n,
		Docs:      len(docs),
		Parent:    make([]int32, n),
		DocSize:   make([]int32, n),
		ChildOff:  make([]int32, n+1),
		ChildList: make([]int32, 0, n),
		HLinkOff:  make([]int32, n+1),
	}
	v := 0
	for _, id := range docs {
		d := c.Docs[id]
		b := base[id]
		for _, e := range d.Elements {
			g.DocSize[v] = int32(len(d.Elements))
			g.Parent[v] = -1
			if e.Parent != nil {
				g.Parent[v] = b + e.Parent.Index
			}
			for _, ch := range e.Children {
				g.ChildList = append(g.ChildList, b+ch.Index)
			}
			for _, ref := range e.Refs {
				t := c.Resolve(d, ref)
				if !stats.Count(e, t) {
					continue
				}
				tb, ok := base[t.Doc.ID]
				if !ok {
					panic(fmt.Sprintf("elemrank: a link from document %d leaves the component into document %d", id, t.Doc.ID))
				}
				g.HLinkList = append(g.HLinkList, tb+t.Index)
			}
			v++
			g.ChildOff[v] = int32(len(g.ChildList))
			g.HLinkOff[v] = int32(len(g.HLinkList))
		}
	}
	return g, stats
}

// NumChildren returns N_c(u).
func (g *Graph) NumChildren(u int32) int32 { return g.ChildOff[u+1] - g.ChildOff[u] }

// NumHLinks returns N_h(u).
func (g *Graph) NumHLinks(u int32) int32 { return g.HLinkOff[u+1] - g.HLinkOff[u] }

// Children returns the child slice of u (shared storage; do not mutate).
func (g *Graph) Children(u int32) []int32 { return g.ChildList[g.ChildOff[u]:g.ChildOff[u+1]] }

// HLinks returns the hyperlink-target slice of u (shared storage).
func (g *Graph) HLinks(u int32) []int32 { return g.HLinkList[g.HLinkOff[u]:g.HLinkOff[u+1]] }
