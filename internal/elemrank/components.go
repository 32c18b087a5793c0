package elemrank

import (
	"encoding/binary"

	"xrank/internal/xmldoc"
)

// ElemRank by connected component. The surfer's transition matrix is
// block-diagonal over the connected components of the collection's link
// graph (documents joined by containment, IDREFs and resolved XLinks):
// only the random jump crosses between components. Let y_K be Compute's
// fixpoint on component K's own graph, whose jump is local (1/(n_docs(K)
// · N_de(v)) for the final variant, 1/N_K for the others) and whose
// dangling mass is recycled locally, and let β_K = 1 − dNav + dNav·δ_K(y_K)
// be the share of y_K's mass that arrives by that jump. With w_K the
// component's share of the global jump mass (n_docs(K)/N_d for the final
// variant, N_K/N for the others), the global fixpoint restricted to K
// solves K's local system with jump mass β·w_K in place of β_K, where β
// is the global jump share. It is therefore (β·w_K/β_K)·y_K, and total
// mass 1 fixes β = 1/Σ_J (w_J/β_J):
//
//	x_v = f_K · y_v,   f_K = (w_K/β_K) / Σ_J (w_J/β_J).
//
// y_K depends only on K's subgraph, so it can be computed once and
// reused for as long as K is unchanged. With a single component f = 1
// exactly, and the result is bit-identical to Compute on BuildGraph.

// Component is one connected component's ElemRank solution.
type Component struct {
	// Docs are the component's document IDs in ascending order.
	Docs []uint32
	// Scores is y_K: the fixpoint of Compute on the component's own graph
	// (ComponentGraph), indexed by the graph's element order.
	Scores []float64
	// Beta is β_K = 1 − dNav + dNav·δ_K(y_K), where δ_K is the mass y_K
	// leaves on dangling elements.
	Beta float64
	// Iterations and Converged are Compute's for this component.
	Iterations int
	Converged  bool
	// Links counts the component's references by resolution outcome.
	Links xmldoc.LinkStats
}

// Ranking is a collection's ElemRank assembled from its components.
type Ranking struct {
	// Scores[g] is the ElemRank of the element with global index g.
	Scores []float64
	// Components holds the solution of every current component, keyed by
	// its document-ID list and dangling-XLink count (componentKey). Passed
	// back to ComputeComponents as prev, it lets the next call solve only
	// the components that changed.
	Components map[string]*Component
	// Solved and ElementsSolved count the components this call solved
	// (rather than reused from prev) and their elements.
	Solved, ElementsSolved int
	// Iterations and Converged describe the largest component (most
	// elements; the smallest document ID breaks ties); Converged is
	// false if any component failed to converge.
	Iterations int
	Converged  bool
	// Links sums the link statistics of every component.
	Links xmldoc.LinkStats
}

// componentKey is the cache key of component k: its document IDs, then
// its dangling-XLink count.
//
// The key determines the component's subgraph. Containment and IDREF
// edges are fixed by the documents, so the subgraph can change only when
// one of its XLinks resolves differently. An XLink resolves through the
// newest version of its target name, and names are never removed. Say a
// link of K resolves to element t now. t's document is in K, so it
// existed when K's entry was solved, and since it is the newest version
// of its name now it was then too: the link resolved to t then as well.
// So the only change a link can undergo while K's document set stays the
// same is from resolving to dangling, when a newer version of the target
// name lacks the link's fragment; that raises the dangling count. Any
// other change brings the new version's document into K.
func componentKey(k xmldoc.Component) string {
	b := make([]byte, 4*len(k.Docs), 4*len(k.Docs)+8)
	for i, d := range k.Docs {
		binary.LittleEndian.PutUint32(b[4*i:], d)
	}
	return string(binary.LittleEndian.AppendUint64(b, uint64(k.DanglingXLinks)))
}

// ComputeComponents computes the ElemRanks of c component by component.
// Components whose key appears in prev reuse that solution; the rest are
// solved with Compute on their ComponentGraph. prev is not modified, and
// the result is bit-identical whatever prev holds, provided its entries
// came from the same Params and from earlier states of the same
// append-only collection: every document ID an entry names must still
// name the same document in c. Such an entry is never stale, because its
// key determines its subgraph (see componentKey).
func ComputeComponents(c *xmldoc.Collection, p Params, prev map[string]*Component) (*Ranking, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	parts := c.Components()
	r := &Ranking{
		Scores:     make([]float64, c.NumElements()),
		Components: make(map[string]*Component, len(parts)),
		Converged:  true,
	}
	comps := make([]*Component, len(parts))
	largest := -1
	for i, part := range parts {
		key := componentKey(part)
		k := prev[key]
		if k == nil {
			var err error
			if k, err = solveComponent(c, p, part.Docs); err != nil {
				return nil, err
			}
			r.Solved++
			r.ElementsSolved += len(k.Scores)
		}
		comps[i] = k
		r.Components[key] = k
		r.Converged = r.Converged && k.Converged
		r.Links.Resolved += k.Links.Resolved
		r.Links.Dangling += k.Links.Dangling
		r.Links.SelfLinks += k.Links.SelfLinks
		if largest < 0 || len(k.Scores) > len(comps[largest].Scores) {
			largest = i
		}
	}
	if largest < 0 {
		return r, nil
	}
	r.Iterations = comps[largest].Iterations

	// weight is w_K/β_K, and sum is Σ_K w_K/β_K in component order.
	weight := func(k *Component) float64 {
		if p.Variant == VariantFinal {
			return float64(len(k.Docs)) / float64(c.NumDocs()) / k.Beta
		}
		return float64(len(k.Scores)) / float64(c.NumElements()) / k.Beta
	}
	sum := 0.0
	for _, k := range comps {
		sum += weight(k)
	}
	for _, k := range comps {
		f := weight(k) / sum
		y := k.Scores
		for _, id := range k.Docs {
			d := c.Docs[id]
			x := r.Scores[d.Base : d.Base+d.NumElements()]
			for i := range x {
				x[i] = f * y[i]
			}
			y = y[len(x):]
		}
	}
	return r, nil
}

// solveComponent runs Compute on the component over docs.
func solveComponent(c *xmldoc.Collection, p Params, docs []uint32) (*Component, error) {
	g, links := ComponentGraph(c, docs)
	res, err := Compute(g, p)
	if err != nil {
		return nil, err
	}
	// One more push measures δ_K(y_K) under the variant's own notion of
	// a dangling element.
	dNav := p.D1 + p.D2 + p.D3
	dangling := pushIteration(g, p, dNav, res.Scores, make([]float64, g.N))
	return &Component{
		Docs:       docs,
		Scores:     res.Scores,
		Beta:       1 - dNav + dNav*dangling,
		Iterations: res.Iterations,
		Converged:  res.Converged,
		Links:      links,
	}, nil
}
