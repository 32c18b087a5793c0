package elemrank

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"xrank/internal/xmldoc"
)

var allVariants = []Variant{VariantFinal, VariantPageRank, VariantBidirectional, VariantDiscriminated}

// linkedDoc is one random document version for the component tests.
type linkedDoc struct {
	name string
	html bool
	src  string
}

// randomLinkedDoc returns a random document named n<k> for k < names.
// XML documents carry ids, IDREFs (some dangling) and, in half of them,
// XLinks to "n<k>" or "n<k>#i<j>" for k up to names+2, so some target
// names that do not exist yet and some fragments that never will. One
// document in four is an HTML page, half of them without links: their
// single element is a dangling root.
func randomLinkedDoc(r *rand.Rand, names int) linkedDoc {
	d := linkedDoc{name: fmt.Sprintf("n%d", r.Intn(names))}
	target := func() string {
		t := fmt.Sprintf("n%d", r.Intn(names+2))
		if r.Intn(2) == 0 {
			t += fmt.Sprintf("#i%d", r.Intn(8))
		}
		return t
	}
	if r.Intn(4) == 0 {
		d.html = true
		var b strings.Builder
		b.WriteString("<html><body>page")
		if r.Intn(2) == 0 {
			for i := 0; i <= r.Intn(3); i++ {
				fmt.Fprintf(&b, `<a href="%s">l</a>`, strings.SplitN(target(), "#", 2)[0])
			}
		}
		b.WriteString("</body></html>")
		d.src = b.String()
		return d
	}
	xlinks := r.Intn(2) == 0
	var b strings.Builder
	n := 0
	var gen func(depth int)
	gen = func(depth int) {
		tag := fmt.Sprintf("t%d", n)
		b.WriteString("<" + tag)
		if r.Intn(2) == 0 {
			fmt.Fprintf(&b, ` id="i%d"`, n)
		}
		n++
		if r.Intn(5) == 0 {
			fmt.Fprintf(&b, ` ref="i%d"`, r.Intn(10))
		}
		if xlinks && r.Intn(6) == 0 {
			fmt.Fprintf(&b, ` xlink="%s"`, target())
		}
		b.WriteString(">w")
		if depth < 3 {
			for i := 0; i < r.Intn(4); i++ {
				gen(depth + 1)
			}
		}
		b.WriteString("</" + tag + ">")
	}
	gen(0)
	d.src = b.String()
	return d
}

func addLinkedDoc(t *testing.T, c *xmldoc.Collection, d linkedDoc) {
	t.Helper()
	var err error
	if d.html {
		_, err = c.AddHTMLVersion(d.name, strings.NewReader(d.src), nil)
	} else {
		_, err = c.AddXMLVersion(d.name, strings.NewReader(d.src), nil)
	}
	if err != nil {
		t.Fatalf("add %s: %v\n%s", d.name, err, d.src)
	}
}

func variantParams(v Variant) Params {
	p := DefaultParams()
	p.Variant = v
	return p
}

func computeComponents(t *testing.T, c *xmldoc.Collection, p Params, prev map[string]*Component) *Ranking {
	t.Helper()
	r, err := ComputeComponents(c, p, prev)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func assertBitIdentical(t *testing.T, tag string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d scores, want %d", tag, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: score %d is %v, want %v bit for bit", tag, i, got[i], want[i])
		}
	}
}

func l1(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s
}

// TestComponentsPartition checks Collection.Components against connected
// components computed by brute force over ResolveLinks' element edges.
func TestComponentsPartition(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		c := xmldoc.NewCollection()
		for i := 0; i < 2+r.Intn(12); i++ {
			addLinkedDoc(t, c, randomLinkedDoc(r, 8))
		}
		// Brute force: flood-fill documents over resolved edges, both ways.
		adj := make([][]int, c.NumDocs())
		out, _ := c.ResolveLinks()
		for g, targets := range out {
			from := int(c.ElementByGlobalIndex(g).Doc.ID)
			for _, tg := range targets {
				to := int(c.ElementByGlobalIndex(int(tg)).Doc.ID)
				adj[from] = append(adj[from], to)
				adj[to] = append(adj[to], from)
			}
		}
		seen := make([]bool, c.NumDocs())
		var want [][]uint32
		for d := range adj {
			if seen[d] {
				continue
			}
			var comp []uint32
			stack := []int{d}
			seen[d] = true
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				comp = append(comp, uint32(x))
				for _, y := range adj[x] {
					if !seen[y] {
						seen[y] = true
						stack = append(stack, y)
					}
				}
			}
			sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
			want = append(want, comp)
		}
		got := c.Components()
		var gotDocs [][]uint32
		for _, k := range got {
			gotDocs = append(gotDocs, k.Docs)
		}
		if fmt.Sprint(gotDocs) != fmt.Sprint(want) {
			t.Fatalf("seed %d: Components() = %v, want %v", seed, gotDocs, want)
		}
		// Dangling XLinks, counted by walking every element.
		for _, k := range got {
			n := 0
			for _, id := range k.Docs {
				d := c.Docs[id]
				for _, e := range d.Elements {
					for _, ref := range e.Refs {
						if ref.Kind == xmldoc.RefXLink && c.Resolve(d, ref) == nil {
							n++
						}
					}
				}
			}
			if k.DanglingXLinks != n {
				t.Fatalf("seed %d: component %v has %d dangling XLinks, want %d", seed, k.Docs, k.DanglingXLinks, n)
			}
		}
	}
}

// TestComponentsFragmentDropped: a links "b#f" and b links a, so {a, b}
// is one component. A new version of b without id f makes a's link
// dangle; the old b still links a, so the component keeps its documents.
// Its cached solution must not be reused.
func TestComponentsFragmentDropped(t *testing.T) {
	for _, v := range allVariants {
		p := variantParams(v)
		c := xmldoc.NewCollection()
		addLinkedDoc(t, c, linkedDoc{name: "a", src: `<a><x xlink="b#f">w</x><y>w</y></a>`})
		addLinkedDoc(t, c, linkedDoc{name: "b", src: `<b xlink="a"><f id="f">w</f></b>`})
		prev := computeComponents(t, c, p, nil)
		if len(prev.Components) != 1 {
			t.Fatalf("%v: %d components, want 1", v, len(prev.Components))
		}
		c = c.Clone()
		addLinkedDoc(t, c, linkedDoc{name: "b", src: `<b><g>w</g></b>`})
		inc := computeComponents(t, c, p, prev.Components)
		cold := computeComponents(t, c, p, nil)
		assertBitIdentical(t, v.String(), inc.Scores, cold.Scores)
		if inc.Solved != 2 || inc.Links != cold.Links {
			t.Fatalf("%v: solved %d components with links %+v, want 2 with %+v", v, inc.Solved, inc.Links, cold.Links)
		}
	}
}

// TestComponentsSingleComponentMatchesCompute: over a fully linked
// collection the decomposition is the global solve, bit for bit.
func TestComponentsSingleComponentMatchesCompute(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		c := xmldoc.NewCollection()
		n := 2 + r.Intn(6)
		for i := 0; i < n; i++ {
			d := randomLinkedDoc(r, n)
			d.name = fmt.Sprintf("n%d", i)
			// Chain every document to the next, so there is one component.
			if d.html {
				d.src = strings.Replace(d.src, "</body>", fmt.Sprintf(`<a href="n%d">next</a></body>`, (i+1)%n), 1)
			} else {
				d.src = strings.Replace(d.src, ">w", fmt.Sprintf(` xlinks="n%d">w`, (i+1)%n), 1)
			}
			addLinkedDoc(t, c, d)
		}
		if got := len(c.Components()); got != 1 {
			t.Fatalf("seed %d: %d components, want 1", seed, got)
		}
		g, links := BuildGraph(c)
		for _, v := range allVariants {
			p := variantParams(v)
			want, err := Compute(g, p)
			if err != nil {
				t.Fatal(err)
			}
			got := computeComponents(t, c, p, nil)
			tag := fmt.Sprintf("seed %d %v", seed, v)
			assertBitIdentical(t, tag, got.Scores, want.Scores)
			if got.Iterations != want.Iterations || got.Converged != want.Converged || got.Links != links {
				t.Fatalf("%s: iterations %d converged %v links %+v, want %d %v %+v",
					tag, got.Iterations, got.Converged, got.Links, want.Iterations, want.Converged, links)
			}
		}
	}
}

// TestComponentsIncrementalMatchesCold grows random collections batch by
// batch — new names, shadowing versions that retarget their referrers,
// links whose target names arrive later — and checks that reusing the
// previous batch's solutions gives ranks bit-identical to solving every
// component cold, while solving fewer components.
func TestComponentsIncrementalMatchesCold(t *testing.T) {
	reused := 0
	for seed := int64(0); seed < 20; seed++ {
		for _, v := range allVariants {
			r := rand.New(rand.NewSource(seed))
			p := variantParams(v)
			c := xmldoc.NewCollection()
			var prev map[string]*Component
			for batch := 0; batch < 6; batch++ {
				c = c.Clone()
				for i := 0; i <= r.Intn(3); i++ {
					addLinkedDoc(t, c, randomLinkedDoc(r, 12))
				}
				inc := computeComponents(t, c, p, prev)
				cold := computeComponents(t, c, p, nil)
				tag := fmt.Sprintf("seed %d %v batch %d", seed, v, batch)
				assertBitIdentical(t, tag, inc.Scores, cold.Scores)
				if inc.Iterations != cold.Iterations || inc.Converged != cold.Converged || inc.Links != cold.Links {
					t.Fatalf("%s: summary %d/%v/%+v, cold %d/%v/%+v", tag,
						inc.Iterations, inc.Converged, inc.Links, cold.Iterations, cold.Converged, cold.Links)
				}
				if cold.Solved != len(cold.Components) || inc.Solved > cold.Solved {
					t.Fatalf("%s: solved %d incrementally, %d cold over %d components", tag, inc.Solved, cold.Solved, len(cold.Components))
				}
				reused += cold.Solved - inc.Solved
				prev = inc.Components
			}
		}
	}
	if reused == 0 {
		t.Fatal("no batch reused a component solution")
	}
}

// TestComponentsAccuracy checks the decomposed ranks against the global
// fixpoint, solved to ε = 1e-14 as the reference: they form a
// distribution (Σx = 1 to 1e-12), are within ε·dNav/(1−dNav) in L1 at the
// default ε — the power iteration's stopping bound, since each step
// contracts by dNav — and, solved to 1e-14 themselves, meet the
// reference to 1e-12, so the decomposition adds no error of its own.
func TestComponentsAccuracy(t *testing.T) {
	worst, multi := 0.0, 0
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		c := xmldoc.NewCollection()
		for i := 0; i < 3+r.Intn(15); i++ {
			addLinkedDoc(t, c, randomLinkedDoc(r, 10))
		}
		g, _ := BuildGraph(c)
		for _, v := range allVariants {
			p := variantParams(v)
			tight := p
			tight.Epsilon, tight.MaxIters = 1e-14, 100000
			ref, err := Compute(g, tight)
			if err != nil || !ref.Converged {
				t.Fatalf("reference: %v (converged %v)", err, ref.Converged)
			}
			tag := fmt.Sprintf("seed %d %v (%d components)", seed, v, len(c.Components()))

			x := computeComponents(t, c, p, nil)
			sum := 0.0
			for _, s := range x.Scores {
				sum += s
			}
			if math.Abs(sum-1) > 1e-12 {
				t.Errorf("%s: Σx = 1%+g", tag, sum-1)
			}
			dNav := p.D1 + p.D2 + p.D3
			d, bound := l1(x.Scores, ref.Scores), p.Epsilon*dNav/(1-dNav)
			if d > bound {
				t.Errorf("%s: L1 distance %g to the reference exceeds %g", tag, d, bound)
			}
			worst = math.Max(worst, d/bound)
			if len(x.Components) > 1 {
				multi++
			}
			xt := computeComponents(t, c, tight, nil)
			if d := l1(xt.Scores, ref.Scores); d > 1e-12 {
				t.Errorf("%s: tightly solved components are %g from the reference", tag, d)
			}
		}
	}
	if multi == 0 {
		t.Fatal("no collection had more than one component")
	}
	t.Logf("%d multi-component cases; worst L1 distance %.3f of the bound", multi, worst)
}
