package xrank

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
)

// The incremental-update differential harness: a random sequence of
// Update (rebuild with additions) and DeleteDoc (tombstone) operations
// must leave the engine equivalent to one built from scratch over the
// same live document set.
//
//   - After every Update, the rebuilt engine must match a from-scratch
//     engine exactly — same results in the same order with scores equal
//     to 1e-9 — under every algorithm. Update feeds the from-scratch
//     engine's document order: live documents in manifest order, then
//     additions sorted by name.
//   - After a DeleteDoc without a rebuild, exact score equality is NOT
//     expected (tombstoned documents still contribute ElemRank through
//     their links until the next rebuild, just as Section 4.5's
//     tombstones defer space reclamation); the harness asserts the
//     tombstoned documents' elements vanish from results immediately.

// diffVocab is the shared query vocabulary; every generated document
// draws from it so conjunctive queries span documents.
var diffVocab = []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}

// diffDoc generates a small deterministic document: a few sections each
// holding vocabulary words plus a doc-unique marker, with one cite link
// so the ElemRank graph has edges.
func diffDoc(rng *rand.Rand, n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "<doc id=\"%d\"><title>%s doc%d</title>", n, diffVocab[n%len(diffVocab)], n)
	sections := 2 + rng.Intn(3)
	for s := 0; s < sections; s++ {
		words := make([]string, 0, 4)
		for w := 0; w < 2+rng.Intn(3); w++ {
			words = append(words, diffVocab[rng.Intn(len(diffVocab))])
		}
		words = append(words, fmt.Sprintf("uniq%d", n))
		fmt.Fprintf(&b, "<section name=\"s%d\"><p>%s</p></section>", s, strings.Join(words, " "))
	}
	fmt.Fprintf(&b, "<cite ref=\"%d\">%s</cite></doc>", rng.Intn(n+1), diffVocab[rng.Intn(len(diffVocab))])
	b.WriteString("")
	return b.String()
}

var diffQueries = []string{
	"alpha beta",
	"gamma delta",
	"alpha epsilon zeta",
	"beta",
}

// diffAlgos covers every conjunctive processor plus disjunctive
// semantics.
var diffAlgos = []SearchOptions{
	{Algorithm: AlgoDIL},
	{Algorithm: AlgoRDIL},
	{Algorithm: AlgoHDIL},
	{Disjunctive: true},
}

func searchLabel(o SearchOptions) string {
	if o.Disjunctive {
		return "Disjunctive"
	}
	return o.Algorithm.String()
}

// assertEnginesAgree compares the two engines result-for-result over the
// differential query/algorithm matrix.
func assertEnginesAgree(t *testing.T, tag string, a, b *Engine) {
	t.Helper()
	for _, q := range diffQueries {
		for _, algo := range diffAlgos {
			opts := algo
			opts.TopM = 25
			ra, _, errA := a.SearchDetailed(q, opts)
			rb, _, errB := b.SearchDetailed(q, opts)
			if errA != nil || errB != nil {
				t.Fatalf("%s %s %q: errs %v / %v", tag, searchLabel(algo), q, errA, errB)
			}
			if len(ra) != len(rb) {
				t.Fatalf("%s %s %q: %d results vs %d from scratch", tag, searchLabel(algo), q, len(ra), len(rb))
			}
			for i := range ra {
				if ra[i].DeweyID != rb[i].DeweyID || ra[i].Doc != rb[i].Doc {
					t.Fatalf("%s %s %q result %d: %s@%s vs %s@%s",
						tag, searchLabel(algo), q, i, ra[i].DeweyID, ra[i].Doc, rb[i].DeweyID, rb[i].Doc)
				}
				if math.Abs(ra[i].Score-rb[i].Score) > 1e-9 {
					t.Fatalf("%s %s %q result %d (%s): score %v vs %v",
						tag, searchLabel(algo), q, i, ra[i].DeweyID, ra[i].Score, rb[i].Score)
				}
			}
		}
	}
}

// assertDocsAbsent checks that no result resolves into a tombstoned
// document.
func assertDocsAbsent(t *testing.T, tag string, e *Engine, gone map[string]bool) {
	t.Helper()
	if len(gone) == 0 {
		return
	}
	for _, q := range diffQueries {
		for _, algo := range diffAlgos {
			opts := algo
			opts.TopM = 25
			rs, _, err := e.SearchDetailed(q, opts)
			if err != nil {
				t.Fatalf("%s %s %q: %v", tag, searchLabel(algo), q, err)
			}
			for _, r := range rs {
				if gone[r.Doc] {
					t.Fatalf("%s %s %q: tombstoned document %s still in results", tag, searchLabel(algo), q, r.Doc)
				}
			}
		}
	}
}

func TestUpdateDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20030609)) // SIGMOD 2003

	// The document pool; documents enter the engine over the rounds.
	pool := make(map[string]string)
	for n := 0; n < 12; n++ {
		pool[fmt.Sprintf("doc%02d", n)] = diffDoc(rng, n)
	}

	base := t.TempDir()
	buildScratch := func(dir string, docs []string) *Engine {
		e := NewEngine(&Config{IndexDir: dir})
		for _, name := range docs {
			if err := e.AddXML(name, strings.NewReader(pool[name])); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.Build(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		return e
	}

	// Round 0: initial build over the first four documents.
	live := []string{"doc00", "doc01", "doc02", "doc03"}
	next := 4
	cur := buildScratch(filepath.Join(base, "r0"), live)

	deleted := map[string]bool{}
	for round := 1; round <= 3; round++ {
		// Tombstone one random live document.
		victim := live[rng.Intn(len(live))]
		if err := cur.DeleteDoc(victim); err != nil {
			t.Fatal(err)
		}
		deleted[victim] = true
		assertDocsAbsent(t, fmt.Sprintf("round %d post-delete", round), cur, deleted)

		// Fold the tombstone in and add one or two new documents via Update.
		add := map[string]string{}
		for i := 0; i < 1+rng.Intn(2) && next < 12; i++ {
			name := fmt.Sprintf("doc%02d", next)
			add[name] = pool[name]
			next++
		}
		// Update's document order: live docs in manifest order, then
		// additions sorted by name (here: doc numbers ascend).
		newLive := make([]string, 0, len(live)+len(add))
		for _, n := range live {
			if !deleted[n] {
				newLive = append(newLive, n)
			}
		}
		addNames := make([]string, 0, len(add))
		for n := range add {
			addNames = append(addNames, n)
		}
		for i := range addNames {
			for j := i + 1; j < len(addNames); j++ {
				if addNames[j] < addNames[i] {
					addNames[i], addNames[j] = addNames[j], addNames[i]
				}
			}
		}
		newLive = append(newLive, addNames...)

		addReaders := make(map[string]io.Reader, len(add))
		for n, x := range add {
			addReaders[n] = strings.NewReader(x)
		}
		updated, err := cur.Update(filepath.Join(base, fmt.Sprintf("r%d", round)), addReaders)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { updated.Close() })

		scratch := buildScratch(filepath.Join(base, fmt.Sprintf("r%d-scratch", round)), newLive)
		assertEnginesAgree(t, fmt.Sprintf("round %d post-update", round), updated, scratch)

		cur = updated
		live = newLive
		deleted = map[string]bool{}
	}
}
