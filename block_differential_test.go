package xrank

import (
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// The block-pruning differential harness: over an AddDocs / DeleteDoc /
// CompactOnce / reopen script, every top-m answer must be BIT-IDENTICAL —
// exact struct equality, scores and tie-break order included — to the
// first m results of an exhaustive evaluation on the same engine (a
// top-m large enough that no threshold is ever reached, so no rank block
// can be pruned). RDIL and HDIL abandon whole rank-ordered blocks once
// their threshold passes the blocks' MaxRank, and small m makes them do
// so often; any divergence indicates an unsound block skip, a skip ref
// that disagrees with its block, or a block codec bug.
func TestBlockPostingsDifferential(t *testing.T) {
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(20030609*5 + shards)))
			dir := filepath.Join(t.TempDir(), "idx")
			e := NewEngine(&Config{IndexDir: dir, Shards: shards})
			defer func() { e.Close() }()

			// Enough documents that the vocabulary terms' lists span several
			// blocks at shards=1, so pruning decisions have real targets.
			live := map[string]bool{}
			nextName, nextUniq := 0, 0
			liveNames := func() []string {
				names := make([]string, 0, len(live))
				for n := range live {
					names = append(names, n)
				}
				sort.Strings(names)
				return names
			}
			add := func(tag string, count int, shadow bool) {
				t.Helper()
				batch := map[string]io.Reader{}
				if shadow {
					names := liveNames()
					batch[names[rng.Intn(len(names))]] = strings.NewReader(diffDoc(rng, nextUniq))
					nextUniq++
				}
				for len(batch) < count {
					name := fmt.Sprintf("doc%02d", nextName)
					batch[name] = strings.NewReader(diffDoc(rng, nextUniq))
					nextName++
					nextUniq++
				}
				if err := e.AddDocs(batch); err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				for n := range batch {
					live[n] = true
				}
			}

			for i := 0; i < 160; i++ {
				name := fmt.Sprintf("doc%02d", nextName)
				nextName++
				if err := e.AddXML(name, strings.NewReader(diffDoc(rng, nextUniq))); err != nil {
					t.Fatal(err)
				}
				nextUniq++
				live[name] = true
			}
			if _, err := e.Build(); err != nil {
				t.Fatal(err)
			}

			var skipped int64
			check := func(tag string) {
				t.Helper()
				skipped += assertPrunedMatchesExhaustive(t, tag, e)
			}
			check("initial build")
			assertDecodesBlocks(t, "initial build", e)

			deleteOne := func(tag string) {
				names := liveNames()
				victim := names[rng.Intn(len(names))]
				if err := e.DeleteDoc(victim); err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				delete(live, victim)
			}
			compact := func(tag string) {
				if _, err := e.CompactOnce(0); err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
			}
			reopen := func(tag string) {
				e.Close()
				var err error
				if e, err = OpenEngine(dir); err != nil {
					t.Fatalf("%s: reopen: %v", tag, err)
				}
				assertDecodesBlocks(t, tag, e)
			}

			ops := []struct {
				name string
				run  func(tag string)
			}{
				{"add3", func(tag string) { add(tag, 3, false) }},
				{"delete", deleteOne},
				{"shadow", func(tag string) { add(tag, 2, true) }},
				{"reopen", reopen},
				{"compact", compact},
				{"add2", func(tag string) { add(tag, 2, false) }},
				{"delete2", deleteOne},
				{"reopen2", reopen},
				{"compact2", compact},
				{"add1", func(tag string) { add(tag, 1, false) }},
				{"reopen3", reopen},
			}
			for i, op := range ops {
				tag := fmt.Sprintf("op %d (%s)", i, op.name)
				op.run(tag)
				check(tag)
			}
			t.Logf("blocks skipped by the pruned runs: %d", skipped)
			if shards == 1 && skipped == 0 {
				t.Fatal("no query skipped a block; the harness compared nothing that pruning decides")
			}
		})
	}
}

// assertPrunedMatchesExhaustive checks every threshold processor at
// several small top-m against the prefix of the exhaustive DIL (and, for
// Disjunctive, exhaustive Disjunctive) answer, and returns the blocks the
// pruned runs skipped.
func assertPrunedMatchesExhaustive(t *testing.T, tag string, e *Engine) int64 {
	t.Helper()
	const all = 1 << 20
	var skipped int64
	for _, q := range diffQueries {
		for _, disj := range []bool{false, true} {
			full, _, err := e.SearchDetailed(q, SearchOptions{Algorithm: AlgoDIL, Disjunctive: disj, TopM: all})
			if err != nil {
				t.Fatalf("%s %q exhaustive: %v", tag, q, err)
			}
			algos := []SearchOptions{{Disjunctive: true}}
			if !disj {
				algos = []SearchOptions{
					{Algorithm: AlgoDIL},
					{Algorithm: AlgoRDIL},
					{Algorithm: AlgoHDIL},
					{Algorithm: AlgoHDIL, ColdCache: true},
				}
			}
			for _, opts := range algos {
				for _, m := range []int{1, 3, 10} {
					opts.TopM = m
					got, st, err := e.SearchDetailed(q, opts)
					if err != nil {
						t.Fatalf("%s %s %q m=%d: %v", tag, searchLabel(opts), q, m, err)
					}
					want := full
					if len(want) > m {
						want = want[:m]
					}
					if len(got) == 0 && len(want) == 0 {
						continue
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s %s %q m=%d (cold=%v):\n got %+v\nwant %+v",
							tag, searchLabel(opts), q, m, opts.ColdCache, got, want)
					}
					skipped += st.IO.BlocksSkipped
				}
			}
		}
	}
	return skipped
}
