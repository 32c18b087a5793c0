package query

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xrank/internal/datagen/xmark"
	"xrank/internal/index"
	"xrank/internal/storage"
)

// Regenerate with: go test ./internal/query -run TestDILGoldenAtParent -update-dil-golden
var updateDILGolden = flag.Bool("update-dil-golden", false, "rewrite testdata/dil_golden.txt with current output")

const dilGoldenPath = "testdata/dil_golden.txt"

// goldenVariant is one Options setting and the processors that accept it.
type goldenVariant struct {
	name   string
	set    func(o *Options, n int)
	ranked bool // RDIL and HDIL accept it (AggMax, stored ElemRanks)
}

var goldenVariants = []goldenVariant{
	{"default", func(*Options, int) {}, true},
	{"noprox", func(o *Options, _ int) { o.UseProximity = false }, true},
	{"weights", func(o *Options, n int) { o.Weights = []float64{1, 0.5, 2, 1.5}[:n] }, true},
	{"aggsum", func(o *Options, _ int) { o.Agg = AggSum }, false},
	{"aggsum-noprox", func(o *Options, _ int) { o.Agg = AggSum; o.UseProximity = false }, false},
}

// formatGolden renders results as Dewey IDs with the exact bits of their
// scores, so the comparison is bit-for-bit rather than within epsilon.
func formatGolden(rs []Result) string {
	if len(rs) == 0 {
		return "-"
	}
	parts := make([]string, len(rs))
	for i, r := range rs {
		parts[i] = fmt.Sprintf("%s:%016x", r.ID, math.Float64bits(r.Score))
	}
	return strings.Join(parts, " ")
}

// goldenFixture is one corpus indexed at the golden shard counts plus the
// queries run over it.
type goldenFixture struct {
	name    string
	sharded map[int]*index.Sharded
	queries [][]string
}

// TestDILGoldenAtParent pins every Dewey-stack merge consumer — DIL,
// RDIL and HDIL's candidate evaluation, HDIL under both cost models
// (including its switch decision and ranked-entry count, which read the
// per-query page and posting counters), and Disjunctive — to the output
// recorded before the merge kernel was rewritten: Dewey IDs and the exact
// float64 bits of every score, under max and sum aggregation, proximity
// on and off, and keyword weights, at shard counts 1 and 2.
//
// Two corpora: a Figure 11-shaped perfgen corpus (locorr keywords meet
// only at document roots after a long run of non-result records) and an
// XMark corpus on a small vocabulary, where results nest — an element is
// a result alongside a descendant result — so the merge's handling of
// sub-elements that already contain every keyword is exercised.
func TestDILGoldenAtParent(t *testing.T) {
	fixtures := []goldenFixture{perfGoldenFixture(t), xmarkGoldenFixture(t)}
	var out strings.Builder
	for _, fx := range fixtures {
		for _, sc := range []int{1, 2} {
			sh := fx.sharded[sc]
			for _, v := range goldenVariants {
				for _, q := range fx.queries {
					opts := DefaultOptions()
					v.set(&opts, len(q))
					key := fmt.Sprintf("%s s%d %s %s", fx.name, sc, v.name, strings.Join(q, "+"))
					line := func(algo, extra string, rs []Result, err error) {
						if err != nil {
							t.Fatalf("%s %s: %v", key, algo, err)
						}
						fmt.Fprintf(&out, "%s %s%s = %s\n", key, algo, extra, formatGolden(rs))
					}
					rs, err := dilSharded(sh, q, opts)
					line("DIL", "", rs, err)
					rs, err = disjunctiveSharded(sh, q, opts)
					line("Disjunctive", "", rs, err)
					if !v.ranked {
						continue
					}
					rs, err = rdilSharded(sh, q, opts)
					line("RDIL", "", rs, err)
					for _, m := range costModels {
						// A cold pool per run: the serving model prices pool
						// hits, so the decision must not depend on test order.
						coldCache(t, sh)
						o := opts
						o.Exec = storage.NewExecContext(nil)
						rs, tr, err := HDILSharded(sh, q, o, 0, m.cm)
						extra := fmt.Sprintf("[switched=%v reason=%q entries=%d]", tr.SwitchedToDIL, tr.SwitchReason, tr.RankedEntriesRead)
						line("HDIL/"+m.name, extra, rs, err)
					}
				}
			}
		}
	}
	got := out.String()
	if *updateDILGolden {
		if err := os.MkdirAll(filepath.Dir(dilGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dilGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(dilGoldenPath)
	if err != nil {
		t.Fatalf("missing %s (regenerate with -update-dil-golden): %v", dilGoldenPath, err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Errorf("%d golden lines, recorded %d", len(gotLines), len(wantLines))
	}
	bad := 0
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			if bad++; bad <= 5 {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, gotLines[i], wantLines[i])
			}
		}
	}
	if bad > 5 {
		t.Errorf("... %d differing lines in all", bad)
	}
}

// perfGoldenFixture is a small perfgen corpus: five 400-record documents.
func perfGoldenFixture(t *testing.T) goldenFixture {
	fx := goldenFixture{name: "perf", sharded: map[int]*index.Sharded{}}
	for _, sc := range []int{1, 2} {
		fx.sharded[sc] = perfSharded(t, 2000, sc, 0)
	}
	fx.queries = [][]string{
		{"locorr0k0"},
		{"locorr0k0", "locorr0k1"},
		{"locorr1k2", "locorr1k0", "locorr1k3"},
		{"locorr2k0", "locorr2k1", "locorr2k2", "locorr2k3"},
		{"locorr0k3", "hicorr1k1"},
		{"hicorr0k0", "hicorr0k1"},
		{"hicorr2k0", "hicorr2k1", "hicorr2k2"},
	}
	return fx
}

// xmarkGoldenFixture is two XMark documents over a 60-word vocabulary,
// with queries drawn from the terms frequent enough to co-occur. It
// fails if no query yields nested results.
func xmarkGoldenFixture(t *testing.T) goldenFixture {
	var docs []string
	for seed := int64(11); seed < 13; seed++ {
		docs = append(docs, xmark.Generate(xmark.Params{
			Seed: seed, Items: 30, People: 15, OpenAuctions: 20, ClosedAuctions: 12, Categories: 6, VocabSize: 60,
		}))
	}
	sf := newShardedFixture(t, docs, index.BuildOptions{}, []int{1, 2})
	fx := goldenFixture{name: "xmark", sharded: sf.sharded}
	vocab := corpusVocab(sf.c)
	r := rand.New(rand.NewSource(5))
	for len(fx.queries) < 8 {
		q := make([]string, 2+len(fx.queries)%3)
		for i := range q {
			q[i] = vocab[r.Intn(len(vocab))]
		}
		fx.queries = append(fx.queries, q)
	}
	nested := 0
	for _, q := range fx.queries {
		opts := DefaultOptions()
		opts.TopM = 1 << 20
		all, err := dilSharded(sf.sharded[1], q, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range all {
			for _, d := range all {
				if len(a.ID) < len(d.ID) && a.ID.IsPrefixOf(d.ID) {
					nested++
				}
			}
		}
	}
	if nested == 0 {
		t.Fatalf("xmark golden fixture: no query has a result nested inside another")
	}
	return fx
}
