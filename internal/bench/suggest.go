package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"xrank"
	"xrank/internal/ingest"
	"xrank/internal/loadgen"
	"xrank/internal/suggest"
)

// The autosuggest experiment (E15, an extension beyond the paper): the
// suggest subsystem answers prefix completions by best-first search
// over per-segment radix tries with subtree-max summaries, so latency
// should grow far slower than the dictionary — the pruning bound, not
// the term count, is what a keystroke pays for. This experiment sweeps
// the dictionary size with synthetic Zipf-weighted terms, measuring
// completion p50/p99, nodes visited, and trie memory (ApproxBytes);
// then it ingests the committed Wikipedia-abstract fixture through the
// streaming parser into a real engine and prices the same completion
// workload over an organic dictionary. Results go to BENCH_suggest.json
// for CI trend tracking (non-gating: wall times on shared runners are
// noise; the artifact history shows latency and memory drift).

// SuggestSizeRun is the measurement at one dictionary size.
type SuggestSizeRun struct {
	Terms        int     `json:"terms"`
	TrieBytes    int64   `json:"trie_bytes"`
	BytesPerTerm float64 `json:"bytes_per_term"`
	Queries      int     `json:"queries"`
	P50Micros    int64   `json:"p50_micros"`
	P99Micros    int64   `json:"p99_micros"`
	AvgNodes     float64 `json:"avg_nodes_visited"`
}

// SuggestBenchReport is the JSON artifact (BENCH_suggest.json) of E15.
type SuggestBenchReport struct {
	Seed int64            `json:"seed"`
	K    int              `json:"k"`
	Runs []SuggestSizeRun `json:"runs"`

	// The fixture section: the committed abstracts dump streamed into an
	// engine, then completed against.
	FixturePath         string  `json:"fixture_path,omitempty"`
	FixtureDocs         int     `json:"fixture_docs,omitempty"`
	FixtureIngestMillis int64   `json:"fixture_ingest_millis,omitempty"`
	FixtureDocsPerSec   float64 `json:"fixture_docs_per_sec,omitempty"`
	FixtureTerms        int     `json:"fixture_terms,omitempty"`
	FixtureQueries      int     `json:"fixture_queries,omitempty"`
	FixtureP50Micros    int64   `json:"fixture_p50_micros,omitempty"`
	FixtureP99Micros    int64   `json:"fixture_p99_micros,omitempty"`
}

// WriteJSON writes the report to path, indented.
func (r *SuggestBenchReport) WriteJSON(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// suggestSyllables compose synthetic dictionary terms: base-16 digits
// of the term index map to syllables, so nearby indexes share prefixes
// the way organic vocabularies do (the trie actually compresses, and
// prefix queries have real fan-out to prune).
var suggestSyllables = [16]string{
	"ba", "re", "ko", "li", "ma", "nu", "so", "ti",
	"va", "de", "go", "pi", "ra", "te", "mo", "shi",
}

func syntheticTerm(i int) string {
	var b []byte
	for {
		b = append(b, suggestSyllables[i&15]...)
		i >>= 4
		if i == 0 {
			return string(b)
		}
	}
}

// buildSyntheticTrie builds a trie over n distinct terms with
// Zipf-shaped weights, returning the trie and the term list.
func buildSyntheticTrie(n int) (*suggest.Trie, []string) {
	terms := make([]string, n)
	b := suggest.NewBuilder()
	for i := 0; i < n; i++ {
		terms[i] = syntheticTerm(i)
		b.Add(terms[i], 1/float64(i+1))
	}
	return b.Build(), terms
}

// suggestPrefixWorkload samples nq terms and emits every proper prefix
// of each — the request stream one user typing those terms produces.
func suggestPrefixWorkload(rng *rand.Rand, terms []string, nq int) []string {
	var qs []string
	for i := 0; i < nq; i++ {
		t := terms[rng.Intn(len(terms))]
		for cut := 1; cut <= len(t); cut++ {
			qs = append(qs, t[:cut])
		}
	}
	return qs
}

// measureTrieWorkload times one TopK call per prefix against the tries.
func measureTrieWorkload(tries []*suggest.Trie, qs []string, k int) (p50, p99 int64, avgNodes float64) {
	lats := make([]int64, 0, len(qs))
	var nodes int64
	for _, q := range qs {
		t0 := time.Now()
		_, st := suggest.TopK(tries, q, k)
		lats = append(lats, time.Since(t0).Microseconds())
		nodes += int64(st.NodesVisited)
	}
	return loadgen.Percentile(lats, 0.5), loadgen.Percentile(lats, 0.99),
		float64(nodes) / float64(len(qs))
}

// E15Suggest sweeps the synthetic dictionary sizes, then (when fixture
// is non-empty) streams the committed abstracts fixture into an engine
// under baseDir and completes against its organic dictionary.
func E15Suggest(baseDir string, sizes []int, k int, seed int64, fixture string) (*Table, *SuggestBenchReport, error) {
	const queriesPerSize = 160 // terms sampled; every prefix of each is one query
	rep := &SuggestBenchReport{Seed: seed, K: k}
	t := &Table{
		Title:  fmt.Sprintf("E15 (extension): autosuggest latency vs dictionary size, top-%d", k),
		Header: []string{"terms", "trie bytes", "B/term", "queries", "p50", "p99", "avg nodes"},
		Comment: "Each query is one keystroke: a prefix completion over the max-score-pruned radix\n" +
			"trie. The claim to check: p50/p99 stay near-flat as the dictionary grows (the\n" +
			"best-first search visits O(k·depth) nodes, not O(terms)), while memory grows\n" +
			"linearly at a small constant per term. The fixture rows replay the same workload\n" +
			"over the committed Wikipedia-abstract corpus streamed in through xrank-ingest's\n" +
			"parser, pricing an organic dictionary end-to-end (ingest throughput included).",
	}
	for _, n := range sizes {
		tr, terms := buildSyntheticTrie(n)
		rng := rand.New(rand.NewSource(seed))
		qs := suggestPrefixWorkload(rng, terms, queriesPerSize)
		p50, p99, avgNodes := measureTrieWorkload([]*suggest.Trie{tr}, qs, k)
		run := SuggestSizeRun{
			Terms:        tr.Terms(),
			TrieBytes:    tr.ApproxBytes(),
			BytesPerTerm: float64(tr.ApproxBytes()) / float64(tr.Terms()),
			Queries:      len(qs),
			P50Micros:    p50,
			P99Micros:    p99,
			AvgNodes:     avgNodes,
		}
		rep.Runs = append(rep.Runs, run)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", run.Terms),
			fmt.Sprintf("%d", run.TrieBytes),
			fmt.Sprintf("%.1f", run.BytesPerTerm),
			fmt.Sprintf("%d", run.Queries),
			fmt.Sprintf("%dµs", run.P50Micros),
			fmt.Sprintf("%dµs", run.P99Micros),
			fmt.Sprintf("%.1f", run.AvgNodes),
		})
	}

	if fixture == "" {
		return t, rep, nil
	}
	f, err := os.Open(fixture)
	if err != nil {
		return nil, nil, fmt.Errorf("bench: suggest fixture: %w", err)
	}
	defer f.Close()
	e := xrank.NewEngine(&xrank.Config{IndexDir: baseDir + "/fixture"})
	defer e.Close()
	t0 := time.Now()
	p := ingest.NewParser(f)
	docs := 0
	for {
		a, err := p.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, fmt.Errorf("bench: suggest fixture parse: %w", err)
		}
		if err := e.AddXML(ingest.DocName(int64(docs)), bytes.NewReader(a.DocXML())); err != nil {
			return nil, nil, err
		}
		docs++
	}
	if _, err := e.Build(); err != nil {
		return nil, nil, err
	}
	ingestWall := time.Since(t0)
	rep.FixturePath = fixture
	rep.FixtureDocs = docs
	rep.FixtureIngestMillis = ingestWall.Milliseconds()
	if s := ingestWall.Seconds(); s > 0 {
		rep.FixtureDocsPerSec = float64(docs) / s
	}
	rep.FixtureTerms = e.SuggestTerms()

	// The organic workload: every prefix of the fixture dictionary's
	// own top terms, through the engine (snapshot lock, multi-trie merge
	// and metrics included).
	top, _, err := e.Suggest("", 32)
	if err != nil {
		return nil, nil, err
	}
	var lats []int64
	for _, s := range top {
		for cut := 1; cut <= len(s.Term); cut++ {
			q0 := time.Now()
			if _, _, err := e.Suggest(s.Term[:cut], k); err != nil {
				return nil, nil, err
			}
			lats = append(lats, time.Since(q0).Microseconds())
		}
	}
	rep.FixtureQueries = len(lats)
	rep.FixtureP50Micros = loadgen.Percentile(lats, 0.5)
	rep.FixtureP99Micros = loadgen.Percentile(lats, 0.99)
	t.Rows = append(t.Rows, []string{
		fmt.Sprintf("fixture:%d", rep.FixtureTerms), "-", "-",
		fmt.Sprintf("%d", rep.FixtureQueries),
		fmt.Sprintf("%dµs", rep.FixtureP50Micros),
		fmt.Sprintf("%dµs", rep.FixtureP99Micros),
		fmt.Sprintf("%d docs @ %.0f docs/s", rep.FixtureDocs, rep.FixtureDocsPerSec),
	})
	return t, rep, nil
}
