package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"strings"

	"xrank"
	"xrank/internal/datagen/perfgen"
	"xrank/internal/datagen/xmark"
)

// The engine configuration is a JSON literal decoded into xrank.Config, so
// a later change that deletes one of these knobs compiles without an edit
// here (encoding/json ignores a key the struct no longer has).
// TestConfigKeysExist pins that every key is a Config field at this commit.
const (
	// engineJSON is the one layout every workload runs on: the sharded
	// layout with fan-out on the measured path and the block postings
	// format, without the paper-baseline naive indexes.
	engineJSON = `{"Shards": 2, "BlockPostings": true, "SkipNaive": true}`
	// serveJSON is what `xrank serve` adds by default: a 32 MiB result
	// cache and query coalescing.
	serveJSON = `{"CacheBytes": 33554432, "CoalesceQueries": true}`
)

// engineConfig decodes the literals over a zero Config rooted at dir.
func engineConfig(dir string, literals ...string) (xrank.Config, error) {
	cfg := xrank.Config{IndexDir: dir}
	for _, lit := range literals {
		if err := json.Unmarshal([]byte(lit), &cfg); err != nil {
			return cfg, fmt.Errorf("engine config %s: %w", lit, err)
		}
	}
	return cfg, nil
}

const (
	// clients is the number of closed-loop callers: one per core of the
	// 2-core sandbox the bounds were measured on, the same on every commit.
	clients = 2
	// defaultSeconds is the measured window: BENCHMARK.json's run_seconds.
	defaultSeconds = 20
	// topM is the result count every request asks for.
	topM = 10
	// slices is how many equal parts the measured window is cut into; each
	// timing metric is the median of its per-slice values, so one stall
	// moves one slice and not the reported number.
	slices = 5
)

// sizes scale the corpora and the fixed-count phases. fullSizes is what the
// benchmark runs; the smoke test substitutes tiny ones.
type sizes struct {
	perfBlocks  int     // perfgen records behind search.hicorr / search.locorr
	zipfDocs    int     // XMark documents behind search.zipf
	zipfScale   float64 // their scale (1 = 300 items)
	mixedDocs   int     // XMark documents in ingest.mixed's base index
	mixedScale  float64
	vocab       int // XMark vocabulary size
	zipfPool    int // distinct adjacent-pair queries search.zipf draws from
	mixedTerms  int // most frequent terms ingest.mixed's reader pairs up
	warmup      int // requests per client before timing starts
	checkSample int // queries compared against the exhaustive scan
	replay      int // requests replayed by direct calls in the traced run
	setups      int // set-ups per measured run; setup_s is their median
}

var fullSizes = sizes{
	perfBlocks: 50000,
	zipfDocs:   8, zipfScale: 2,
	mixedDocs: 8, mixedScale: 1,
	vocab:       2000,
	zipfPool:    256,
	mixedTerms:  300,
	warmup:      100,
	checkSample: 50,
	replay:      500,
	setups:      3,
}

// workload is one traffic mix. The one-line reasons live in BENCHMARK.json
// (TestBenchmarkJSONInSync keeps the names equal).
type workload struct {
	name string
	// serve selects the serve-default overlay (result cache + coalescing);
	// without it the engine runs its zero-value Config, cache off.
	serve bool
	// writer runs the AddDocs/DeleteDoc/CompactOnce loop beside the reads.
	writer bool
	// corpus generates the documents Build indexes.
	corpus func(sz sizes, seed int64) []doc
	// query returns the i-th request of one client's stream.
	query func(sz sizes, r *rand.Rand, i int) string
	// pool, when the requests repeat a closed set of queries, lists it:
	// warm-up asks each once, so the window starts with a full cache.
	pool func(sz sizes) []string
}

type doc struct{ name, xml string }

var workloads = []workload{
	{name: "search.hicorr", corpus: perfCorpus, query: markerQuery("hicorr")},
	{name: "search.locorr", corpus: perfCorpus, query: markerQuery("locorr")},
	{name: "search.zipf", serve: true, corpus: zipfCorpus, query: zipfQuery, pool: zipfPool},
	{name: "ingest.mixed", serve: true, writer: true, corpus: mixedCorpus, query: mixedQuery},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// metric is one row of BENCHMARK.json's end_to_end or per_layer list.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a caller of the service sees; -compare reads the bounds
// from here and TestBenchmarkJSONInSync keeps BENCHMARK.json equal to it.
var endToEnd = []metric{
	{"qps", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"p99_ms", "ms", "lower", 0.25},
	{"ingest_mb_per_s", "MB/s", "higher", 0.25},
	{"index_bytes_per_xml_byte", "B/B", "lower", 0.01},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer lists the traced run's metrics; see README.md for which
// end-to-end metric each one should move.
var perLayer = []metric{
	{Name: "client.transport_us", Unit: "us", Better: "lower"},
	{Name: "httpapi.self_us", Unit: "us", Better: "lower"},
	{Name: "httpapi.queue_us", Unit: "us", Better: "lower"},
	{Name: "httpapi.resp_bytes", Unit: "B", Better: "lower"},
	{Name: "cache.lookups", Unit: "count", Better: "higher"},
	{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cache.stale_share", Unit: "ratio", Better: "lower"},
	{Name: "cache.evictions", Unit: "count", Better: "lower"},
	{Name: "cache.key_ns", Unit: "ns", Better: "lower"},
	{Name: "xrank.search_us", Unit: "us", Better: "lower"},
	{Name: "xrank.self_us", Unit: "us", Better: "lower"},
	{Name: "xrank.materialize_us", Unit: "us", Better: "lower"},
	{Name: "xrank.adddocs_ms", Unit: "ms", Better: "lower"},
	{Name: "xrank.compact_ms", Unit: "ms", Better: "lower"},
	{Name: "xrank.compact_share", Unit: "ratio", Better: "lower"},
	{Name: "xrank.segments_mean", Unit: "count", Better: "lower"},
	{Name: "xrank.ingest_docs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "text.tokenize_ns", Unit: "ns", Better: "lower"},
	{Name: "query.exec_us", Unit: "us", Better: "lower"},
	{Name: "query.switch_share", Unit: "ratio", Better: "lower"},
	{Name: "query.merge_topk_ns", Unit: "ns", Better: "lower"},
	{Name: "query.shard_skew", Unit: "ratio", Better: "lower"},
	{Name: "index.scan_ns_per_posting", Unit: "ns", Better: "lower"},
	{Name: "index.blocks_decoded_per_q", Unit: "count", Better: "lower"},
	{Name: "index.blocks_skipped_per_q", Unit: "count", Better: "higher"},
	{Name: "index.build_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.page_reads_per_q", Unit: "count", Better: "lower"},
	{Name: "storage.pool_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "storage.write_bytes_per_xml_byte", Unit: "B/B", Better: "lower"},
	{Name: "xmldoc.parse_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "elemrank.compute_ms", Unit: "ms", Better: "lower"},
	{Name: "elemrank.iterations", Unit: "count", Better: "lower"},
	{Name: "failed_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.unattributed_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
}

// subSeed derives one independent seed per (run seed, purpose), so -seed is
// the only source of randomness and no two streams share a sequence.
func subSeed(seed int64, purpose string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, purpose)
	return int64(h.Sum64() >> 1)
}

// stream is one client's request sequence: a function of (workload, seed,
// client) alone, never of timing or of what the server answered.
type stream struct {
	w  *workload
	sz sizes
	r  *rand.Rand
	i  int
}

func newStream(w *workload, sz sizes, seed int64, client string) *stream {
	return &stream{w: w, sz: sz, r: rand.New(rand.NewSource(subSeed(seed, w.name+"/"+client)))}
}

func (s *stream) next() string {
	q := s.w.query(s.sz, s.r, s.i)
	s.i++
	return q
}

// dumpStreams writes the first dumpRequests requests of every client's
// stream, one "client<TAB>query" line each: the byte-identical record of
// what a (workload, seed) pair sends.
func dumpStreams(out io.Writer, w *workload, sz sizes, seed int64) error {
	const dumpRequests = 1000
	for c := 0; c < clients; c++ {
		s := newStream(w, sz, seed, fmt.Sprintf("client%d", c))
		for i := 0; i < dumpRequests; i++ {
			if _, err := fmt.Fprintf(out, "%d\t%s\n", c, s.next()); err != nil {
				return err
			}
		}
	}
	return nil
}

// perfCorpus is the Figure 10/11 corpus: every record plants one complete
// high-correlation group in one element and one member of each
// low-correlation group, so the same Build serves both regimes.
func perfCorpus(sz sizes, seed int64) []doc {
	gen := perfgen.Generate(perfgen.Params{Seed: subSeed(seed, "perfgen"), Blocks: sz.perfBlocks})
	docs := make([]doc, len(gen))
	for i, d := range gen {
		docs[i] = doc{d.Name, d.XML}
	}
	return docs
}

// markerGroups and markerWidth are perfgen's defaults: 3 groups of 4
// keywords of each kind.
const (
	markerGroups = 3
	markerWidth  = 4
)

// markerQuery cycles the planted groups × k∈{2,3,4} in a fixed order, so
// every window holds the same mix of query shapes, and draws which k
// members of the group are asked for, and in what order, from the stream.
func markerQuery(kind string) func(sizes, *rand.Rand, int) string {
	return func(_ sizes, r *rand.Rand, i int) string {
		g := i % markerGroups
		k := 2 + (i/markerGroups)%3
		words := make([]string, k)
		for j, m := range r.Perm(markerWidth)[:k] {
			words[j] = fmt.Sprintf("%s%dk%d", kind, g, m)
		}
		return strings.Join(words, " ")
	}
}

func xmarkDoc(seed int64, scale float64, vocab int) string {
	atLeast1 := func(n float64) int {
		if n < 1 {
			return 1
		}
		return int(n)
	}
	return xmark.Generate(xmark.Params{
		Seed:           seed,
		Items:          atLeast1(300 * scale),
		People:         atLeast1(180 * scale),
		OpenAuctions:   atLeast1(200 * scale),
		ClosedAuctions: atLeast1(120 * scale),
		Categories:     atLeast1(20 * scale),
		VocabSize:      vocab,
	})
}

func xmarkCorpus(seed int64, n int, scale float64, vocab int) []doc {
	docs := make([]doc, n)
	for d := range docs {
		docs[d] = doc{fmt.Sprintf("xmark-%03d.xml", d), xmarkDoc(subSeed(seed, fmt.Sprintf("xmark/%d", d)), scale, vocab)}
	}
	return docs
}

func zipfCorpus(sz sizes, seed int64) []doc {
	return xmarkCorpus(seed, sz.zipfDocs, sz.zipfScale, sz.vocab)
}

func mixedCorpus(sz sizes, seed int64) []doc {
	return xmarkCorpus(seed, sz.mixedDocs, sz.mixedScale, sz.vocab)
}

// zipfPool is the closed set search.zipf repeats: adjacent-pair queries
// over the most frequent terms.
func zipfPool(sz sizes) []string {
	pool := make([]string, sz.zipfPool)
	for r := range pool {
		pool[r] = adjacentPair(uint64(r))
	}
	return pool
}

func adjacentPair(rank uint64) string { return fmt.Sprintf("w%d w%d", rank, rank+1) }

// zipfQuery draws Zipf(1.1) over the pool's ranks.
func zipfQuery(sz sizes, r *rand.Rand, _ int) string {
	// rand.NewZipf only computes constants; building it per request keeps
	// the stream a pure function of r without more state.
	return adjacentPair(rand.NewZipf(r, 1.1, 1, uint64(sz.zipfPool-1)).Uint64())
}

// mixedQuery pairs two distinct terms drawn uniformly from the most
// frequent ones: with every batch voiding the cache, most reads execute.
func mixedQuery(sz sizes, r *rand.Rand, _ int) string {
	a := r.Intn(sz.mixedTerms)
	b := r.Intn(sz.mixedTerms - 1)
	if b >= a {
		b++
	}
	return fmt.Sprintf("w%d w%d", a, b)
}

// warmupQueries is one client's untimed requests: its share of the
// workload's pool, if it has one, then sz.warmup requests of its own mix.
func warmupQueries(w *workload, sz sizes, s *stream, client int) []string {
	var qs []string
	if w.pool != nil {
		for i, q := range w.pool(sz) {
			if i%clients == client {
				qs = append(qs, q)
			}
		}
	}
	for i := 0; i < sz.warmup; i++ {
		qs = append(qs, s.next())
	}
	return qs
}

// batchDocs and batchScale size one ingest.mixed write: four small XMark
// documents (~15 items each).
const (
	batchDocs  = 4
	batchScale = 0.05
	// deleteEvery is how many batches pass between DeleteDoc calls, and
	// maxSegments the live-segment count above which the writer compacts —
	// serve's -max-segments default, applied without its timer so the
	// number of compactions repeats.
	deleteEvery = 5
	maxSegments = 4
)

// batch generates the b-th write of ingest.mixed.
func batch(sz sizes, seed int64, b int) []doc {
	docs := make([]doc, batchDocs)
	for j := range docs {
		docs[j] = doc{
			fmt.Sprintf("add-%05d-%d.xml", b, j),
			xmarkDoc(subSeed(seed, fmt.Sprintf("batch/%d/%d", b, j)), batchScale, sz.vocab),
		}
	}
	return docs
}
