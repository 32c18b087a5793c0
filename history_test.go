package xrank

import (
	"bytes"
	"fmt"
	"io"
	iofs "io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"xrank/internal/datagen/dblp"
	"xrank/internal/datagen/xmark"
	"xrank/internal/elemrank"
	"xrank/internal/query"
	"xrank/internal/storage"
	"xrank/internal/suggest"
)

// The history harness. An engine is driven through AddDocs batches,
// DeleteDoc, CompactOnce, reopens, Update and crashes while the harness
// mirrors every document version it was given, in document-ID order, and
// which are dead. After every step every oracle of histOracles checks the
// engine against one reference built from scratch over that history,
// against the brute-force specification, against itself, or against a
// reopen. A row of histRows is an engine configuration plus a script or a
// seeded generator's step budget; a later change adds a row or an oracle
// here, not a harness. DESIGN.md, "History harness", lists the oracles
// and the mutants that prove each.

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
	return b.String()
}

var diffQueries = []string{
	"alpha beta",
	"gamma delta",
	"alpha epsilon zeta",
	"beta",
}

// histQueries are the queries every oracle asks: diffQueries, one over
// the datagen documents' vocabulary, and a conjunction with a keyword no
// document holds, whose answer is empty.
var histQueries = append(diffQueries[:len(diffQueries):len(diffQueries)], "w0 w1", "alpha zqx9absent")

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

// histM is the top-m every answer the oracles compare is cut at.
const histM = 25

// noSyncFS is the real file system with fsync turned into a no-op. The
// harness writes hundreds of index directories; fsync orders writes
// against power loss, which no oracle observes (a simulated crash keeps
// what was written), and it is most of their wall time.
type noSyncFS struct{ storage.FS }

type noSyncFile struct{ storage.File }

func (noSyncFile) Sync() error { return nil }

func (f noSyncFS) Create(path string) (storage.File, error) {
	fl, err := f.FS.Create(path)
	return noSyncFile{fl}, err
}

func (f noSyncFS) Open(path string) (storage.File, error) {
	fl, err := f.FS.Open(path)
	return noSyncFile{fl}, err
}

func (noSyncFS) SyncDir(string) error { return nil }

var histFS storage.FS = noSyncFS{storage.OS}

// segUnit is the byte size the fold script pads its documents to a
// multiple of: with sizes fixed, which segments each batch folds is a
// function of the script alone.
const segUnit = 512

type histVersion struct {
	name    string
	content string
}

// histRow is one row of the table: an engine configuration (cache sets
// CacheBytes and CoalesceQueries, and the cache oracle runs) and either
// a script or a seeded generator's budget: documents in the base build,
// steps after it, and how many of them may crash. reopenEach replaces
// the engine with its reopen after every step; twin feeds a second
// engine the same history, and the twin oracle runs.
type histRow struct {
	name                    string
	shards                  int
	cache, reopenEach, twin bool
	seed                    int64
	script                  func(h *histRun)
	base, steps, crashes    int
}

var histRows = []histRow{
	// A fixed operation script (content randomized by the seed):
	// stacked delta segments, tombstones before and after segment
	// boundaries, name shadowing, compaction over tombstones, and
	// reopens from every layout.
	{name: "mixed/shards=1", shards: 1, seed: 20030609*2 + 1, script: mixedScript},
	{name: "mixed/shards=8", shards: 8, seed: 20030609*2 + 8, script: mixedScript},
	// Single-document batches of fixed sizes over a 9-unit base: folds
	// of 1, 2 and 3 delta segments, then a base fold.
	{name: "folds/shards=1", shards: 1, seed: 20030609*3 + 1, script: foldsScript},
	{name: "folds/shards=8", shards: 8, seed: 20030609*3 + 8, script: foldsScript},
	// XLinked documents and HTML pages: batches that merge and split
	// connected components, a failed batch whose document IDs the next
	// one reuses, and a reopen's warm rank cache.
	{name: "links/shards=1", shards: 1, seed: 20030609*5 + 1, script: linksScript},
	{name: "links/shards=8", shards: 8, seed: 20030609*5 + 8, script: linksScript},
	// ElemRank is derived, not stored: the links script with a reopen
	// after every step, whose solve-counter assertions hold across each.
	{name: "links-reopened/shards=1", shards: 1, seed: 20030609 * 7, script: linksScript, reopenEach: true},
	// The crash corpus, whose terms the suggest oracle's "x", "key",
	// "ch", ... prefixes complete, beside three generated documents the
	// query oracles' keywords find: a second segment, a delete, a
	// shadowing replacement, a reopen, a compaction and a reopen.
	{name: "suggest/shards=1", shards: 1, seed: 20030609 * 11, script: suggestScript},
	{name: "suggest/shards=8", shards: 8, seed: 20030609 * 13, script: suggestScript},
	// Generated histories. At shards 1 the base is large enough that
	// the vocabulary's lists span several blocks, so pruning has blocks
	// to skip; shards 2 is the merge of two partitions.
	{name: "seeded/shards=1", shards: 1, twin: true, seed: 1, base: 120, steps: 14, crashes: 2},
	{name: "seeded/shards=2", shards: 2, twin: true, seed: 2, base: 24, steps: 14, crashes: 2},
	{name: "seeded/shards=8", shards: 8, twin: true, seed: 8, base: 24, steps: 14, crashes: 2},
	{name: "cached/shards=1", shards: 1, cache: true, seed: 11, base: 24, steps: 14, crashes: 1},
	{name: "cached/shards=8", shards: 8, cache: true, seed: 18, base: 24, steps: 14, crashes: 1},
}

func TestHistory(t *testing.T) {
	for _, row := range histRows {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel() // rows share nothing
			h := &histRun{t: t, row: row, base: t.TempDir(), rng: rand.New(rand.NewSource(row.seed)),
				liveID: map[string]int{}, frags: map[string]string{}, ops: map[string]int{}}
			h.dir = h.freshDir()
			t.Cleanup(func() {
				for _, e := range []*Engine{h.cur, h.twin} {
					if e != nil {
						e.Close()
					}
				}
				h.closeRef()
			})
			if row.script != nil {
				row.script(h)
			} else {
				h.generate()
			}
			t.Logf("steps %v; blocks skipped by the pruned runs: %d", h.ops, h.skipped)
			if row.script == nil && !row.cache && row.shards == 1 && h.skipped == 0 {
				t.Fatal("no query skipped a block; the pruning oracle compared nothing that pruning decides")
			}
			for _, op := range []string{"add", "delete", "compact", "reopen", "update", "fail"} {
				if row.script == nil && h.ops[op]+h.ops["crash "+op] == 0 {
					t.Fatalf("the seed drew no %s step in %d: pick another", op, row.steps)
				}
			}
		})
	}
}

// histRun is one row's run: the engine under test and the full version
// history its reference replays.
type histRun struct {
	t    *testing.T
	row  histRow
	base string // the row's temporary directory
	dir  string // the engine's index directory (Update moves it)
	rng  *rand.Rand
	cur  *Engine
	// twin, on twin rows, is fed the same history as cur in twinDir,
	// whose path has another length than dir's.
	twin    *Engine
	twinDir string
	twins   int // twin directories named so far

	history []histVersion  // document ID == slice index, as the engine assigns them
	liveID  map[string]int // name -> newest live version's ID
	dead    []int          // tombstoned version IDs, any order
	frags   map[string]string

	nextName, nextUniq, dirs int
	step                     int
	ops                      map[string]int // steps taken, by operation
	folds                    []int          // per folding AddDocs, the segments it folded
	baseFolds                int            // the AddDocs that folded the first segment
	datagen                  []histVersion
	victim                   string       // the marker of the document the step deleted
	sugPrev                  []Suggestion // the full-dictionary completion after the last step
	skipped                  int64

	// ref is the reference over the history as of the edits-th edit,
	// refWant its answers.
	ref          *Engine
	edits, refAt int
	refWant      [][]SearchResult
}

func (h *histRun) freshDir() string {
	h.dirs++
	return filepath.Join(h.base, fmt.Sprintf("idx%d", h.dirs))
}

// twinFreshDir names the twin's next directory, one level deeper than
// freshDir's.
func (h *histRun) twinFreshDir() string {
	h.twins++
	return filepath.Join(h.base, "twin", fmt.Sprintf("idx%d", h.twins))
}

// histCacheBytes is a cache row's result-cache size.
const histCacheBytes = 1 << 20

func (h *histRun) config(dir string) *Config {
	c := &Config{IndexDir: dir, Shards: h.row.shards, FS: histFS}
	if h.row.cache {
		c.CacheBytes, c.CoalesceQueries = histCacheBytes, true
	}
	return c
}

// open opens dir through fs. On a cache row it then sets the serving
// settings engine.json does not store, as the serve command does.
func (h *histRun) open(dir string, fs storage.FS) (*Engine, error) {
	e, err := OpenEngineFS(dir, fs)
	if err == nil && h.row.cache {
		e.ConfigureResultCache(histCacheBytes)
		e.SetCoalesceQueries(true)
	}
	return e, err
}

// build builds the base engine over the given documents (names ending in
// .html parse as HTML, as in AddDocs) and checks it.
func (h *histRun) build(base []histVersion) {
	t := h.t
	build := func(dir string) *Engine {
		e := NewEngine(h.config(dir))
		for _, v := range base {
			if err := e.add(v.name, strings.NewReader(v.content), isHTMLName(v.name)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.Build(); err != nil {
			t.Fatal(err)
		}
		return e
	}
	h.cur = build(h.dir)
	if h.row.twin {
		h.twinDir = h.twinFreshDir()
		h.twin = build(h.twinDir)
	}
	for _, v := range base {
		h.history = append(h.history, v)
		h.liveID[v.name] = len(h.history) - 1
	}
	h.check("initial build", "build")
}

// buildUnits builds the base over one generated document per entry of
// units (its padded size in segUnits; 0 leaves it as generated).
func (h *histRun) buildUnits(units ...int) {
	var base []histVersion
	for _, u := range units {
		base = append(base, histVersion{h.freshName(), h.content(u)})
	}
	h.build(base)
}

func (h *histRun) freshName() string {
	name := fmt.Sprintf("doc%02d", h.nextName)
	h.nextName++
	return name
}

// content generates the next document, padded with trailing whitespace
// (outside the root element, so it indexes nothing) to units segUnits.
func (h *histRun) content(units int) string {
	c := diffDoc(h.rng, h.nextUniq)
	h.nextUniq++
	if units == 0 {
		return c
	}
	if len(c) > units*segUnit {
		h.t.Fatalf("generated document of %d bytes exceeds %d units", len(c), units)
	}
	return c + strings.Repeat(" ", units*segUnit-len(c))
}

// linkDoc is generated XML content with one XLink per target appended to
// its root.
func (h *histRun) linkDoc(targets ...string) string {
	var b strings.Builder
	for _, t := range targets {
		fmt.Fprintf(&b, `<see xlink="%s">alpha</see>`, t)
	}
	return strings.Replace(h.content(0), "</doc>", b.String()+"</doc>", 1)
}

// page is an HTML page linking to targets; with none, its single element
// is a dangling root.
func (h *histRun) page(targets ...string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "<html><body>alpha beta page uniq%d", h.nextUniq)
	h.nextUniq++
	for _, t := range targets {
		fmt.Fprintf(&b, ` <a href="%s">gamma</a>`, t)
	}
	b.WriteString("</body></html>")
	return b.String()
}

func (h *histRun) liveNames() []string { return sortedKeys(h.liveID) }

// versionID returns the ID of the newest version of name among the first
// n history entries.
func (h *histRun) versionID(name string, n int) int {
	for id := n - 1; id >= 0; id-- {
		if h.history[id].name == name {
			return id
		}
	}
	h.t.Fatalf("no version of %q", name)
	return -1
}

// markerRE matches the query term only one document version holds.
var markerRE = regexp.MustCompile(`uniq[0-9]+`)

// histOp is one step: run mutates the engine (or reopens it), then every
// oracle checks the result.
type histOp struct {
	name string
	run  func(h *histRun, tag string)
}

// run applies ops in order, checking every oracle after each.
func (h *histRun) run(ops []histOp) {
	for _, op := range ops {
		h.do(op)
	}
}

func (h *histRun) do(op histOp) {
	h.t.Helper()
	h.step++
	h.ops[op.name]++
	tag := fmt.Sprintf("step %d (%s)", h.step, op.name)
	op.run(h, tag)
	h.check(tag, op.name)
}

// addBatch adds count documents of units segUnits each in one AddDocs
// call; shadow makes the first an existing live name (replacement)
// instead of a fresh one.
func (h *histRun) addBatch(tag string, count, units int, shadow bool) {
	h.t.Helper()
	batch := map[string]string{}
	if shadow {
		names := h.liveNames()
		batch[names[h.rng.Intn(len(names))]] = h.content(units)
	}
	for len(batch) < count {
		batch[h.freshName()] = h.content(units)
	}
	h.mutate(tag, addMut(batch))
}

// record mirrors a committed batch into the history in AddDocs's order:
// batch names sorted, a live name's old version tombstoned.
func (h *histRun) record(batch map[string]string) {
	h.edits++
	for _, n := range sortedKeys(batch) {
		if id, ok := h.liveID[n]; ok {
			h.dead = append(h.dead, id)
		}
		h.history = append(h.history, histVersion{n, batch[n]})
		h.liveID[n] = len(h.history) - 1
	}
}

func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// histMut is a mutation the crash step can replay: run performs it on e
// (Update writes its engine into out and returns it), record mirrors a
// committed run into h's history.
type histMut struct {
	name   string
	run    func(h *histRun, e *Engine, out string) (*Engine, error)
	record func(h *histRun)
}

func readers(docs map[string]string) map[string]io.Reader {
	rs := make(map[string]io.Reader, len(docs))
	for n, c := range docs {
		rs[n] = strings.NewReader(c)
	}
	return rs
}

// addMut adds batch in one AddDocs call and checks the fold invariant:
// at most the default MaxSegments live, each document in exactly one
// segment, each batch document in the last one under the ID the history
// gives it (a failed batch's IDs are reused).
func addMut(batch map[string]string) histMut {
	return histMut{
		name: "add",
		run: func(h *histRun, e *Engine, _ string) (*Engine, error) {
			before, first := len(e.segs), e.segs[0].id
			if err := e.AddDocs(readers(batch)); err != nil {
				return nil, err
			}
			segs := e.segs
			if folded := before + 1 - len(segs); folded > 0 {
				h.folds = append(h.folds, folded)
			}
			if segs[0].id != first {
				h.baseFolds++
			}
			if len(segs) > defaultMaxSegments {
				return nil, fmt.Errorf("%d live segments, bound %d", len(segs), defaultMaxSegments)
			}
			owner := map[uint32]int{} // document -> 1 + its segment's position
			for i, s := range segs {
				for _, d := range s.docs {
					if owner[d] != 0 {
						return nil, fmt.Errorf("document %d owned by two segments", d)
					}
					owner[d] = i + 1
				}
			}
			if len(owner) != e.col.NumDocs() {
				return nil, fmt.Errorf("segments own %d of %d documents", len(owner), e.col.NumDocs())
			}
			for i, n := range sortedKeys(batch) {
				if id := e.col.DocByName(n).ID; owner[id] != len(segs) || int(id) != len(h.history)+i {
					return nil, fmt.Errorf("batch document %s has ID %d in segment %d, want ID %d in the last",
						n, id, owner[id]-1, len(h.history)+i)
				}
			}
			return nil, nil
		},
		record: func(h *histRun) { h.record(batch) },
	}
}

// deleteMut tombstones victim. On cache rows its marker query is warmed
// first, and the cache oracle checks that it is not served from the
// cache afterwards.
func deleteMut(victim string) histMut {
	return histMut{
		name: "delete",
		run: func(h *histRun, e *Engine, _ string) (*Engine, error) {
			if h.row.cache {
				h.victim = markerRE.FindString(h.history[h.liveID[victim]].content)
				for i := 0; i < 2; i++ {
					_, st, err := e.SearchDetailed(h.victim, SearchOptions{Algorithm: AlgoDIL, TopM: histM})
					if err != nil || (i == 1 && !st.Cached) {
						return nil, fmt.Errorf("warming %q: %v", h.victim, err)
					}
				}
			}
			return nil, e.DeleteDoc(victim)
		},
		record: func(h *histRun) {
			h.edits++
			h.dead = append(h.dead, h.liveID[victim])
			delete(h.liveID, victim)
		},
	}
}

// compactMut folds every segment into one; over one segment at the
// current rank version it has nothing to do.
var compactMut = histMut{
	name: "compact",
	run: func(_ *histRun, e *Engine, _ string) (*Engine, error) {
		before := e.SegmentCount()
		cs, err := e.CompactOnce(0)
		if err == nil && (cs.Compacted != (before > 1) || e.SegmentCount() != 1) {
			err = fmt.Errorf("compaction of %d segments left %d: %+v", before, e.SegmentCount(), cs)
		}
		return nil, err
	},
	record: func(*histRun) {},
}

// updateMut rebuilds the live documents plus add into out. The history
// is rebased onto the new engine's documents: the live versions in
// manifest order, then the additions sorted by name, which is how Update
// numbers them; nothing in it is dead.
func updateMut(add map[string]string) histMut {
	return histMut{
		name: "update",
		run: func(_ *histRun, e *Engine, out string) (*Engine, error) {
			return e.Update(out, readers(add))
		},
		record: func(h *histRun) {
			history, live := h.history, h.liveID
			h.history, h.dead, h.liveID = nil, nil, map[string]int{}
			for id, v := range history {
				if lid, ok := live[v.name]; ok && lid == id {
					h.history = append(h.history, v)
					h.liveID[v.name] = len(h.history) - 1
				}
			}
			h.record(add)
		},
	}
}

// mutate runs m on the engine under test and records it. Update replaces
// the engine with the one it built.
func (h *histRun) mutate(tag string, m histMut) {
	h.t.Helper()
	out := h.freshDir()
	ne, err := m.run(h, h.cur, out)
	if err != nil {
		h.t.Fatalf("%s: %v", tag, err)
	}
	if ne != nil {
		h.cur.Close()
		h.cur, h.dir = ne, out
	}
	h.twinRun(tag, m)
	m.record(h)
}

// twinRun runs m on the twin, if the row has one, as on the engine.
func (h *histRun) twinRun(tag string, m histMut) {
	h.t.Helper()
	if h.twin == nil {
		return
	}
	out := h.twinFreshDir()
	ne, err := m.run(h, h.twin, out)
	if err != nil {
		h.t.Fatalf("%s: twin: %v", tag, err)
	}
	if ne != nil {
		h.twin.Close()
		h.twin, h.twinDir = ne, out
	}
}

// failBatch adds a batch one of whose documents does not parse: AddDocs
// must fail and leave the engine unchanged, and the next batch reuses
// its document IDs (addMut checks that).
func (h *histRun) failBatch(tag string, batch map[string]string) {
	h.t.Helper()
	docs, segs := h.cur.NumDocs(), h.cur.SegmentCount()
	c0, e0 := solveCounters(h.cur)
	if err := h.cur.AddDocs(readers(batch)); err == nil {
		h.t.Fatalf("%s: AddDocs accepted an unparsable document", tag)
	}
	if h.twin != nil && h.twin.AddDocs(readers(batch)) == nil {
		h.t.Fatalf("%s: the twin's AddDocs accepted an unparsable document", tag)
	}
	c1, e1 := solveCounters(h.cur)
	if h.cur.NumDocs() != docs || h.cur.SegmentCount() != segs || c1 != c0 || e1 != e0 {
		h.t.Fatalf("%s: a failed AddDocs changed the engine", tag)
	}
}

// crash replays m with a simulated crash at a seeded write boundary. A
// fault-free run on a copy of the directory counts m's write boundaries
// and gives the post-state; the crashed run's directory must then reopen
// as exactly the pre- or the post-state, and the run continues from
// whichever it got. The twin, which does not crash, replays the state
// the row reached.
func (h *histRun) crash(tag string, m histMut) {
	t := h.t
	t.Helper()
	pre := reopenSig(t, h.cur, histQueries)
	h.cur.Close()
	h.cur = nil
	open := func(dir string, fs storage.FS) *Engine {
		e, err := h.open(dir, fs)
		if err != nil {
			t.Fatalf("%s: open %s: %v", tag, dir, err)
		}
		return e
	}
	// run runs m on dir through fs and returns its error and the
	// directory it committed to.
	run := func(dir string, fs *storage.FaultFS, k int64) (string, error) {
		e, out := open(dir, fs), h.freshDir()
		fs.CrashAtWriteOp(k)
		ne, err := m.run(h, e, out)
		e.Close()
		if ne != nil {
			ne.Close()
			return out, err
		}
		if _, serr := os.Stat(filepath.Join(out, fileSegments)); serr == nil {
			return out, err // an Update that committed before the crash
		}
		return dir, err
	}

	cp := h.freshDir()
	copyDir(t, h.dir, cp)
	sizing := storage.NewFaultFS(histFS, 1)
	postDir, err := run(cp, sizing, 0)
	if err != nil {
		t.Fatalf("%s: fault-free %s: %v", tag, m.name, err)
	}
	pe := open(postDir, histFS)
	post := reopenSig(t, pe, histQueries)
	pe.Close()

	n := sizing.WriteOps()
	if n == 0 { // nothing to crash: a compaction with nothing to fold
		h.cur = open(h.dir, histFS)
		return
	}
	k := 1 + h.rng.Int63n(n)
	dir, err := run(h.dir, storage.NewFaultFS(histFS, h.row.seed+k), k)
	t.Logf("%s: %s crashed at write %d of %d (%v)", tag, m.name, k, n, err)
	h.cur = open(dir, histFS)
	switch got := reopenSig(t, h.cur, histQueries); {
	case reflect.DeepEqual(got, post):
		h.dir = dir
		h.twinRun(tag, m)
		m.record(h)
	case dir == h.dir && reflect.DeepEqual(got, pre):
		if err == nil {
			t.Fatalf("%s: the %s reported success but the reopen shows the old state", tag, m.name)
		}
	default:
		t.Fatalf("%s: the crashed %s reopens as neither the old state (%s) nor the new one (%s)",
			tag, m.name, sigDiff(got, pre), sigDiff(got, post))
	}
}

// generate builds a base of row.base generated documents plus a linked
// pair, a page and a datagen document, then takes row.steps seeded steps.
func (h *histRun) generate() {
	for _, d := range dblp.Generate(dblp.Params{Seed: h.row.seed, Docs: 4, PapersPerDoc: 4, VocabSize: 30}) {
		h.datagen = append(h.datagen, histVersion{d.Name, d.XML})
	}
	h.datagen = append(h.datagen, histVersion{"xmark0.xml", xmark.Generate(xmark.Params{
		Seed: h.row.seed, Items: 4, People: 3, OpenAuctions: 3, ClosedAuctions: 2, Categories: 2, VocabSize: 30,
	})})
	var base []histVersion
	for i := 0; i < h.row.base; i++ {
		base = append(base, histVersion{h.freshName(), h.content(0)})
	}
	base = append(base,
		histVersion{"l0", h.fragDoc("l0", "l1")},
		histVersion{"l1", h.fragDoc("l1", "l0#f-l0")},
		histVersion{"p0.html", h.page("l0", "doc00")},
		h.nextDatagen())
	h.build(base)

	// Steps are dealt from a deck, reshuffled by the seed whenever it
	// runs out, so every operation occurs in every eight steps.
	deck := []string{"add", "add", "add", "delete", "compact", "reopen", "update", "fail"}
	crashes := h.row.crashes
	for i := 0; i < h.row.steps; i++ {
		if i%len(deck) == 0 {
			h.rng.Shuffle(len(deck), func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
		}
		var m histMut
		switch kind := deck[i%len(deck)]; {
		case kind == "fail":
			h.do(histOp{"fail", func(h *histRun, tag string) {
				h.failBatch(tag, map[string]string{h.freshName(): h.content(0), "zz-broken": "<broken"})
			}})
			continue
		case kind == "reopen":
			h.do(reopenOp)
			continue
		case kind == "delete" && len(h.liveID) > 3:
			names := h.liveNames()
			m = deleteMut(names[h.rng.Intn(len(names))])
		case kind == "compact":
			m = compactMut
		case kind == "update":
			m = updateMut(map[string]string{h.freshName(): h.content(0)})
		default:
			m = addMut(h.drawBatch())
		}
		op := histOp{m.name, func(h *histRun, tag string) { h.mutate(tag, m) }}
		if crashes > 0 && h.rng.Intn(4) == 0 {
			crashes--
			op = histOp{"crash " + m.name, func(h *histRun, tag string) { h.crash(tag, m) }}
		}
		h.do(op)
	}
}

// drawBatch draws an AddDocs batch of one to three documents, each a
// fresh document, a new version of a live one, an HTML page, a linked
// document or a datagen document.
func (h *histRun) drawBatch() map[string]string {
	batch := map[string]string{}
	for n := 1 + h.rng.Intn(3); n > 0; n-- {
		switch k := h.rng.Intn(10); {
		case k < 3:
			batch[h.freshName()] = h.content(0)
		case k < 5:
			h.shadow(batch)
		case k < 6:
			batch[fmt.Sprintf("p%d.html", h.nextUniq)] = h.page(h.targets()...)
		case k < 8:
			name := fmt.Sprintf("l%d", h.nextUniq)
			batch[name] = h.fragDoc(name, h.targets()...)
		default:
			if len(h.datagen) == 0 {
				batch[h.freshName()] = h.content(0)
				continue
			}
			v := h.nextDatagen()
			batch[v.name] = v.content
		}
	}
	return batch
}

// shadow adds to batch a new version of a random live name, of the same
// kind. A linked document's new version drops its fragment id half the
// time, which leaves the links into it dangling.
func (h *histRun) shadow(batch map[string]string) {
	names := h.liveNames()
	name := names[h.rng.Intn(len(names))]
	switch {
	case isHTMLName(name):
		batch[name] = h.page(h.targets()...)
	case h.frags[name] != "" && h.rng.Intn(2) == 0:
		delete(h.frags, name)
		batch[name] = h.linkDoc(h.targets()...)
	case h.frags[name] != "":
		batch[name] = h.fragDoc(name, h.targets()...)
	default:
		batch[name] = h.content(0)
	}
}

// fragDoc is a linked document holding the fragment id f-name.
func (h *histRun) fragDoc(name string, targets ...string) string {
	h.frags[name] = "f-" + name
	return strings.Replace(h.linkDoc(targets...), "</doc>", fmt.Sprintf(`<see id="f-%s">beta</see></doc>`, name), 1)
}

// targets draws up to two link targets: live documents, fragments of
// live documents, or names that do not exist yet.
func (h *histRun) targets() []string {
	names := h.liveNames()
	var out []string
	for n := h.rng.Intn(3); n > 0; n-- {
		name := names[h.rng.Intn(len(names))]
		switch k := h.rng.Intn(4); {
		case k == 0:
			out = append(out, fmt.Sprintf("l%d", h.nextUniq+1+h.rng.Intn(20)))
		case k == 1 && h.frags[name] != "":
			out = append(out, name+"#"+h.frags[name])
		default:
			out = append(out, name)
		}
	}
	return out
}

// nextDatagen takes the next datagen document, with a marker element
// appended to its root.
func (h *histRun) nextDatagen() histVersion {
	v := h.datagen[0]
	h.datagen = h.datagen[1:]
	i := strings.LastIndex(v.content, "</")
	v.content = fmt.Sprintf("%s<m>uniq%d</m>%s", v.content[:i], h.nextUniq, v.content[i:])
	h.nextUniq++
	return v
}

var (
	deleteOp = histOp{"delete", func(h *histRun, tag string) {
		names := h.liveNames()
		h.mutate(tag, deleteMut(names[h.rng.Intn(len(names))]))
	}}
	compactOp = histOp{"compact", func(h *histRun, tag string) { h.mutate(tag, compactMut) }}
	// reopenOp continues with a reopen of the engine's directory (and
	// of the twin's).
	reopenOp = histOp{"reopen", func(h *histRun, tag string) {
		h.cur.Close()
		var err error
		if h.cur, err = h.open(h.dir, histFS); err != nil {
			h.t.Fatalf("%s: reopen: %v", tag, err)
		}
		if h.twin != nil {
			h.twin.Close()
			if h.twin, err = h.open(h.twinDir, histFS); err != nil {
				h.t.Fatalf("%s: reopen the twin: %v", tag, err)
			}
		}
	}}
)

func addOp(name string, count, units int, shadow bool) histOp {
	return histOp{name, func(h *histRun, tag string) { h.addBatch(tag, count, units, shadow) }}
}

func mixedScript(h *histRun) {
	h.buildUnits(0, 0, 0, 0, 0)
	h.run([]histOp{
		addOp("add2", 2, 0, false),
		addOp("add1", 1, 0, false),
		deleteOp,
		addOp("shadow", 1, 0, true),
		reopenOp,
		compactOp,
		addOp("add2b", 2, 0, false),
		deleteOp,
		addOp("shadow2", 2, 0, true),
		reopenOp,
		compactOp,
		addOp("add1b", 1, 0, false),
		reopenOp,
	})
}

func foldsScript(h *histRun) {
	h.buildUnits(3, 3, 3)
	h.run([]histOp{
		addOp("b1", 1, 1, false), // 9 1
		addOp("b2", 1, 1, false), // 9 2
		addOp("b3", 1, 1, false), // 9 2 1
		addOp("b4", 1, 1, false), // 9 4
		addOp("b5", 1, 1, true),  // 9 4 1
		addOp("b6", 1, 1, false), // 9 4 2
		addOp("b7", 1, 1, false), // 9 4 2 1
		deleteOp,
		addOp("b8", 1, 1, false), // 9 8
		reopenOp,
		addOp("b9", 1, 2, false),  // 9 8 2
		addOp("b10", 1, 1, false), // 9 8 2 1
		addOp("b11", 1, 1, false), // 9 8 4
		addOp("b12", 1, 5, false), // 26
	})
	seen := map[int]bool{}
	for _, n := range h.folds {
		seen[n] = true
	}
	if !seen[1] || !seen[2] || !seen[3] || h.baseFolds == 0 {
		h.t.Fatalf("folds %v and %d base folds: the script must fold 1, 2 and 3 segments and the base", h.folds, h.baseFolds)
	}
}

func suggestScript(h *histRun) {
	corpus := crashCorpus()
	var base []histVersion
	for _, n := range sortedKeys(corpus) {
		base = append(base, histVersion{n, corpus[n]})
	}
	for i := 0; i < 3; i++ {
		base = append(base, histVersion{h.freshName(), h.content(0)})
	}
	h.build(base)
	add := func(name string, batch map[string]string) histOp {
		return histOp{name, func(h *histRun, tag string) { h.mutate(tag, addMut(batch)) }}
	}
	h.run([]histOp{
		add("add", map[string]string{"extra.xml": `<book><title>ranked proximity keyword</title><p>xquery extension volume</p></book>`}),
		{"delete", func(h *histRun, tag string) {
			if n := h.cur.SegmentCount(); n != 2 {
				h.t.Fatalf("%s: %d segments before the delete, want 2", tag, n)
			}
			h.mutate(tag, deleteMut("doc2.xml"))
		}},
		add("shadow", map[string]string{"doc1.xml": `<book><title>replacement xml chapter</title></book>`}),
		reopenOp,
		compactOp,
		reopenOp,
	})
}

// linkBatch applies batch and checks, through the
// xrank_elemrank_*_solved_total counters, that its rank step solved
// exactly the components want, each listed by document name: "name" is
// the newest version after the batch, "name~" the version the batch
// shadowed.
func (h *histRun) linkBatch(tag string, batch map[string]string, want ...[]string) {
	h.t.Helper()
	before := len(h.history)
	c0, e0 := solveCounters(h.cur)
	h.mutate(tag, addMut(batch))
	c1, e1 := solveCounters(h.cur)
	elems := 0
	for _, comp := range want {
		for _, n := range comp {
			id := 0
			if old, ok := strings.CutSuffix(n, "~"); ok {
				id = h.versionID(old, before)
			} else {
				id = h.versionID(n, len(h.history))
			}
			elems += h.cur.col.Docs[id].NumElements()
		}
	}
	if c1-c0 != int64(len(want)) || e1-e0 != int64(elems) {
		// Not fatal: the step's oracles still run and report too.
		h.t.Errorf("%s: solved %d components of %d elements, want %v: %d components of %d elements",
			tag, c1-c0, e1-e0, want, len(want), elems)
	}
}

// solvedEverything checks that the solve counters moved by every
// component and element of the collection since (c0, e0).
func (h *histRun) solvedEverything(tag string, c0, e0 int64) {
	h.t.Helper()
	c1, e1 := solveCounters(h.cur)
	comps := len(h.cur.col.Components())
	if c1-c0 != int64(comps) || e1-e0 != int64(h.cur.NumElements()) {
		h.t.Fatalf("%s: solved %d components of %d elements, want all %d of %d",
			tag, c1-c0, e1-e0, comps, h.cur.NumElements())
	}
}

func linkOp(name string, batch func(h *histRun) map[string]string, want ...[]string) histOp {
	return histOp{name, func(h *histRun, tag string) { h.linkBatch(tag, batch(h), want...) }}
}

// linksScript: documents joined by XLinks, so the collection has several
// connected components that batches merge and split, and AddDocs
// re-solves ElemRank only for the components whose document sets
// changed; each batch asserts exactly which components it solved.
func linksScript(h *histRun) {
	t := h.t
	h.build([]histVersion{
		{"b0", h.linkDoc()},
		{"b1", h.linkDoc("b2")},
		{"b2", h.linkDoc()},
		{"b3", h.linkDoc()},
		{"p4.html", h.page()},
		{"p5.html", h.page("b3")},
	})
	h.solvedEverything("initial build", 0, 0)
	if got := len(h.cur.col.Components()); got != 4 {
		t.Fatalf("base has %d components, want 4", got)
	}
	var failedID int
	h.run([]histOp{
		// A batch document joins a base document's component.
		linkOp("join", func(h *histRun) map[string]string {
			return map[string]string{"c0": h.linkDoc("b0")}
		}, []string{"b0", "c0"}),
		// c1 links to c3, which arrives two batches later; a page without
		// links is a component of one dangling root.
		linkOp("forward", func(h *histRun) map[string]string {
			return map[string]string{"c1": h.linkDoc("c3"), "p6.html": h.page()}
		}, []string{"c1"}, []string{"p6.html"}),
		// A fragment no version of b1 has dangles.
		linkOp("dangling fragment", func(h *histRun) map[string]string {
			return map[string]string{"c2": h.linkDoc("b1#nope")}
		}, []string{"c2"}),
		linkOp("arrive", func(h *histRun) map[string]string {
			return map[string]string{"c3": h.linkDoc()}
		}, []string{"c1", "c3"}),
		// A new version of b2 retargets b1's link and splits the old
		// version off into a component of its own.
		linkOp("shadow", func(h *histRun) map[string]string {
			return map[string]string{"b2": h.linkDoc()}
		}, []string{"b1", "b2"}, []string{"b2~"}),
		// d0 links an identified element of d1, and d1 links back.
		linkOp("fragment", func(h *histRun) map[string]string {
			d1 := strings.Replace(h.linkDoc("d0"), "</doc>", `<see id="frag">alpha</see></doc>`, 1)
			return map[string]string{"d0": h.linkDoc("d1#frag"), "d1": d1}
		}, []string{"d0", "d1"}),
		// A new version of d1 without that id leaves d0's link dangling,
		// while the old version's link keeps {d0, d1~} together: the same
		// documents, a different subgraph, solved again.
		linkOp("fragment dropped", func(h *histRun) map[string]string {
			return map[string]string{"d1": h.linkDoc()}
		}, []string{"d0", "d1~"}, []string{"d1"}),
		deleteOp,
		// c4 parses, zz does not: the batch fails and its IDs are reused.
		{"fail", func(h *histRun, tag string) {
			failedID = len(h.history)
			h.failBatch(tag, map[string]string{"c4": h.linkDoc(), "zz": "<broken"})
		}},
		{"reuse", func(h *histRun, tag string) {
			h.linkBatch(tag, map[string]string{"c5": h.linkDoc()}, []string{"c5"})
			if h.liveID["c5"] != failedID {
				t.Fatalf("%s: c5 got document ID %d, the failed batch had %d", tag, h.liveID["c5"], failedID)
			}
		}},
		reopenOp,
		// A stale segment makes open re-solve every component, so the
		// reopened engine's cache is warm: its first batch solves only
		// the component it changes.
		{"warm", func(h *histRun, tag string) {
			h.solvedEverything(tag+": open", 0, 0)
			h.linkBatch(tag, map[string]string{"c6": h.linkDoc("p4.html")}, []string{"p4.html", "c6"})
		}},
		linkOp("grow", func(h *histRun) map[string]string {
			return map[string]string{"c7": h.linkDoc("c6")}
		}, []string{"p4.html", "c6", "c7"}),
		compactOp,
		linkOp("page joins", func(h *histRun) map[string]string {
			return map[string]string{"p8.html": h.page("b0")}
		}, []string{"b0", "c0", "p8.html"}),
	})
}

// histStep is what the oracles of one step see: the reference, the
// engine's and the reference's answers (searchAll), and a second engine
// opened on the engine's directory.
type histStep struct {
	op        string
	ref       *Engine
	cur, want [][]SearchResult
	reopened  *Engine
}

// histOracles are the table's columns, run in this order at every step:
// the ones that read answers before the engine's ranks are solved come
// first (an engine opened over fresh segments defers its solve), and the
// cache oracle precedes the ColdCache queries of pruning and brute
// force, which void the result cache.
var histOracles = []struct {
	name  string
	check func(h *histRun, s *histStep) error
}{
	{"rebuild", checkRebuild},
	{"cache", checkCache},
	{"pruning", checkPruning},
	{"suggest", checkSuggest},
	{"brute force", checkBruteForce},
	{"ranks", checkRanks},
	{"reopen", checkReopen},
	{"twin", checkTwin},
}

// check runs every oracle; a step fails with each oracle that failed.
func (h *histRun) check(tag, op string) {
	h.t.Helper()
	if h.ref == nil || h.refAt != h.edits {
		// A step that left the history alone (a reopen, a compaction, a
		// failed batch, a crash that kept the old state) keeps its
		// reference: a rebuild would build the same engine.
		h.closeRef()
		h.ref, h.refAt = h.reference(), h.edits
		h.refWant = searchAll(h.t, h.ref, histQueries)
	}
	s := &histStep{op: op, ref: h.ref, cur: searchAll(h.t, h.cur, histQueries), want: h.refWant}
	var err error
	if s.reopened, err = h.open(h.dir, histFS); err != nil {
		h.t.Fatalf("%s: reopen: %v", tag, err)
	}
	var fails []string
	for _, o := range histOracles {
		if err := o.check(h, s); err != nil {
			fails = append(fails, fmt.Sprintf("%s: %v", o.name, err))
		}
	}
	if h.row.reopenEach && len(fails) == 0 {
		h.cur, s.reopened = s.reopened, h.cur
	}
	s.reopened.Close()
	if len(fails) > 0 {
		h.t.Fatalf("%s:\n%s", tag, strings.Join(fails, "\n"))
	}
	if h.row.cache {
		// Pruning and brute force void the cache; the next mutation must
		// meet a warm one.
		searchAll(h.t, h.cur, histQueries)
	}
	h.victim = ""
	h.sugPrev = suggestSnapshot(h.t, h.cur)
}

func (h *histRun) closeRef() {
	if h.ref != nil {
		h.ref.Close()
		os.RemoveAll(h.ref.cfg.IndexDir)
	}
}

// reference builds an engine from scratch over the history: every
// version ever added, in ID order, then the tombstones by ID. Parsing and
// ElemRank are deterministic, so it bakes the exact float32 ranks the
// engine's stale segments substitute at query time.
func (h *histRun) reference() *Engine {
	h.t.Helper()
	c := h.config(h.freshDir())
	c.CacheBytes, c.CoalesceQueries = 0, false // no oracle asks it
	s := NewEngine(c)
	for _, v := range h.history {
		if err := s.addVersion(v.name, []byte(v.content), isHTMLName(v.name)); err != nil {
			h.t.Fatal(err)
		}
	}
	if _, err := s.Build(); err != nil {
		h.t.Fatal(err)
	}
	for _, id := range h.dead {
		s.deleteDocID(uint32(id))
	}
	return s
}

// searchAll returns e's answers at m = histM to every query under every
// algorithm of diffAlgos, query-major.
func searchAll(t *testing.T, e *Engine, queries []string) [][]SearchResult {
	t.Helper()
	var out [][]SearchResult
	for _, q := range queries {
		for _, opts := range diffAlgos {
			opts.TopM = histM
			rs, _, err := e.SearchDetailed(q, opts)
			if err != nil {
				t.Fatalf("%q under %+v: %v", q, opts, err)
			}
			out = append(out, rs)
		}
	}
	return out
}

// label names answer i of searchAll over histQueries.
func label(i int) string {
	return fmt.Sprintf("%s %q", searchLabel(diffAlgos[i%len(diffAlgos)]), histQueries[i/len(diffAlgos)])
}

// sameAnswer reports the first difference between two answers, which
// must be equal bit for bit, scores included.
func sameAnswer(got, want []SearchResult) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("result %d not bit-identical:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
	return nil
}

// checkRebuild: every answer is bit-identical to the reference's, and
// no result comes from a name with no live version.
func checkRebuild(h *histRun, s *histStep) error {
	for i, got := range s.cur {
		if err := sameAnswer(got, s.want[i]); err != nil {
			return fmt.Errorf("%s: %v", label(i), err)
		}
		for _, r := range got {
			if _, ok := h.liveID[r.Doc]; !ok {
				return fmt.Errorf("%s: tombstoned document %s in the results", label(i), r.Doc)
			}
		}
	}
	return nil
}

// checkCache, on cache rows: each query asked again is served from the
// cache and equals the reference's answer (and so the first one), and so
// does a permuted, duplicated spelling of "alpha beta"; the marker query
// of a document the step deleted is not served from the cache.
func checkCache(h *histRun, s *histStep) error {
	if !h.row.cache {
		return nil
	}
	ask := func(q string, opts SearchOptions, want []SearchResult, cached bool) error {
		opts.TopM = histM
		rs, st, err := h.cur.SearchDetailed(q, opts)
		switch {
		case err != nil:
			return err
		case st.Cached != cached:
			return fmt.Errorf("%s %q: served from cache: %v", searchLabel(opts), q, st.Cached)
		}
		if err := sameAnswer(rs, want); err != nil {
			return fmt.Errorf("%s %q: %v", searchLabel(opts), q, err)
		}
		return nil
	}
	for i, want := range s.want {
		if err := ask(histQueries[i/len(diffAlgos)], diffAlgos[i%len(diffAlgos)], want, true); err != nil {
			return err
		}
	}
	if err := ask("beta alpha beta", diffAlgos[0], s.want[0], true); err != nil || h.victim == "" {
		return err
	}
	want, _, err := s.ref.SearchDetailed(h.victim, SearchOptions{Algorithm: AlgoDIL, TopM: histM})
	if err != nil {
		return err
	}
	return ask(h.victim, diffAlgos[0], want, false)
}

// checkPruning: at m ∈ {1, 3, 10}, DIL, RDIL, HDIL under both cost
// models and Disjunctive each return exactly the first m results of the
// exhaustive answer on the same engine (a top-m no threshold reaches).
// RDIL and HDIL abandon rank-ordered blocks once their threshold passes
// the blocks' MaxRank; a difference is an unsound skip, a skip ref that
// disagrees with its block, or a codec bug.
func checkPruning(h *histRun, s *histStep) error {
	for _, q := range diffQueries {
		for _, disj := range []bool{false, true} {
			full, st, err := h.cur.SearchDetailed(q, SearchOptions{Algorithm: AlgoDIL, Disjunctive: disj, TopM: 1 << 20})
			if err != nil {
				return err
			}
			if q == "alpha beta" && !st.Cached && st.IO.BlocksDecoded == 0 {
				return fmt.Errorf("a DIL query decoded no posting blocks: %+v", st.IO)
			}
			algos := []SearchOptions{{Disjunctive: true}}
			if !disj {
				algos = []SearchOptions{{Algorithm: AlgoDIL}, {Algorithm: AlgoRDIL}, {Algorithm: AlgoHDIL}, {Algorithm: AlgoHDIL, ColdCache: true}}
			}
			for _, opts := range algos {
				for _, m := range []int{1, 3, 10} {
					opts.TopM = m
					got, st, err := h.cur.SearchDetailed(q, opts)
					if err != nil {
						return err
					}
					if err := sameAnswer(got, full[:min(m, len(full))]); err != nil {
						return fmt.Errorf("%s %q m=%d (cold=%v): %v", searchLabel(opts), q, m, opts.ColdCache, err)
					}
					h.skipped += st.IO.BlocksSkipped
				}
			}
		}
	}
	return nil
}

// suggestSnapshot captures a full-dictionary completion for equality
// checks across operations that must not change suggestions.
func suggestSnapshot(t *testing.T, e *Engine) []Suggestion {
	t.Helper()
	got, _, err := e.Suggest("", 50)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// checkSuggest: Engine.Suggest equals suggest.ScanTopK over the same
// per-segment dictionaries for a grid of prefixes and k, a reopen
// suggests exactly what the engine does, and a DeleteDoc or a reopen step
// moves no suggestion (tombstoned documents keep contributing until a
// fold, as in Section 4.5).
func checkSuggest(h *histRun, s *histStep) error {
	var tries []*suggest.Trie // the live segments' tries, in the order Suggest merges them
	for _, sg := range h.cur.segs {
		tries = append(tries, sg.sug)
	}
	for _, prefix := range []string{"", "a", "al", "alpha", "b", "d", "e", "g", "p", "s", "uniq", "uniq1", "w", "w1", "zzz",
		"x", "xml", "xq", "k", "key", "keyword", "ch", "the", "vol", "ranked"} {
		for _, k := range []int{1, 3, 50} {
			got, st, err := h.cur.Suggest(prefix, k)
			switch want := suggest.ScanTopK(tries, prefix, k); {
			case err != nil:
				return err
			case !reflect.DeepEqual(got, want):
				return fmt.Errorf("Suggest(%q, %d) = %v, brute force = %v", prefix, k, got, want)
			case st.Prefix != prefix || st.Terms <= 0:
				return fmt.Errorf("Suggest(%q, %d) reports prefix %q over %d terms", prefix, k, st.Prefix, st.Terms)
			}
		}
	}
	snap := suggestSnapshot(h.t, h.cur)
	if (s.op == "delete" || s.op == "reopen") && !reflect.DeepEqual(snap, h.sugPrev) {
		return fmt.Errorf("the %s step moved suggestions: %v -> %v", s.op, h.sugPrev, snap)
	}
	if got := suggestSnapshot(h.t, s.reopened); !reflect.DeepEqual(got, snap) {
		return fmt.Errorf("a reopen suggests %v, the engine %v", got, snap)
	}
	return nil
}

// solvedRanks solves the engine's ranks if an open deferred them.
func solvedRanks(e *Engine) ([]float64, error) {
	e.updateMu.Lock()
	defer e.updateMu.Unlock()
	err := e.solveRanks()
	return e.rank.Scores, err
}

// checkBruteForce: every answer, and HDIL's under the paper disk's cost
// model (ColdCache), has the IDs, in the same order, of the query
// package's brute-force specification over the engine's collection and
// current ranks with tombstoned documents filtered out, and scores within
// its 1e-9 relative tolerance.
func checkBruteForce(h *histRun, s *histStep) error {
	e := h.cur
	if _, err := solvedRanks(e); err != nil {
		return err
	}
	for qi, q := range histQueries {
		cold, _, err := e.SearchDetailed(q, SearchOptions{Algorithm: AlgoHDIL, ColdCache: true, TopM: histM})
		if err != nil {
			return err
		}
		n := len(diffAlgos)
		for ai, got := range append(s.cur[qi*n:qi*n+n:qi*n+n], cold) {
			spec := query.BruteForce
			if ai < len(diffAlgos) && diffAlgos[ai].Disjunctive {
				spec = query.BruteForceDisjunctive
			}
			all, err := spec(e.col, e.rank.Scores, tokenizeQuery(q), e.queryOptions(histM))
			if err != nil {
				return err
			}
			var want []query.Result
			for _, r := range all {
				if len(want) < histM && !e.isDeleted(r.ID[0]) {
					want = append(want, r)
				}
			}
			if len(got) != len(want) {
				return fmt.Errorf("answer %d to %q: %d results, brute force %d", ai, q, len(got), len(want))
			}
			for i, w := range want {
				g, doc := got[i], e.col.Docs[w.ID[0]].Name
				if d := math.Abs(g.Score - w.Score); g.DeweyID != w.ID.String() || g.Doc != doc ||
					(d > 1e-9*math.Abs(w.Score) && d > 1e-15) {
					return fmt.Errorf("answer %d to %q, result %d: %s@%s score %g, brute force %v@%s score %g",
						ai, q, i, g.DeweyID, g.Doc, g.Score, w.ID, doc, w.Score)
				}
			}
		}
	}
	return nil
}

// checkRanks: every element's ElemRank, the engine's rank CRC and the
// rank_crc its segments.json committed equal those of a cold component
// solve with no cached components, bit for bit.
func checkRanks(h *histRun, s *histStep) error {
	ranks, err := solvedRanks(h.cur)
	if err != nil {
		return err
	}
	cold, err := elemrank.ComputeComponents(h.cur.col, elemrank.DefaultParams(), nil)
	if err != nil {
		return err
	}
	for i, r := range cold.Scores {
		if i >= len(ranks) || math.Float64bits(ranks[i]) != math.Float64bits(r) {
			return fmt.Errorf("element %d of %d: ElemRank differs from a cold solve's %v", i, len(ranks), r)
		}
	}
	crc := rankCRC(cold.Scores)
	var sm segmentsManifest
	if err := storage.ReadManifest(histFS, filepath.Join(h.dir, fileSegments), &sm); err != nil {
		return err
	}
	committed := "none"
	if sm.RankCRC != nil {
		committed = fmt.Sprintf("%08x", *sm.RankCRC)
	}
	if committed != fmt.Sprintf("%08x", crc) || h.cur.rank.crc != crc {
		return fmt.Errorf("%s commits rank_crc %s, the engine's is %08x, a cold solve's %08x",
			fileSegments, committed, h.cur.rank.crc, crc)
	}
	return nil
}

// checkReopen: a second engine opened on the directory has the
// engine's ElemRanks, segment layout and answers bit for bit (see
// reopenSig). (A reopen step's engine is a reopened one, and the pruning
// oracle checks that it reads its postings block by block.)
func checkReopen(h *histRun, s *histStep) error {
	want := reopenSig(h.t, h.cur, nil)
	want.answers = s.cur
	if got := reopenSig(h.t, s.reopened, histQueries); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("the reopened engine differs from the live one: %s", sigDiff(got, want))
	}
	return nil
}

// engineSig is what a reopen must preserve bit for bit.
type engineSig struct {
	ranks   []uint64 // ElemRank of every element, by global index, as float64 bits
	rankVer int
	segs    []SegmentInfo // rank versions and staleness included
	answers [][]SearchResult
}

// sigDiff names the first part of got that differs from want.
func sigDiff(got, want engineSig) string {
	if got.rankVer != want.rankVer || !reflect.DeepEqual(got.segs, want.segs) {
		return fmt.Sprintf("rank version %d, segments %+v; want %d, %+v", got.rankVer, got.segs, want.rankVer, want.segs)
	}
	return fmt.Sprintf("ElemRanks equal %v, answers equal %v",
		reflect.DeepEqual(got.ranks, want.ranks), reflect.DeepEqual(got.answers, want.answers))
}

// reopenSig reads e's ElemRank of every element through the public
// accessor (which solves ranks an open deferred, and so settles the rank
// version), then its segment layout and its DIL, RDIL, HDIL and
// disjunctive answers to queries.
func reopenSig(t *testing.T, e *Engine, queries []string) engineSig {
	t.Helper()
	var sig engineSig
	for g := 0; g < e.NumElements(); g++ {
		r, err := e.ElemRank(e.col.ElementByGlobalIndex(g).DeweyID().String())
		if err != nil {
			t.Fatal(err)
		}
		sig.ranks = append(sig.ranks, math.Float64bits(r))
	}
	sig.rankVer, sig.segs = e.RankVersion(), e.Segments()
	sig.answers = searchAll(t, e, queries)
	return sig
}

// checkTwin, on twin rows: the twin, fed the same history in a directory
// whose path has another length, holds byte-identical files, so a
// directory is a function of its history and not of where it lives.
// (This generalises TestBuildShardedDeterministic from one build to the
// whole directory and every step.)
func checkTwin(h *histRun, s *histStep) error {
	if h.twin == nil {
		return nil
	}
	if len(h.dir) == len(h.twinDir) {
		return fmt.Errorf("the twin's path %s is as long as %s", h.twinDir, h.dir)
	}
	got, err := committedFiles(h.dir)
	if err != nil {
		return err
	}
	want, err := committedFiles(h.twinDir)
	if err != nil {
		return err
	}
	for _, name := range sortedKeys(got) {
		if w, ok := want[name]; !ok {
			return fmt.Errorf("%s is not in the twin", name)
		} else if !bytes.Equal(got[name], w) {
			return fmt.Errorf("%s differs from the twin's (%d against %d bytes)", name, len(got[name]), len(w))
		}
	}
	for _, name := range sortedKeys(want) {
		if _, ok := got[name]; !ok {
			return fmt.Errorf("the twin's %s is missing", name)
		}
	}
	return nil
}

// committedFiles reads every file of the index directory dir by its
// relative path, leaving out what a crash may leave behind and no commit
// names: temp files, and segment directories and document-store files
// that segments.json does not list.
func committedFiles(dir string) (map[string][]byte, error) {
	var sm segmentsManifest
	if err := storage.ReadManifest(histFS, filepath.Join(dir, fileSegments), &sm); err != nil {
		return nil, err
	}
	named := map[string]bool{}
	for _, d := range sm.Docs {
		named[filepath.Join("docs", d.File)] = true
	}
	for _, se := range sm.Segments {
		named[se.Dir] = true
	}
	files := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d iofs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		parent, base := filepath.Split(rel)
		switch {
		case d.IsDir():
			if parent == "" && strings.HasPrefix(base, "seg-") && !named[rel] {
				return filepath.SkipDir
			}
			return nil
		case strings.HasPrefix(base, ".") && strings.HasSuffix(base, ".tmp"):
			return nil
		case parent == "docs"+string(filepath.Separator) && !named[rel]:
			return nil
		}
		data, err := os.ReadFile(path)
		files[rel] = data
		return err
	})
	return files, err
}
