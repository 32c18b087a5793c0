package xrank

import (
	"fmt"
	"io"
	iofs "io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"xrank/internal/storage"
)

// Crash-simulation harness. Every mutation commits the same way — write
// everything new under fresh names, then atomically replace segments.json
// — so one table of operations drives one replay: size the operation by
// running it once through a fault-free FaultFS (counting its write
// boundaries), then replay it once per boundary, each time on a pristine
// copy of the pre-state directory with a simulated crash armed there.
// After every crash the target directory must reopen as exactly the
// pre-operation or the post-operation engine — search scores and
// suggestions bit-identical to the corresponding clean run, same segment
// count, same tombstones — and an operation that reported success must
// have reached the post-state. A third state is a durability bug.

// crashCorpus is a small multi-document collection with enough term
// overlap that queries rank across documents.
func crashCorpus() map[string]string {
	docs := make(map[string]string)
	for i := 0; i < 5; i++ {
		docs[fmt.Sprintf("doc%d.xml", i)] = fmt.Sprintf(
			`<book id="%d"><title>xml ranked search volume %d</title>
			 <chapter><t>keyword retrieval</t><p>the xql language chapter %d</p></chapter>
			 <cite ref="%d">see also</cite></book>`, i, i, i, (i+1)%5)
	}
	return docs
}

func addCorpus(t *testing.T, e *Engine, docs map[string]string) {
	t.Helper()
	// Deterministic document IDs regardless of map order.
	for _, n := range sortedKeys(docs) {
		if err := e.AddXML(n, strings.NewReader(docs[n])); err != nil {
			t.Fatal(err)
		}
	}
}

// crashSig runs a fixed query workload and returns its exact results —
// the bit-identical-scores signature two equivalent indexes must share.
func crashSig(t *testing.T, e *Engine) [][]SearchResult {
	t.Helper()
	var sig [][]SearchResult
	for _, q := range []struct {
		q    string
		algo Algorithm
	}{
		{"xml search", AlgoDIL},
		{"keyword retrieval", AlgoRDIL},
		{"xql language", AlgoDIL},
	} {
		rs, _, err := e.SearchDetailed(q.q, SearchOptions{Algorithm: q.algo, TopM: 10})
		if err != nil {
			t.Fatalf("signature query %q: %v", q.q, err)
		}
		sig = append(sig, rs)
	}
	return sig
}

// crashStride bounds matrix size under -short (the CI race runner):
// every boundary still gets covered over time because the full matrix
// runs in the default mode.
func crashStride(n int64, t *testing.T) int64 {
	if !testing.Short() {
		return 1
	}
	s := n / 16
	if s < 1 {
		s = 1
	}
	return s
}

// copyDir recursively copies a committed index directory so a crash
// replay can mutate it destructively.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d iofs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, rerr := filepath.Rel(src, path)
		if rerr != nil {
			return rerr
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			return rerr
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// suggestCrashSig is the suggestion-side signature: full top-50
// completions for a spread of prefixes. Exact score-and-order equality
// is the bit-identical bar the search-side crashSig sets.
func suggestCrashSig(t *testing.T, e *Engine) [][]Suggestion {
	t.Helper()
	var sig [][]Suggestion
	for _, prefix := range []string{"", "x", "k", "ch", "s"} {
		got, _, err := e.Suggest(prefix, 50)
		if err != nil {
			t.Fatalf("signature suggest %q: %v", prefix, err)
		}
		sig = append(sig, got)
	}
	return sig
}

// crashState is everything a reopen can observe about which side of an
// operation a directory is on.
type crashState struct {
	search  [][]SearchResult
	suggest [][]Suggestion
	segs    int
	deleted []string
}

// observeCrashState reopens dir through the real file system; nil means
// the directory refuses to open.
func observeCrashState(t *testing.T, dir string) *crashState {
	t.Helper()
	e, err := OpenEngine(dir)
	if err != nil {
		return nil
	}
	defer e.Close()
	return &crashState{
		search:  crashSig(t, e),
		suggest: suggestCrashSig(t, e),
		segs:    e.SegmentCount(),
		deleted: e.DeletedDocs(),
	}
}

const segCrashDoc = `<book id="7"><title>incremental xml search addition</title>
 <chapter><t>keyword retrieval appendix</t><p>the xql language appendix</p></chapter>
 <cite ref="2">see also</cite></book>`

// crashOp is one row of the matrix.
type crashOp struct {
	name string
	// prepare turns a freshly built crashCorpus engine into the
	// operation's pre-state (nil: the Build output is the pre-state).
	prepare func(t *testing.T, e *Engine)
	// run performs the operation on e, whose file system is the faulty
	// one. out is an empty directory for operations that write a new
	// index instead of mutating e's own.
	run func(e *Engine, out string) error
	// build marks Build itself: e is a fresh unbuilt engine over
	// crashCorpus with IndexDir out, and there is no pre-state.
	build bool
	// toOut marks operations whose result lands in out (Build, Update):
	// out may refuse to open after a crash, and e's own directory must
	// not change.
	toOut bool
	// retires marks operations that end with best-effort retirement
	// after their commit (a folding AddDocs and CompactOnce drop the
	// merged-away segments): a crash landing there leaves the operation
	// reporting success. The others have no write after the commit, so a
	// crash at any boundary must fail them.
	retires bool
	// minOps guards the sizing run against silently counting nothing.
	minOps int64
}

var crashOps = []crashOp{
	{
		name: "Build", build: true, toOut: true, minOps: 20,
		run: func(e *Engine, _ string) error {
			_, err := e.Build()
			return err
		},
	},
	{
		// Update targets a new directory: the original must be untouched.
		name: "Update", toOut: true, minOps: 20,
		run: func(e *Engine, out string) error {
			ne, err := e.Update(out, map[string]io.Reader{"new.xml": strings.NewReader(
				`<book id="9"><title>new xml search material</title><p>fresh keyword text</p></book>`)})
			if err == nil {
				ne.Close()
			}
			return err
		},
	},
	{
		name: "DeleteDoc", minOps: 1,
		run: func(e *Engine, _ string) error { return e.DeleteDoc("doc2.xml") },
	},
	{
		// The delta-segment flush: document-store files, the segment
		// directory, and the segments.json swap. The batch folds nothing,
		// so nothing is written after the commit.
		name: "AddDocs", minOps: 10,
		run: func(e *Engine, _ string) error { return e.AddDoc("doc7.xml", strings.NewReader(segCrashDoc)) },
	},
	{
		// A flush that folds: the second document is as large as the
		// first delta, so its segment absorbs that one, whose directory
		// is retired after the commit.
		name: "AddDocsFold", retires: true, minOps: 10,
		prepare: func(t *testing.T, e *Engine) {
			if err := e.AddDoc("doc7.xml", strings.NewReader(segCrashDoc)); err != nil {
				t.Fatal(err)
			}
		},
		run: func(e *Engine, _ string) error {
			before := e.Segments()
			err := e.AddDoc("doc8.xml", strings.NewReader(strings.Replace(segCrashDoc, `id="7"`, `id="8"`, 1)))
			if after := e.Segments(); err == nil && (len(after) != 2 || after[1].Dir == before[1].Dir) {
				err = fmt.Errorf("segments %+v -> %+v: the batch folded nothing", before, after)
			}
			return err
		},
	},
	{
		// Compaction is score-neutral: both sides share the search
		// signature and differ in segment count (and in suggestion
		// weights, which the merge rebakes at the current rank version).
		name: "Compact", retires: true, minOps: 10,
		prepare: func(t *testing.T, e *Engine) {
			if err := e.AddDoc("doc7.xml", strings.NewReader(segCrashDoc)); err != nil {
				t.Fatal(err)
			}
		},
		run: func(e *Engine, _ string) error {
			cs, err := e.CompactOnce(0)
			if err == nil && !cs.Compacted {
				err = fmt.Errorf("nothing to compact")
			}
			return err
		},
	},
}

// runCrashMatrix replays every crashOp under cfg (IndexDir and FS are
// the harness's) over the documents of corpus.
func runCrashMatrix(t *testing.T, cfg Config, corpus func() map[string]string) {
	for _, op := range crashOps {
		t.Run(op.name, func(t *testing.T) {
			// attempt runs the operation once over a copy of the pre-state
			// through fs, with arm called once the engine is up, and
			// returns the operation's outcome and the two directories.
			var pristine string
			attempt := func(fs storage.FS, arm func()) (src, out string, err error) {
				src, out = filepath.Join(t.TempDir(), "src"), filepath.Join(t.TempDir(), "out")
				var e *Engine
				if op.build {
					c := cfg
					c.IndexDir, c.FS = out, fs
					e = NewEngine(&c)
					addCorpus(t, e, corpus())
				} else {
					copyDir(t, pristine, src)
					var oerr error
					if e, oerr = OpenEngineFS(src, fs); oerr != nil {
						t.Fatalf("open pre-state: %v", oerr)
					}
				}
				arm()
				err = op.run(e, out)
				e.Close()
				return src, out, err
			}
			target := func(src, out string) string {
				if op.toOut {
					return out
				}
				return src
			}

			var pre *crashState
			if !op.build {
				pristine = t.TempDir()
				c := cfg
				c.IndexDir = pristine
				b := NewEngine(&c)
				addCorpus(t, b, corpus())
				if _, err := b.Build(); err != nil {
					t.Fatal(err)
				}
				if op.prepare != nil {
					op.prepare(t, b)
				}
				b.Close()
				if pre = observeCrashState(t, pristine); pre == nil {
					t.Fatal("pre-state does not reopen")
				}
			}

			// Clean reference run, then the sizing run: the same operation
			// through a fault-free FaultFS must land in the same state.
			src, out, err := attempt(nil, func() {})
			if err != nil {
				t.Fatalf("clean run: %v", err)
			}
			post := observeCrashState(t, target(src, out))
			if post == nil {
				t.Fatal("clean run's result does not reopen")
			}
			if len(post.suggest[0]) == 0 {
				t.Fatal("the post-state suggests nothing; the suggest side of the matrix would prove nothing")
			}
			if !op.toOut && reflect.DeepEqual(pre, post) {
				t.Fatal("the operation changes nothing observable; the matrix would prove nothing")
			}
			sizing := storage.NewFaultFS(nil, 1)
			if src, out, err = attempt(sizing, func() {}); err != nil {
				t.Fatalf("sizing run: %v", err)
			}
			if got := observeCrashState(t, target(src, out)); !reflect.DeepEqual(got, post) {
				t.Fatal("fault-free FaultFS run differs from the plain run")
			}
			n := sizing.WriteOps()
			if n < op.minOps {
				t.Fatalf("counted only %d write boundaries", n)
			}

			for k := int64(1); k <= n; k += crashStride(n, t) {
				ffs := storage.NewFaultFS(nil, 1+k) // vary the seed: different torn prefixes
				src, out, err := attempt(ffs, func() { ffs.CrashAtWriteOp(k) })
				if err == nil && !op.retires {
					t.Fatalf("crash at op %d/%d: the operation reported success", k, n)
				}
				if op.toOut && !op.build {
					if got := observeCrashState(t, src); !reflect.DeepEqual(got, pre) {
						t.Fatalf("crash at op %d/%d changed the ORIGINAL index", k, n)
					}
				}
				got := observeCrashState(t, target(src, out))
				switch {
				case reflect.DeepEqual(got, post):
					// New state; a failed final directory fsync can report an
					// error with the manifest already durable.
				case got == nil && op.toOut:
					// A new directory that never committed.
				case got != nil && !op.toOut && reflect.DeepEqual(got, pre):
					if err == nil {
						t.Fatalf("crash at op %d/%d: success reported but the reopen shows the old state", k, n)
					}
				case got == nil:
					// The pre-state was fully committed before the crash armed.
					t.Fatalf("crash at op %d/%d left the directory unopenable", k, n)
				default:
					t.Fatalf("crash at op %d/%d: third state (segments=%d deleted=%v, op err=%v)",
						k, n, got.segs, got.deleted, err)
				}
			}
		})
	}
}

// TestCrashMatrix kills Build, Update, DeleteDoc, AddDocs and CompactOnce
// at every write boundary: postings files, the skip indexes (dil.skip,
// rdil.skip, after the postings files), meta.json, suggest.bin and the
// manifests. A reopen must never serve from a skip index that disagrees
// with its postings.
func TestCrashMatrix(t *testing.T) {
	runCrashMatrix(t, Config{Shards: 2}, crashCorpus)
}

// crashCorpusBlocks is crashCorpus with forty chapters per book, so that
// on one shard the signature queries' lists hold ~200 postings each.
func crashCorpusBlocks() map[string]string {
	docs := make(map[string]string)
	for i := 0; i < 5; i++ {
		var b strings.Builder
		fmt.Fprintf(&b, `<book id="%d"><title>xml ranked search volume %d</title>`, i, i)
		for c := 0; c < 40; c++ {
			fmt.Fprintf(&b, `<chapter><t>keyword retrieval %d</t><p>xml search in the xql language, chapter %d.%d</p></chapter>`, c, i, c)
		}
		fmt.Fprintf(&b, `<cite ref="%d">see also</cite></book>`, (i+1)%5)
		docs[fmt.Sprintf("doc%d.xml", i)] = b.String()
	}
	return docs
}

// TestCrashMatrixBlock is the matrix over lists that span several
// blocks, so every skip index holds more than one ref per term and RDIL's
// and HDIL's probes land inside a list rather than on its only block: a
// skip index torn or left over from another build would misdirect them.
func TestCrashMatrixBlock(t *testing.T) {
	e := NewEngine(&Config{IndexDir: t.TempDir(), Shards: 1})
	addCorpus(t, e, crashCorpusBlocks())
	if _, err := e.Build(); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"xml search", "keyword retrieval", "xql language"} {
		_, st, err := e.SearchDetailed(q, SearchOptions{Algorithm: AlgoDIL, TopM: 10})
		if err != nil {
			t.Fatal(err)
		}
		if st.IO.BlocksDecoded < 4 {
			t.Fatalf("%q decoded %d blocks; its lists do not span several blocks", q, st.IO.BlocksDecoded)
		}
	}
	e.Close()
	runCrashMatrix(t, Config{Shards: 1}, crashCorpusBlocks)
}
