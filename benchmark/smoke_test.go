package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tinySizes shrink every corpus and fixed-count phase so that all four
// workloads, measured and traced, run in a few seconds.
var tinySizes = sizes{
	perfBlocks: 600,
	zipfDocs:   2, zipfScale: 0.1,
	mixedDocs: 2, mixedScale: 0.1,
	vocab:       300,
	zipfPool:    16,
	mixedTerms:  20,
	warmup:      5,
	checkSample: 5,
	replay:      20,
	setups:      2,
}

// TestEveryWorkloadRuns is the bit-rot guard: each workload's measured and
// traced run, about a second each on a tiny corpus, must report every
// metric of its table and fail no output check.
func TestEveryWorkloadRuns(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "run.json")
	for i := range workloads {
		w := &workloads[i]
		for _, trace := range []bool{false, true} {
			var (
				res *result
				err error
			)
			if trace {
				res, err = traced(w, tinySizes, 1, 1.5, dir, filepath.Join(dir, "spans.jsonl"))
			} else {
				res, err = measured(w, tinySizes, 1, 1, dir)
			}
			if err == nil {
				err = res.finish()
			}
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed: %s", w.name, trace, res.Failed, res.Attempted, res.Error)
			}
			if err := appendOutput(out, res); err != nil {
				t.Fatal(err)
			}
		}
	}
	if fi, err := os.Stat(filepath.Join(dir, "spans.jsonl")); err != nil || fi.Size() == 0 {
		t.Errorf("the traced run wrote no spans: %v", err)
	}

	// A file agrees with itself; halve one throughput and it no longer does.
	var b bytes.Buffer
	if ok, err := compare(&b, out, out); err != nil || !ok {
		t.Errorf("a file compared with itself: ok=%v err=%v\n%s", ok, err, b.String())
	}
	f, err := readOutput(out)
	if err != nil {
		t.Fatal(err)
	}
	var r *result
	for _, run := range f.Runs {
		if run.Workload == "search.zipf" && !run.Trace {
			r = run
		}
	}
	v := r.Metrics["qps"]
	v.Value /= 2
	r.Metrics["qps"] = v
	worse := filepath.Join(dir, "worse.json")
	if err := appendOutput(worse, r); err != nil {
		t.Fatal(err)
	}
	b.Reset()
	if ok, err := compare(&b, out, worse); err != nil || ok {
		t.Errorf("halved qps and three missing workloads passed: ok=%v err=%v", ok, err)
	}
	if !strings.Contains(b.String(), "EXCEEDS") || !strings.Contains(b.String(), "MISSING") {
		t.Errorf("compare output names neither the exceeded bound nor the missing workloads:\n%s", b.String())
	}
}
