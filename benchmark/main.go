// Command benchmark is the repository's one performance spine: it builds a
// seeded corpus, mounts the serve handler stack on a loopback listener in
// this process, drives it closed-loop with two callers, checks every reply,
// and prints every metric by name and unit. See README.md and, at the root
// of the repository, BENCHMARK.json.
//
//	bash benchmark/run.sh --workload search.locorr --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh -seed 1 -out run.json          # all workloads, measured
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string
	work     string
	dump     string
	spans    string
	compare  bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run, or all")
	flag.Int64Var(&o.seed, "seed", 1, "the only source of randomness: corpus and request streams derive from it")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "length of the measured window")
	flag.IntVar(&o.trace, "trace", 0, "0: measured run, end-to-end metrics; 1: traced run, per-layer metrics and budget tables")
	flag.StringVar(&o.out, "out", "", "also record the run in this JSON file (read by -compare)")
	flag.StringVar(&o.work, "work", filepath.Join(".bench_build", "work"), "directory the index directories are made in")
	flag.StringVar(&o.dump, "dump", "", "write the request streams to this file (- for standard output) and exit")
	flag.StringVar(&o.spans, "spans", "", "traced run: write every recorded span to this file, one JSON object per line")
	flag.BoolVar(&o.compare, "compare", false, "compare two -out files given as arguments; exit 1 if a pair differs by more than its bound")
	flag.Parse()
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	if o.compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two files")
		}
		ok, err := compare(os.Stdout, args[0], args[1])
		if err == nil && !ok {
			err = fmt.Errorf("the two sets differ by more than a bound")
		}
		return err
	}
	todo := workloads
	if o.workload != "all" {
		w, err := workloadByName(o.workload)
		if err != nil {
			return err
		}
		todo = []workload{*w}
	}
	if o.dump != "" {
		f := os.Stdout
		if o.dump != "-" {
			var err error
			if f, err = os.Create(o.dump); err != nil {
				return err
			}
			defer f.Close()
		}
		for i := range todo {
			if err := dumpStreams(f, &todo[i], fullSizes, o.seed); err != nil {
				return err
			}
		}
		return nil
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds %g: the window needs at least one second", o.seconds)
	}

	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return err
	}
	runDir, err := os.MkdirTemp(o.work, "run-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(runDir)

	failed := 0
	for i := range todo {
		w := &todo[i]
		var res *result
		if o.trace != 0 {
			res, err = traced(w, fullSizes, o.seed, o.seconds, runDir, o.spans)
		} else {
			res, err = measured(w, fullSizes, o.seed, o.seconds, runDir)
		}
		if err == nil {
			err = res.finish()
		}
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		res.print(os.Stdout)
		if o.out != "" {
			if err := appendOutput(o.out, res); err != nil {
				return err
			}
		}
		failed += res.Failed
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed an output check", failed)
	}
	return nil
}

// measured is the run the end-to-end metrics come from: no spans, no
// probes. It sets the workload up sz.setups times and keeps the last.
func measured(w *workload, sz sizes, seed int64, seconds float64, workDir string) (*result, error) {
	var (
		in            *instance
		setups, loads []float64
	)
	for i := 0; i < sz.setups; i++ {
		if in != nil {
			in.close()
			// The discarded set-up's corpus and collection are garbage now;
			// collect and return them before the next one is timed.
			debug.FreeOSMemory()
		}
		var err error
		if in, err = setUp(w, sz, seed, workDir, nil); err != nil {
			return nil, err
		}
		setups = append(setups, in.setup.Seconds())
		loads = append(loads, float64(in.xmlBytes)/1e6/in.load.Seconds())
	}
	defer in.close()
	if !w.writer {
		if err := in.checkReference(); err != nil {
			return nil, fmt.Errorf("reference check: %w", err)
		}
	}
	// Finish what set-up left running in the background — the collector's
	// sweep of the discarded corpora, the kernel's write-back of the index
	// files — so that it does not compete with the window for the two cores.
	runtime.GC()
	syscall.Sync()

	res := newResult(w, seed, seconds, false)
	win, ws := in.runBoth(time.Duration(seconds*float64(time.Second)), "client", nil, 0, nil)
	res.add(win.tally, ws.tally)
	t := win.timing()
	if t.pct != 99 {
		fmt.Printf("%s: the window holds too few reads for p99; p99_ms reports p%g\n", w.name, t.pct)
	}
	res.e2e("qps", t.qps, int64(t.n))
	res.e2e("p50_ms", t.p50ms, int64(t.n))
	res.e2e("p99_ms", t.p99ms, int64(t.n))

	// ingest_mb_per_s is the write path's throughput in XML megabytes per
	// second: the bulk load (AddXML + Build, median of the set-ups) where
	// the window has no writer, the AddDocs loop (compaction included)
	// where it has.
	xml := in.xmlBytes
	if w.writer {
		xml += ws.xmlBytes
		res.e2e("ingest_mb_per_s", float64(ws.xmlBytes)/1e6/ws.elapsed.Seconds(), int64(ws.docs))
		if _, err := in.e.CompactOnce(0); err != nil {
			return nil, fmt.Errorf("final compaction: %w", err)
		}
	} else {
		res.e2e("ingest_mb_per_s", median(loads), int64(len(in.docs)))
	}
	onDisk, err := dirBytes(in.dir)
	if err != nil {
		return nil, err
	}
	res.e2e("index_bytes_per_xml_byte", float64(onDisk)/float64(xml), xml)
	res.e2e("setup_s", median(setups), int64(len(setups)))

	if w.writer {
		res.op(in.checkReopen())
	}
	return res, nil
}

// runBoth runs one closed-loop read window and, for a workload with a
// writer, the write loop beside it, which stops once the window ends and
// its operation in flight completes.
func (in *instance) runBoth(d time.Duration, tag string, rec *recorder, firstBatch int, probe *writeProbe) (*window, *writeStats) {
	if !in.w.writer {
		return in.runWindow(d, tag, rec), &writeStats{}
	}
	stop := make(chan struct{})
	done := make(chan *writeStats, 1)
	go func() { done <- in.runWriter(stop, firstBatch, probe) }()
	win := in.runWindow(d, tag, rec)
	close(stop)
	return win, <-done
}
