// Command xrank-loadgen is the open-loop load harness for the xrank
// HTTP server (experiment E14). It fires /api/search — /api/docs in
// the update-mix arm, /api/suggest in the keystroke-simulation
// suggest arm — at a fixed target rate with seeded
// Poisson or uniform arrivals, measures latency from each request's
// *intended* send time (no coordinated omission), and reports per-arm
// p50/p90/p99/p99.9 plus achieved-vs-target RPS, shed/error counts and
// server-side cache/coalesce/degraded rates scraped from /metrics.
//
// Two targets:
//
//	xrank-loadgen -url http://host:8080          # a running `xrank serve`
//	xrank-loadgen -inproc                        # self-hosted seeded corpus
//
// -inproc builds a seeded XMark corpus in a temp dir, mounts the same
// handler stack `xrank serve` uses (admission control included) on a
// loopback listener, and drives that — the reproducible CI mode.
//
// The -baseline/-slo-ratio flags gate a fresh run against a committed
// BENCH_load.json (median across arms of accepted-p99 ratios);
// -require-shed additionally demands the overload arm demonstrated 429
// shedding while accepted-request p99 held under -slo-ms. Gate
// failures exit 2, harness errors exit 1.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"time"

	"xrank"
	"xrank/internal/cache"
	"xrank/internal/datagen/xmark"
	"xrank/internal/httpapi"
	"xrank/internal/loadgen"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		if ge, ok := err.(gateError); ok {
			fmt.Fprintf(os.Stderr, "xrank-loadgen: %v\n", ge.err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "xrank-loadgen: %v\n", err)
		os.Exit(1)
	}
}

// gateError marks SLO-gate failures (exit 2) as opposed to harness
// errors (exit 1), mirroring the bench guard convention.
type gateError struct{ err error }

func (g gateError) Error() string { return g.err.Error() }

func run(args []string) error {
	fs := flag.NewFlagSet("xrank-loadgen", flag.ExitOnError)
	urlFlag := fs.String("url", "", "base URL(s) of running servers, comma-separated to round-robin across targets (mutually exclusive with -inproc)")
	inproc := fs.Bool("inproc", false, "build a seeded corpus and serve it in-process on a loopback listener")
	seed := fs.Int64("seed", 1, "workload seed: same seed, same spec => byte-identical request stream")
	arms := fs.String("arms", "zipf,hotset,updates,suggest,overload", "comma-separated arm kinds to run, in order")
	rps := fs.Float64("rps", 200, "base target arrival rate per arm")
	overloadMult := fs.Float64("overload-mult", 20, "overload arm rate = -rps x this multiple")
	duration := fs.Duration("duration", 10*time.Second, "length of each arm")
	arrival := fs.String("arrival", "poisson", "arrival process: poisson | uniform")
	vocab := fs.Int("vocab", 256, "query vocabulary size (ranks into the shared w0..wN pool)")
	zipfS := fs.Float64("zipf-s", 0, "zipf skew >1 (0 = per-arm default: 1.1, overload 1.01)")
	rotations := fs.Int("rotations", 1, "hotset arm: mid-run hot-set rotations")
	updateFrac := fs.Float64("update-frac", 0.05, "updates arm: fraction of requests that mutate /api/docs")
	algo := fs.String("algo", "dil", "search algorithm parameter")
	topM := fs.Int("m", 10, "search top-m parameter (suggest arm: the k parameter)")
	timeoutMS := fs.Int("timeout-ms", 0, "per-request timeout_ms query parameter (0 = none)")
	maxOutstanding := fs.Int("max-outstanding", 1024, "client-side cap on in-flight requests (excess is counted dropped)")
	warmup := fs.Int("warmup", 50, "untimed warmup requests before the first arm")

	csvPath := fs.String("csv", "", "write the per-arm CSV report here")
	jsonPath := fs.String("json", "", "write the BENCH_load.json report here")
	dump := fs.Bool("dump", false, "print the generated workloads (header + one line per request) and exit without sending")

	baseline := fs.String("baseline", "", "committed BENCH_load.json to gate against")
	sloRatio := fs.Float64("slo-ratio", 0, "max median accepted-p99 ratio vs baseline (0 = default 2.5)")
	requireShed := fs.Bool("require-shed", false, "fail unless the overload arm shed 429s with accepted p99 under -slo-ms")
	sloMS := fs.Int("slo-ms", 2000, "absolute accepted-request p99 SLO for -require-shed, in milliseconds")

	docs := fs.Int("docs", 8, "inproc: XMark documents in the generated corpus")
	scale := fs.Float64("scale", 0.25, "inproc: corpus scale factor")
	shards := fs.Int("shards", 1, "inproc: index shard count")
	cacheBytes := fs.Int64("cache-bytes", 32<<20, "inproc: result cache size (0 disables)")
	maxInflight := fs.Int("max-inflight", 2, "inproc: admission max concurrent searches (<=0 disables admission control)")
	admissionQueue := fs.Int("admission-queue", 0, "inproc: admission wait-queue length (0 = 2x max-inflight)")
	coalesce := fs.Bool("coalesce", true, "inproc: coalesce concurrent identical queries")
	fs.Parse(args)

	specs, err := buildSpecs(strings.Split(*arms, ","), armKnobs{
		rps: *rps, overloadMult: *overloadMult, duration: *duration,
		arrival: *arrival, vocab: *vocab, zipfS: *zipfS, rotations: *rotations,
		updateFrac: *updateFrac, algo: *algo, topM: *topM, timeoutMS: *timeoutMS,
	})
	if err != nil {
		return err
	}

	// Each arm gets a distinct but seed-derived stream: -seed fixes the
	// whole run, and -dump of the same invocation is byte-identical.
	workloads := make([]*loadgen.Workload, len(specs))
	for i, spec := range specs {
		w, err := loadgen.Generate(spec, *seed+int64(i))
		if err != nil {
			return err
		}
		workloads[i] = w
	}
	if *dump {
		for _, w := range workloads {
			if err := w.Dump(os.Stdout); err != nil {
				return err
			}
		}
		return nil
	}

	report := &loadgen.Report{Seed: *seed, Workers: runtime.GOMAXPROCS(0)}
	baseURL := *urlFlag
	if *inproc {
		if baseURL != "" {
			return fmt.Errorf("-url and -inproc are mutually exclusive")
		}
		report.Corpus = "xmark"
		report.Docs = *docs
		srvURL, info, cleanup, err := startInproc(inprocConfig{
			seed: *seed, docs: *docs, scale: *scale, vocab: *vocab,
			shards: *shards, cacheBytes: *cacheBytes, coalesce: *coalesce,
			maxInflight: *maxInflight, admissionQueue: *admissionQueue,
		})
		if err != nil {
			return err
		}
		defer cleanup()
		report.Elements = info.NumElements
		baseURL = srvURL
		fmt.Printf("inproc target %s: %d docs, %d elements, %d shards\n",
			baseURL, *docs, info.NumElements, *shards)
	}
	if baseURL == "" {
		return fmt.Errorf("need a target: -url http://host:port or -inproc")
	}

	opts := loadgen.RunOptions{MaxOutstanding: *maxOutstanding}
	if err := warmTarget(baseURL, *warmup); err != nil {
		return fmt.Errorf("warmup: %w", err)
	}
	for i, w := range workloads {
		fmt.Printf("arm %s: %d requests at %g rps over %s (%s arrivals, seed %d)\n",
			w.Spec.Name, len(w.Reqs), w.Spec.RPS, w.Spec.Duration, w.Spec.Arrival, w.Seed)
		res, err := loadgen.RunArm(context.Background(), baseURL, w, opts)
		if err != nil {
			return err
		}
		a := loadgen.BuildArmReport(res)
		report.Arms = append(report.Arms, a)
		printArm(a)
		// Let queued work and compaction drain between arms so one arm's
		// backlog doesn't contaminate the next arm's scrape window.
		if i < len(workloads)-1 {
			time.Sleep(200 * time.Millisecond)
		}
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		if err := report.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *csvPath)
	}
	if *jsonPath != "" {
		if err := report.WriteJSON(*jsonPath); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
	return gate(report, *baseline, *sloRatio, *requireShed, *sloMS)
}

// armKnobs carries the shared CLI knobs into per-arm specs.
type armKnobs struct {
	rps, overloadMult float64
	duration          time.Duration
	arrival           string
	vocab             int
	zipfS             float64
	rotations         int
	updateFrac        float64
	algo              string
	topM              int
	timeoutMS         int
}

func buildSpecs(kinds []string, k armKnobs) ([]loadgen.ArmSpec, error) {
	var specs []loadgen.ArmSpec
	for _, kind := range kinds {
		kind = strings.TrimSpace(kind)
		if kind == "" {
			continue
		}
		spec := loadgen.ArmSpec{
			Kind: kind, RPS: k.rps, Duration: k.duration, Arrival: k.arrival,
			Vocab: k.vocab, ZipfS: k.zipfS, HotRotations: k.rotations,
			UpdateFrac: k.updateFrac, Algo: k.algo, TopM: k.topM, TimeoutMS: k.timeoutMS,
		}
		if kind == loadgen.KindOverload {
			spec.RPS = k.rps * k.overloadMult
		}
		specs = append(specs, spec)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("no arms selected")
	}
	return specs, nil
}

// inprocConfig parameterizes the self-hosted target.
type inprocConfig struct {
	seed           int64
	docs           int
	scale          float64
	vocab          int
	shards         int
	cacheBytes     int64
	coalesce       bool
	maxInflight    int
	admissionQueue int
}

// startInproc builds a seeded XMark corpus into a temp dir and mounts
// the serve handler stack on a loopback listener. The corpus vocabulary
// is sized to the workload's -vocab so every generated query matches
// real postings.
func startInproc(c inprocConfig) (url string, info *xrank.BuildInfo, cleanup func(), err error) {
	dir, err := os.MkdirTemp("", "xrank-loadgen-*")
	if err != nil {
		return "", nil, nil, err
	}
	fail := func(e error) (string, *xrank.BuildInfo, func(), error) {
		os.RemoveAll(dir)
		return "", nil, nil, e
	}
	e := xrank.NewEngine(&xrank.Config{IndexDir: dir, Shards: c.shards})
	for d := 0; d < c.docs; d++ {
		doc := xmark.Generate(xmark.Params{
			Seed:           c.seed + int64(d),
			Items:          int(300 * c.scale),
			People:         int(180 * c.scale),
			OpenAuctions:   int(200 * c.scale),
			ClosedAuctions: int(120 * c.scale),
			Categories:     int(20 * c.scale),
			VocabSize:      c.vocab + 1, // adjacent-pair queries reach rank vocab-1 + 1
		})
		if err := e.AddXML(fmt.Sprintf("xmark-%03d", d), strings.NewReader(doc)); err != nil {
			return fail(err)
		}
	}
	info, err = e.Build()
	if err != nil {
		return fail(err)
	}
	e.ConfigureResultCache(c.cacheBytes)
	e.SetCoalesceQueries(c.coalesce)
	var adm *cache.Admission
	if c.maxInflight > 0 {
		adm = cache.NewAdmission(c.maxInflight, c.admissionQueue)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.Close()
		return fail(err)
	}
	srv := &http.Server{Handler: httpapi.NewMux(e, httpapi.Options{
		Metrics: true, Updates: true, Admission: adm,
	})}
	go srv.Serve(ln)
	cleanup = func() {
		srv.Close()
		e.Close()
		os.RemoveAll(dir)
	}
	return "http://" + ln.Addr().String(), info, cleanup, nil
}

// warmTarget primes connections and OS caches with untimed searches so
// the first arm's tail is not dominated by one-time setup cost. Every
// comma-separated target gets the full warmup pass.
func warmTarget(baseURL string, n int) error {
	client := &http.Client{Timeout: 10 * time.Second}
	for _, target := range strings.Split(baseURL, ",") {
		target = strings.TrimSpace(target)
		if target == "" {
			continue
		}
		for i := 0; i < n; i++ {
			resp, err := client.Get(fmt.Sprintf("%s/api/search?q=w%d+w%d&m=5", target, i%16, i%16+1))
			if err != nil {
				return err
			}
			resp.Body.Close()
		}
	}
	return nil
}

// printArm renders one arm's headline numbers for the terminal.
func printArm(a loadgen.ArmReport) {
	fmt.Printf("  %-9s rps %7.1f/%7.1f  ok %6d  429 %5d  503 %4d  504 %4d  404 %4d  fail %4d  drop %4d\n",
		a.Arm, a.AchievedRPS, a.TargetRPS, a.OK, a.Shed429, a.Expired503,
		a.Timeout504, a.NotFound, a.Failed, a.Dropped)
	fmt.Printf("            p50 %s  p90 %s  p99 %s  p99.9 %s  max %s  (server queue %s + exec %s)\n",
		us(a.P50Micros), us(a.P90Micros), us(a.P99Micros), us(a.P999Micros), us(a.MaxMicros),
		us(a.ServerQueueMeanMicros), us(a.ServerSearchMeanMicros))
	fmt.Printf("            shed %.1f%%  cache-hit %.1f%%  coalesce %.1f%%  degraded %.1f%%  engine p50/p99 %s/%s\n",
		100*a.ShedRate, 100*a.CacheHitRate, 100*a.CoalesceRate, 100*a.DegradedRate,
		us(a.EngineP50Micros), us(a.EngineP99Micros))
	if a.UpdateOK > 0 {
		fmt.Printf("            updates ok %d  update p99 %s\n", a.UpdateOK, us(a.UpdateP99Micros))
	}
	for _, tr := range a.Targets {
		fmt.Printf("            target %s  sent %d  ok %d  429 %d  503 %d  504 %d  fail %d  p99 %s\n",
			tr.URL, tr.Sent, tr.OK, tr.Shed429, tr.Expired503, tr.Timeout504, tr.Failed, us(tr.P99Micros))
	}
}

func us(v int64) string { return (time.Duration(v) * time.Microsecond).String() }

// gate applies the baseline and shedding gates, returning gateError on
// SLO violations so main exits 2.
func gate(report *loadgen.Report, baseline string, sloRatio float64, requireShed bool, sloMS int) error {
	if baseline != "" {
		base, err := loadgen.ReadReport(baseline)
		if err != nil {
			return err
		}
		res, err := loadgen.CompareReports(base, report, sloRatio)
		if err != nil {
			return gateError{err}
		}
		fmt.Printf("slo gate vs %s: %s\n", baseline, res)
		if res.Regressed {
			return gateError{fmt.Errorf("accepted-p99 regression: %s", res)}
		}
	}
	if requireShed {
		checked := false
		for _, a := range report.Arms {
			if a.Kind != loadgen.KindOverload {
				continue
			}
			checked = true
			if err := loadgen.CheckOverload(a, time.Duration(sloMS)*time.Millisecond); err != nil {
				return gateError{err}
			}
			fmt.Printf("overload gate: arm %s shed %d (%.1f%%) while accepted p99 %s held under %dms\n",
				a.Arm, a.Shed429, 100*a.ShedRate, us(a.P99Micros), sloMS)
		}
		if !checked {
			return gateError{fmt.Errorf("-require-shed set but no overload arm ran")}
		}
	}
	return nil
}
