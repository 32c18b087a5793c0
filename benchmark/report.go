package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// value is one reported number with its unit and the sample count behind it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int64   `json:"n"`
}

// result is one run of one workload: the end-to-end metrics of a measured
// run or the per-layer metrics of a traced one.
type result struct {
	Workload string           `json:"workload"`
	Seed     int64            `json:"seed"`
	Seconds  float64          `json:"seconds"`
	Trace    bool             `json:"trace"`
	Metrics  map[string]value `json:"metrics"`
	tally
}

// tally counts operations against the output checks. A window, the writer
// and a whole run each keep one.
type tally struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Error is the first failure, for the reader of a report.
	Error string `json:"error,omitempty"`
}

// op counts one operation, failed if err is not nil, and reports success.
func (t *tally) op(err error) bool {
	t.Attempted++
	if err != nil {
		t.Failed++
		if t.Error == "" {
			t.Error = err.Error()
		}
	}
	return err == nil
}

func (t *tally) add(others ...tally) {
	for _, o := range others {
		t.Attempted += o.Attempted
		t.Failed += o.Failed
		if t.Error == "" {
			t.Error = o.Error
		}
	}
}

func newResult(w *workload, seed int64, seconds float64, trace bool) *result {
	return &result{Workload: w.name, Seed: seed, Seconds: seconds, Trace: trace, Metrics: map[string]value{}}
}

func (r *result) put(table []metric, name string, v float64, n int64) {
	for _, m := range table {
		if m.Name == name {
			r.Metrics[name] = value{v, m.Unit, n}
			return
		}
	}
	panic("benchmark: metric " + name + " is not declared in workloads.go")
}

func (r *result) e2e(name string, v float64, n int64)   { r.put(endToEnd, name, v, n) }
func (r *result) layer(name string, v float64, n int64) { r.put(perLayer, name, v, n) }

// finish checks that the run reported exactly its table, every metric a
// finite number.
func (r *result) finish() error {
	table := endToEnd
	if r.Trace {
		table = perLayer
	}
	for _, m := range table {
		v, ok := r.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", r.Workload, m.Name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("%s: metric %s is %v", r.Workload, m.Name, v.Value)
		}
	}
	return nil
}

// print writes every metric by name with its unit and sample count, then
// the one-line JSON object the driver reads.
func (r *result) print(out io.Writer) {
	table := endToEnd
	if r.Trace {
		table = perLayer
	}
	fmt.Fprintf(out, "\n%s seed=%d seconds=%g trace=%v attempted=%d failed=%d\n", r.Workload, r.Seed, r.Seconds, r.Trace, r.Attempted, r.Failed)
	if r.Error != "" {
		fmt.Fprintf(out, "  first failure: %s\n", r.Error)
	}
	line := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, map[string]map[string]any{}}
	for _, m := range table {
		v := r.Metrics[m.Name]
		fmt.Fprintf(out, "  %-34s %16.6g %-6s n=%d\n", m.Name, v.Value, v.Unit, v.N)
		line.Metrics[m.Name] = map[string]any{"value": v.Value, "unit": v.Unit}
	}
	b, _ := json.Marshal(line)
	fmt.Fprintf(out, "%s\n", b)
}

// environment is the block every output file carries: a number means
// nothing without the machine and the commit it was measured on.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Clients    int    `json:"clients"`
}

func currentEnvironment() environment {
	env := environment{
		Commit:     "unknown (not built inside a git checkout)",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
		Clients:    clients,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				env.Commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				env.Commit += " (modified)"
			}
		}
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

// outputFile is what -out writes: the environment and one entry per run.
// Running again with the same file adds to it, and -compare reads a file's
// median per workload and metric, so a set can be as many runs (and seeds)
// as the host's noise asks for.
type outputFile struct {
	Env  environment `json:"env"`
	Runs []*result   `json:"runs"`
}

func readOutput(path string) (*outputFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f outputFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func appendOutput(path string, r *result) error {
	f, err := readOutput(path)
	if errors.Is(err, fs.ErrNotExist) {
		f, err = &outputFile{}, nil
	}
	if err != nil {
		return err
	}
	f.Env = currentEnvironment()
	f.Runs = append(f.Runs, r)
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// medianOf returns the median of one end-to-end metric over the file's
// measured runs of one workload, and how many there are.
func (f *outputFile) medianOf(workload, metric string) (float64, int) {
	var vals []float64
	for _, r := range f.Runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
			vals = append(vals, v.Value)
		}
	}
	return median(vals), len(vals)
}

// compare prints, per workload × end-to-end metric, both files' medians,
// their relative difference and the metric's bound, and reports whether
// every pair agrees within its bound.
func compare(out io.Writer, pathA, pathB string) (bool, error) {
	a, err := readOutput(pathA)
	if err != nil {
		return false, err
	}
	b, err := readOutput(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "A: %s  commit %s\nB: %s  commit %s\n", pathA, a.Env.Commit, pathB, b.Env.Commit)
	fmt.Fprintf(out, "%-14s %-26s %14s %4s %14s %4s %9s %7s\n", "workload", "metric", "median A", "runs", "median B", "runs", "(B-A)/A", "bound")
	ok := true
	for _, w := range workloads {
		for _, m := range endToEnd {
			va, na := a.medianOf(w.name, m.Name)
			vb, nb := b.medianOf(w.name, m.Name)
			diff := (vb - va) / va
			verdict := ""
			if na == 0 || nb == 0 {
				verdict, ok = "  MISSING", false
			} else if math.Abs(diff) > m.Bound {
				verdict, ok = "  EXCEEDS", false
			}
			fmt.Fprintf(out, "%-14s %-26s %14.6g %4d %14.6g %4d %+8.2f%% %6.0f%%%s\n", w.name, m.Name, va, na, vb, nb, 100*diff, 100*m.Bound, verdict)
		}
	}
	return ok, nil
}
