package loadgen

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"xrank/internal/httpapi"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestAlgoLabelMatchesEngine: the engine's latency series are labelled
// by Algorithm.String(), so every algorithm name the HTTP API accepts
// must map to exactly that label, or an arm's engine-side histogram delta
// matches no series.
func TestAlgoLabelMatchesEngine(t *testing.T) {
	accepted := 0
	for _, name := range []string{"hdil", "dil", "rdil", "naiveid", "naiverank", "HDIL", "bogus"} {
		a, err := httpapi.ParseAlgo(name)
		if err != nil {
			continue
		}
		accepted++
		if got, want := algoLabel(name), a.String(); got != want {
			t.Errorf("algoLabel(%q) = %q, engine label %q", name, got, want)
		}
	}
	if accepted != 3 {
		t.Errorf("ParseAlgo accepted %d names, want the 3 Dewey algorithms", accepted)
	}
}

func TestPercentile(t *testing.T) {
	if got := Percentile(nil, 0.5); got != 0 {
		t.Errorf("empty Percentile = %d, want 0", got)
	}
	if got := Percentile([]int64{7}, 0.99); got != 7 {
		t.Errorf("single-sample Percentile = %d, want 7", got)
	}
	s := []int64{40, 10, 30, 20} // unsorted on purpose
	cases := []struct {
		q    float64
		want int64
	}{
		{0, 10}, {1, 40}, {-1, 10}, {2, 40},
		{0.5, 25},  // midpoint between ranks 1 and 2
		{0.25, 17}, // 0.75 of the way from 10 to 20
		{0.99, 39},
	}
	for _, tc := range cases {
		if got := Percentile(s, tc.q); got != tc.want {
			t.Errorf("Percentile(%v) = %d, want %d", tc.q, got, tc.want)
		}
	}
	// Input must not be mutated (the runner reuses the sample slices).
	if s[0] != 40 {
		t.Error("Percentile sorted the caller's slice")
	}
}

// goldenReport is a fixed two-arm report with every field populated, so
// the goldens pin the full CSV column set and JSON field names.
func goldenReport() *Report {
	return &Report{
		Seed: 42, Workers: 8, Corpus: "xmark", Docs: 400, Elements: 54321,
		Arms: []ArmReport{
			{
				Arm: "zipf", Kind: KindZipf, Arrival: ArrivalPoisson, Algo: "dil",
				TopM: 10, Seed: 42, ZipfS: 1.1, Vocab: 256,
				TargetRPS: 200, AchievedRPS: 199.25, DurationSecs: 10,
				Sent: 1993, OK: 1990, NotFound: 0, Failed: 3,
				P50Micros: 350, P90Micros: 900, P99Micros: 2100, P999Micros: 4800,
				MeanMicros: 450, MaxMicros: 5200,
				ServerQueueMeanMicros: 12, ServerSearchMeanMicros: 310,
				EngineP50Micros: 300, EngineP99Micros: 1900,
				CacheHitRate: 0.8215, CoalesceRate: 0.013, DegradedRate: 0,
			},
			{
				Arm: "overload", Kind: KindOverload, Arrival: ArrivalPoisson, Algo: "dil",
				TopM: 10, Seed: 42, ZipfS: 1.01, Vocab: 256,
				TargetRPS: 4000, AchievedRPS: 3980.5, DurationSecs: 10,
				Sent: 39805, OK: 9200, Shed429: 30000, Expired503: 400, Timeout504: 100,
				Failed: 105, Dropped: 250,
				P50Micros: 800, P90Micros: 2400, P99Micros: 9500, P999Micros: 21000,
				MeanMicros: 1300, MaxMicros: 30000,
				UpdateOK:              0,
				ServerQueueMeanMicros: 450, ServerSearchMeanMicros: 700,
				EngineP50Micros: 650, EngineP99Micros: 8000,
				ShedRate: 0.7537, CacheHitRate: 0.02, CoalesceRate: 0.001, DegradedRate: 0.004,
				// A multi-target arm (two coordinators) pins the per-target
				// attribution encoding in both artifacts.
				Targets: []TargetReport{
					{URL: "http://c0:9000", Sent: 19903, OK: 4650, Shed429: 14900,
						Expired503: 200, Timeout504: 50, Failed: 103, P50Micros: 810, P99Micros: 9400},
					{URL: "http://c1:9000", Sent: 19902, OK: 4550, Shed429: 15100,
						Expired503: 200, Timeout504: 50, Failed: 2, P50Micros: 790, P99Micros: 9600},
				},
			},
			{
				// The keystroke-simulation arm: /api/suggest reads fill the
				// same latency columns the search arms use.
				Arm: "suggest", Kind: KindSuggest, Arrival: ArrivalPoisson, Algo: "dil",
				TopM: 8, Seed: 42, ZipfS: 1.1, Vocab: 256,
				TargetRPS: 800, AchievedRPS: 798.4, DurationSecs: 10,
				Sent: 7984, OK: 7980, Failed: 4,
				P50Micros: 120, P90Micros: 300, P99Micros: 900, P999Micros: 2100,
				MeanMicros: 160, MaxMicros: 2600,
				ServerQueueMeanMicros: 8, ServerSearchMeanMicros: 95,
			},
		},
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestReportGoldenCSV(t *testing.T) {
	var b bytes.Buffer
	if err := goldenReport().WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "report.csv", b.Bytes())
}

func TestReportGoldenJSON(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_load.json")
	if err := goldenReport().WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "BENCH_load.json", got)

	// And the artifact must read back losslessly for the SLO gate.
	r, err := ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Arms) != 3 || r.Arms[1].P99Micros != 9500 || r.Seed != 42 {
		t.Errorf("ReadReport round-trip lost data: %+v", r)
	}
}

func TestCompareReports(t *testing.T) {
	base := goldenReport()
	same, err := CompareReports(base, goldenReport(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if same.Regressed || same.MedianRatio != 1 || same.Threshold != DefaultSLORatio {
		t.Errorf("identical reports: %+v", same)
	}

	worse := goldenReport()
	for i := range worse.Arms {
		worse.Arms[i].P99Micros *= 3
	}
	res, err := CompareReports(base, worse, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Regressed || res.MedianRatio != 3 {
		t.Errorf("3x p99 not flagged: %+v", res)
	}

	// One noisy arm among three must not fail the gate: the median
	// absorbs a single outlier.
	threeArms := func() *Report {
		r := goldenReport()
		extra := r.Arms[0]
		extra.Arm = "hotset"
		r.Arms = append(r.Arms, extra)
		return r
	}
	oneBad := threeArms()
	oneBad.Arms[0].P99Micros *= 10
	res, err = CompareReports(threeArms(), oneBad, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Regressed || res.MedianRatio != 1 {
		t.Errorf("single noisy arm failed the median gate: %+v", res)
	}

	// Incomparable reports are loud errors, not silent passes.
	if _, err := CompareReports(&Report{}, goldenReport(), 0); err == nil {
		t.Error("empty baseline accepted")
	}
	renamed := goldenReport()
	for i := range renamed.Arms {
		renamed.Arms[i].Arm = fmt.Sprintf("x%d", i)
	}
	if _, err := CompareReports(base, renamed, 0); err == nil {
		t.Error("no common arms accepted")
	}
	zero := goldenReport()
	zero.Arms[0].P99Micros = 0
	if _, err := CompareReports(base, zero, 0); err == nil {
		t.Error("zero p99 accepted")
	}
}

func TestCheckOverload(t *testing.T) {
	good := goldenReport().Arms[1]
	if err := CheckOverload(good, 20*time.Millisecond); err != nil {
		t.Errorf("healthy overload arm rejected: %v", err)
	}
	if err := CheckOverload(goldenReport().Arms[0], time.Second); err == nil {
		t.Error("non-overload arm accepted")
	}
	noShed := good
	noShed.Shed429 = 0
	if err := CheckOverload(noShed, 20*time.Millisecond); err == nil {
		t.Error("no shedding accepted")
	}
	allShed := good
	allShed.OK = 0
	if err := CheckOverload(allShed, 20*time.Millisecond); err == nil {
		t.Error("total outage accepted")
	}
	if err := CheckOverload(good, 5*time.Millisecond); err == nil {
		t.Error("p99 over SLO accepted")
	}
}

func TestBuildArmReport(t *testing.T) {
	res := &ArmResult{
		Spec:              ArmSpec{Name: "zipf", Kind: KindZipf, RPS: 100, Duration: time.Second}.withDefaults(),
		Seed:              9,
		Wall:              2 * time.Second,
		Counts:            Counts{Sent: 200, OK: 197, Shed429: 2, Failed: 1},
		Searches:          200,
		SearchMicros:      []int64{100, 200, 300, 400},
		ServerQueueMicros: 40, ServerSearchMicros: 400, ServerTimed: 4,
		MetricsBefore: map[string]float64{
			"xrank_cache_result_hits_total":   10,
			"xrank_cache_result_misses_total": 10,
			`xrank_queries_total{algo="DIL"}`: 20,
		},
		MetricsAfter: map[string]float64{
			"xrank_cache_result_hits_total":   160,
			"xrank_cache_result_misses_total": 60,
			`xrank_queries_total{algo="DIL"}`: 220,
			`xrank_coalesced_queries_total`:   20,
			`xrank_degraded_queries_total`:    2,
		},
	}
	a := BuildArmReport(res)
	if a.AchievedRPS != 100 {
		t.Errorf("achieved rps = %v, want 100", a.AchievedRPS)
	}
	if a.P50Micros != 250 || a.MaxMicros != 400 || a.MeanMicros != 250 {
		t.Errorf("latency summary = p50 %d max %d mean %d", a.P50Micros, a.MaxMicros, a.MeanMicros)
	}
	if a.ServerQueueMeanMicros != 10 || a.ServerSearchMeanMicros != 100 {
		t.Errorf("server timing means = %d/%d", a.ServerQueueMeanMicros, a.ServerSearchMeanMicros)
	}
	if a.ShedRate != 0.01 {
		t.Errorf("shed rate = %v, want 0.01", a.ShedRate)
	}
	if a.CacheHitRate != 0.75 {
		t.Errorf("cache hit rate = %v, want 0.75 (150 hits / 200 lookups)", a.CacheHitRate)
	}
	if a.CoalesceRate != 0.1 || a.DegradedRate != 0.01 {
		t.Errorf("coalesce/degraded = %v/%v, want 0.1/0.01", a.CoalesceRate, a.DegradedRate)
	}
}
