package loadgen

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"xrank/internal/obs"
)

// ArmReport is the published measurement of one arm: the slice of
// BENCH_load.json the SLO gate compares, and one CSV row.
type ArmReport struct {
	Arm     string  `json:"arm"`
	Kind    string  `json:"kind"`
	Arrival string  `json:"arrival"`
	Algo    string  `json:"algo"`
	TopM    int     `json:"top_m"`
	Seed    int64   `json:"seed"`
	ZipfS   float64 `json:"zipf_s"`
	Vocab   int     `json:"vocab"`

	TargetRPS    float64 `json:"target_rps"`
	AchievedRPS  float64 `json:"achieved_rps"` // dispatched / wall
	DurationSecs float64 `json:"duration_secs"`

	Sent       int64 `json:"sent"`
	OK         int64 `json:"ok"`
	Shed429    int64 `json:"shed_429"`
	Expired503 int64 `json:"expired_503"`
	Timeout504 int64 `json:"timeout_504"`
	NotFound   int64 `json:"not_found_404"`
	Failed     int64 `json:"failed"`
	Dropped    int64 `json:"dropped_client"`

	// Accepted-search latency percentiles, measured from intended send
	// time (µs). These are the SLO numbers.
	P50Micros  int64 `json:"p50_micros"`
	P90Micros  int64 `json:"p90_micros"`
	P99Micros  int64 `json:"p99_micros"`
	P999Micros int64 `json:"p999_micros"`
	MeanMicros int64 `json:"mean_micros"`
	MaxMicros  int64 `json:"max_micros"`

	// Update-path latency (updates arm only).
	UpdateOK        int64 `json:"update_ok,omitempty"`
	UpdateP99Micros int64 `json:"update_p99_micros,omitempty"`

	// Server-Timing split over accepted searches (µs means).
	ServerQueueMeanMicros  int64 `json:"server_queue_mean_micros"`
	ServerSearchMeanMicros int64 `json:"server_search_mean_micros"`

	// Engine-side percentiles over the arm's interval, reconstructed
	// from the /metrics latency histogram (0 when metrics are off).
	EngineP50Micros int64 `json:"engine_p50_micros"`
	EngineP99Micros int64 `json:"engine_p99_micros"`

	// Server-side rates over the arm's interval, scraped from /metrics.
	ShedRate     float64 `json:"shed_rate"` // 429s / dispatched searches
	CacheHitRate float64 `json:"cache_hit_rate"`
	CoalesceRate float64 `json:"coalesce_rate"`
	DegradedRate float64 `json:"degraded_rate"`

	// Targets attributes the arm per base URL on a multi-target run
	// (requests round-robin across comma-separated -url targets); empty
	// for the single-target case.
	Targets []TargetReport `json:"targets,omitempty"`
}

// TargetReport is one target's share of a multi-target arm.
type TargetReport struct {
	URL        string `json:"url"`
	Sent       int64  `json:"sent"`
	OK         int64  `json:"ok"`
	Shed429    int64  `json:"shed_429"`
	Expired503 int64  `json:"expired_503"`
	Timeout504 int64  `json:"timeout_504"`
	NotFound   int64  `json:"not_found_404"`
	Failed     int64  `json:"failed"`
	P50Micros  int64  `json:"p50_micros"`
	P99Micros  int64  `json:"p99_micros"`
}

// Report is the BENCH_load.json artifact.
type Report struct {
	Seed     int64       `json:"seed"`
	Workers  int         `json:"workers"` // GOMAXPROCS at run time
	Corpus   string      `json:"corpus,omitempty"`
	Docs     int         `json:"docs,omitempty"`
	Elements int         `json:"elements,omitempty"`
	Arms     []ArmReport `json:"arms"`
}

// algoLabel maps the query parameter spelling to the engine's metric
// label (Algorithm.String()), of which every served name is the lower-case
// form (TestAlgoLabelMatchesEngine).
func algoLabel(algo string) string { return strings.ToUpper(algo) }

// BuildArmReport condenses a raw run into the published arm report.
func BuildArmReport(res *ArmResult) ArmReport {
	s := res.Spec
	a := ArmReport{
		Arm: s.Name, Kind: s.Kind, Arrival: s.Arrival, Algo: s.Algo,
		TopM: s.TopM, Seed: res.Seed, ZipfS: s.ZipfS, Vocab: s.Vocab,
		TargetRPS:    s.RPS,
		DurationSecs: s.Duration.Seconds(),
		Sent:         res.Counts.Sent,
		OK:           res.Counts.OK,
		Shed429:      res.Counts.Shed429,
		Expired503:   res.Counts.Expired503,
		Timeout504:   res.Counts.Timeout504,
		NotFound:     res.Counts.NotFound,
		Failed:       res.Counts.Failed,
		Dropped:      res.Counts.Dropped,
	}
	if res.Wall > 0 {
		a.AchievedRPS = float64(res.Counts.Sent) / res.Wall.Seconds()
	}
	if n := len(res.SearchMicros); n > 0 {
		a.P50Micros = obs.Percentile(res.SearchMicros, 0.50)
		a.P90Micros = obs.Percentile(res.SearchMicros, 0.90)
		a.P99Micros = obs.Percentile(res.SearchMicros, 0.99)
		a.P999Micros = obs.Percentile(res.SearchMicros, 0.999)
		a.MaxMicros = obs.Percentile(res.SearchMicros, 1)
		var sum int64
		for _, v := range res.SearchMicros {
			sum += v
		}
		a.MeanMicros = sum / int64(n)
	}
	if n := len(res.UpdateMicros); n > 0 {
		a.UpdateOK = int64(n)
		a.UpdateP99Micros = obs.Percentile(res.UpdateMicros, 0.99)
	}
	if res.ServerTimed > 0 {
		a.ServerQueueMeanMicros = res.ServerQueueMicros / res.ServerTimed
		a.ServerSearchMeanMicros = res.ServerSearchMicros / res.ServerTimed
	}
	if res.Searches > 0 {
		a.ShedRate = float64(res.Counts.Shed429) / float64(res.Searches)
	}
	if res.MetricsBefore != nil && res.MetricsAfter != nil {
		hits := FamilyDelta(res.MetricsBefore, res.MetricsAfter, "xrank_cache_result_hits_total")
		misses := FamilyDelta(res.MetricsBefore, res.MetricsAfter, "xrank_cache_result_misses_total")
		if hits+misses > 0 {
			a.CacheHitRate = hits / (hits + misses)
		}
		queries := FamilyDelta(res.MetricsBefore, res.MetricsAfter, "xrank_queries_total")
		coalesced := FamilyDelta(res.MetricsBefore, res.MetricsAfter, "xrank_coalesced_queries_total")
		degraded := FamilyDelta(res.MetricsBefore, res.MetricsAfter, "xrank_degraded_queries_total")
		if queries > 0 {
			a.CoalesceRate = coalesced / queries
			a.DegradedRate = degraded / queries
		}
		lat := HistogramDelta(res.MetricsBefore, res.MetricsAfter,
			"xrank_query_latency_seconds", `algo="`+algoLabel(s.Algo)+`"`)
		if lat.Count > 0 {
			qs := lat.Quantiles(0.5, 0.99)
			a.EngineP50Micros = int64(qs[0] * 1e6)
			a.EngineP99Micros = int64(qs[1] * 1e6)
		}
	}
	for _, tr := range res.Targets {
		a.Targets = append(a.Targets, TargetReport{
			URL: tr.URL, Sent: tr.Counts.Sent, OK: tr.Counts.OK,
			Shed429: tr.Counts.Shed429, Expired503: tr.Counts.Expired503,
			Timeout504: tr.Counts.Timeout504, NotFound: tr.Counts.NotFound,
			Failed:    tr.Counts.Failed,
			P50Micros: obs.Percentile(tr.SearchMicros, 0.50),
			P99Micros: obs.Percentile(tr.SearchMicros, 0.99),
		})
	}
	return a
}

// WriteJSON writes the report to path, indented.
func (r *Report) WriteJSON(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// csvHeader is the column order of the CSV report; one row per arm.
// The trailing target_* columns attribute a multi-target arm per base
// URL as pipe-joined lists (aligned with target_urls); a single-target
// arm leaves them empty.
var csvHeader = []string{
	"arm", "kind", "arrival", "algo", "top_m", "seed",
	"target_rps", "achieved_rps", "duration_secs",
	"sent", "ok", "shed_429", "expired_503", "timeout_504", "not_found_404", "failed", "dropped_client",
	"p50_micros", "p90_micros", "p99_micros", "p999_micros", "mean_micros", "max_micros",
	"update_ok", "update_p99_micros",
	"server_queue_mean_micros", "server_search_mean_micros",
	"engine_p50_micros", "engine_p99_micros",
	"shed_rate", "cache_hit_rate", "coalesce_rate", "degraded_rate",
	"targets", "target_urls", "target_sent", "target_ok", "target_backpressure", "target_failed", "target_p99_micros",
}

// targetColumns renders the pipe-joined attribution cells for one arm.
func targetColumns(targets []TargetReport) []string {
	n := len(targets)
	if n == 0 {
		n = 1
	}
	cols := []string{strconv.Itoa(n), "", "", "", "", "", ""}
	if len(targets) == 0 {
		return cols
	}
	join := func(pick func(TargetReport) string) string {
		parts := make([]string, len(targets))
		for i, tr := range targets {
			parts[i] = pick(tr)
		}
		return strings.Join(parts, "|")
	}
	d := func(v int64) string { return strconv.FormatInt(v, 10) }
	cols[1] = join(func(tr TargetReport) string { return tr.URL })
	cols[2] = join(func(tr TargetReport) string { return d(tr.Sent) })
	cols[3] = join(func(tr TargetReport) string { return d(tr.OK) })
	cols[4] = join(func(tr TargetReport) string { return d(tr.Shed429 + tr.Expired503 + tr.Timeout504) })
	cols[5] = join(func(tr TargetReport) string { return d(tr.Failed) })
	cols[6] = join(func(tr TargetReport) string { return d(tr.P99Micros) })
	return cols
}

// WriteCSV writes the percentile report as CSV, one row per arm.
func (r *Report) WriteCSV(out io.Writer) error {
	w := csv.NewWriter(out)
	if err := w.Write(csvHeader); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }
	d := func(v int64) string { return strconv.FormatInt(v, 10) }
	for _, a := range r.Arms {
		row := []string{
			a.Arm, a.Kind, a.Arrival, a.Algo, strconv.Itoa(a.TopM), d(a.Seed),
			f(a.TargetRPS), f(a.AchievedRPS), f(a.DurationSecs),
			d(a.Sent), d(a.OK), d(a.Shed429), d(a.Expired503), d(a.Timeout504), d(a.NotFound), d(a.Failed), d(a.Dropped),
			d(a.P50Micros), d(a.P90Micros), d(a.P99Micros), d(a.P999Micros), d(a.MeanMicros), d(a.MaxMicros),
			d(a.UpdateOK), d(a.UpdateP99Micros),
			d(a.ServerQueueMeanMicros), d(a.ServerSearchMeanMicros),
			d(a.EngineP50Micros), d(a.EngineP99Micros),
			f(a.ShedRate), f(a.CacheHitRate), f(a.CoalesceRate), f(a.DegradedRate),
		}
		row = append(row, targetColumns(a.Targets)...)
		if err := w.Write(row); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}

// ReadReport loads a BENCH_load.json artifact.
func ReadReport(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("loadgen: parse %s: %w", path, err)
	}
	return &r, nil
}

// DefaultSLORatio is the tolerated p99 growth before the CI gate fails:
// the median across arms of new/baseline accepted-p99 ratios must stay
// at or below it. Tail latency on shared runners is noisier than the
// mean the shard guard uses, so the bar sits higher (2.5x) — the gate
// exists to catch step-function regressions (a lock added on the hot
// path, an accidental O(n) scan), not 20% drift.
const DefaultSLORatio = 2.5

// SLOResult is the verdict of one baseline comparison.
type SLOResult struct {
	Arms        []string  // arms compared, in the current report's order
	Ratios      []float64 // per-arm current/baseline accepted-p99 ratios
	MedianRatio float64
	Threshold   float64
	Regressed   bool
}

func (s *SLOResult) String() string {
	msg := fmt.Sprintf("median p99 ratio %.3f over arms %v (threshold %.2f)",
		s.MedianRatio, s.Arms, s.Threshold)
	if s.Regressed {
		return "REGRESSION: " + msg
	}
	return "ok: " + msg
}

// CompareReports gates a fresh load report against a committed
// baseline: for every arm name present in both, the ratio of accepted-
// request p99s, failing when the median ratio exceeds threshold
// (<=0 means DefaultSLORatio). An error means the reports cannot be
// compared at all — which should also fail the gate, loudly.
func CompareReports(baseline, current *Report, threshold float64) (*SLOResult, error) {
	if threshold <= 0 {
		threshold = DefaultSLORatio
	}
	if len(baseline.Arms) == 0 {
		return nil, fmt.Errorf("loadgen: baseline report has no arms")
	}
	base := make(map[string]int64, len(baseline.Arms))
	for _, a := range baseline.Arms {
		base[a.Arm] = a.P99Micros
	}
	s := &SLOResult{Threshold: threshold}
	for _, a := range current.Arms {
		b, ok := base[a.Arm]
		if !ok {
			continue
		}
		if b <= 0 || a.P99Micros <= 0 {
			return nil, fmt.Errorf("loadgen: non-positive p99 for arm %s (baseline %dµs, current %dµs)",
				a.Arm, b, a.P99Micros)
		}
		s.Arms = append(s.Arms, a.Arm)
		s.Ratios = append(s.Ratios, float64(a.P99Micros)/float64(b))
	}
	if len(s.Ratios) == 0 {
		return nil, fmt.Errorf("loadgen: no arms in common between baseline and current report")
	}
	sorted := append([]float64(nil), s.Ratios...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		s.MedianRatio = sorted[mid]
	} else {
		s.MedianRatio = (sorted[mid-1] + sorted[mid]) / 2
	}
	s.Regressed = s.MedianRatio > threshold
	return s, nil
}

// CheckOverload verifies the overload arm demonstrated admission
// control doing its job: the server visibly shed (429s observed) while
// the requests it *did* accept stayed within the absolute SLO — load
// shedding that protects nobody is indistinguishable from an outage.
func CheckOverload(a ArmReport, p99SLO time.Duration) error {
	if a.Kind != KindOverload {
		return fmt.Errorf("loadgen: arm %s is %s, not overload", a.Arm, a.Kind)
	}
	if a.Shed429 == 0 {
		return fmt.Errorf("loadgen: overload arm %s shed nothing (sent %d, ok %d) — target not saturated, raise the rate multiple or lower -max-inflight",
			a.Arm, a.Sent, a.OK)
	}
	if a.OK == 0 {
		return fmt.Errorf("loadgen: overload arm %s accepted nothing (sent %d, shed %d) — shedding everything is an outage, not admission control",
			a.Arm, a.Sent, a.Shed429)
	}
	if got := time.Duration(a.P99Micros) * time.Microsecond; got > p99SLO {
		return fmt.Errorf("loadgen: overload arm %s accepted-request p99 %v exceeds SLO %v", a.Arm, got, p99SLO)
	}
	return nil
}
