package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"xrank"
)

// pinnedStreams are the SHA-256 of -dump's output (1000 requests per
// client, seed 1) per workload: the request stream of a (workload, seed)
// pair is byte-identical on every commit and every machine. A change here
// is a change of workload and makes numbers before and after incomparable.
var pinnedStreams = map[string]string{
	"search.hicorr": "f681c3d06b8bf15876638b5bfbc90c1f2a2a721e1c9341189530827623d154cd",
	"search.locorr": "b2beed2aa21760c5d77434f87496c197aa3822dec0d7aa253858a4c920a7f446",
	"search.zipf":   "3529c165f028ff3fcb22360b173510135baef58a6cb4e2015bccf6e2b53ff5ed",
	"ingest.mixed":  "8b711a3758d01ed3b624e7c2015b0aca3a0f5c3018a8b46588925c245c447768",
}

func dumpOf(t *testing.T, w *workload, seed int64) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := dumpStreams(&b, w, fullSizes, seed); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestRequestStreamsSeeded(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		one := dumpOf(t, w, 1)
		if !bytes.Equal(one, dumpOf(t, w, 1)) {
			t.Errorf("%s: two dumps of seed 1 differ", w.name)
		}
		if bytes.Equal(one, dumpOf(t, w, 2)) {
			t.Errorf("%s: seeds 1 and 2 send the same requests", w.name)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(one)); got != pinnedStreams[w.name] {
			t.Errorf("%s: stream of seed 1 hashes to %s, pinned %s", w.name, got, pinnedStreams[w.name])
		}
	}
}

func TestCorpusSeeded(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, b, c := w.corpus(tinySizes, 1), w.corpus(tinySizes, 1), w.corpus(tinySizes, 2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two corpora of seed 1 differ", w.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 generate the same corpus", w.name)
		}
	}
	if reflect.DeepEqual(batch(tinySizes, 1, 0), batch(tinySizes, 1, 1)) {
		t.Error("two batches of one seed are the same documents")
	}
}

// TestConfigKeysExist pins that, at this commit, every key of the engine
// configuration literals names a field of xrank.Config: a typo would be
// silently ignored by the decoder and the benchmark would measure the
// default configuration.
func TestConfigKeysExist(t *testing.T) {
	typ := reflect.TypeOf(xrank.Config{})
	for _, lit := range []string{engineJSON, serveJSON} {
		var keys map[string]any
		if err := json.Unmarshal([]byte(lit), &keys); err != nil {
			t.Fatalf("%s: %v", lit, err)
		}
		for k := range keys {
			if _, ok := typ.FieldByName(k); !ok {
				t.Errorf("%s: xrank.Config has no field %s", lit, k)
			}
		}
	}
	cfg, err := engineConfig("d", engineJSON, serveJSON)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.IndexDir != "d" || cfg.Shards != 2 || !cfg.BlockPostings || !cfg.SkipNaive || cfg.CacheBytes != 32<<20 || !cfg.CoalesceQueries {
		t.Errorf("decoded configuration is %+v", cfg)
	}
}

// TestBenchmarkJSONInSync keeps BENCHMARK.json, which the driver reads, and
// the tables of this program, which print and compare, from drifting apart.
func TestBenchmarkJSONInSync(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds float64  `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Command, []string{"bash", "benchmark/run.sh"}) || !reflect.DeepEqual(spec.Paths, []string{"benchmark"}) {
		t.Errorf("command %v, paths %v", spec.Command, spec.Paths)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %s in BENCHMARK.json, %s in the program", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n%+v\n%+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n%+v\n%+v", spec.PerLayer, perLayer)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %g, the -seconds default %d", spec.RunSeconds, defaultSeconds)
	}
}
