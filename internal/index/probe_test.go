package index

import (
	"math/rand"
	"testing"

	"xrank/internal/dewey"
	"xrank/internal/storage"
)

// probeFixture is TestMultiPageListAndProbers' index and the reference
// for its one 3,000-entry list, "common", which spans many blocks.
func probeFixture(tb testing.TB) (*Index, []Posting) {
	c, _, ix := buildTestIndex(tb, bigCorpus(3000), BuildOptions{MinRankPrefix: 8, RankFraction: 0.05})
	want := referencePostings(c)["common"]
	if len(want) != 3000 {
		tb.Fatalf("reference has %d entries", len(want))
	}
	return ix, want
}

// lcpTargets draws n ProbeLCP targets around the entries of want, in
// turn: an existing ID, a sibling path, a deeper path and an ID in a
// document the list does not reach.
func lcpTargets(r *rand.Rand, want []Posting, n int) []dewey.ID {
	out := make([]dewey.ID, n)
	for trial := range out {
		var target dewey.ID
		switch trial % 4 {
		case 0: // exact existing ID
			target = want[r.Intn(len(want))].ID.Clone()
		case 1: // sibling path
			target = want[r.Intn(len(want))].ID.Clone()
			target[len(target)-1] += uint32(r.Intn(3)) + 1
		case 2: // deeper path
			target = want[r.Intn(len(want))].ID.Child(uint32(r.Intn(5)))
		default: // other document
			target = dewey.ID{uint32(r.Intn(3) + 5), uint32(r.Intn(4))}
		}
		out[trial] = target
	}
	return out
}

// scanPrefixes draws n ScanPrefix prefixes: a random cut of an entry's ID.
func scanPrefixes(r *rand.Rand, want []Posting, n int) []dewey.ID {
	out := make([]dewey.ID, n)
	for trial := range out {
		base := want[r.Intn(len(want))].ID
		out[trial] = base[:1+r.Intn(len(base))].Clone()
	}
	return out
}

// itemPrefixes draws n ScanPrefix prefixes one level above an entry, the
// shape of an evaluation's candidate ancestor: a scan returns one or a
// few entries after stepping over the block's entries before them.
func itemPrefixes(want []Posting, n int) []dewey.ID {
	out := make([]dewey.ID, n)
	for i := range out {
		id := want[(i*7919)%len(want)].ID
		out[i] = id[:len(id)-1].Clone()
	}
	return out
}

// benchProbes runs probe b.N times on a warm prober over the fixture's
// list and reports the entries the probes stepped per call — what they
// charge to the query's Postings count — and the time per such entry.
func benchProbes(b *testing.B, ix *Index, probe func(pr *Prober, i int) error) {
	ec := storage.NewExecContext(nil)
	pr, _ := ix.ProberExec(ec, "common")
	for i := 0; i < 256; i++ { // every page resident, every buffer grown
		if err := probe(pr, i); err != nil {
			b.Fatal(err)
		}
	}
	before := ec.Stats().Postings
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := probe(pr, i); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	stepped := ec.Stats().Postings - before
	b.ReportMetric(float64(stepped)/float64(b.N), "entries/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(stepped, 1)), "ns/entry")
}

// BenchmarkProbeLCP is RDIL's and HDIL's Dewey probe (Figure 7's
// getLongestCommonPrefix) on a warm list: a skip-index search, then a
// step through the candidate block up to the target.
func BenchmarkProbeLCP(b *testing.B) {
	ix, want := probeFixture(b)
	targets := lcpTargets(rand.New(rand.NewSource(3)), want, 256)
	benchProbes(b, ix, func(pr *Prober, i int) error {
		n, err := pr.ProbeLCP(targets[i%len(targets)])
		probeSink += n
		return err
	})
}

// BenchmarkScanPrefix is the evaluation's scan below a candidate
// ancestor on a warm list: it steps to the first entry under the prefix
// and decodes the entries it returns.
func BenchmarkScanPrefix(b *testing.B) {
	ix, want := probeFixture(b)
	prefixes := itemPrefixes(want, 256)
	count := func(p *Posting) error { probeSink += len(p.Positions); return nil }
	benchProbes(b, ix, func(pr *Prober, i int) error {
		return pr.ScanPrefix(prefixes[i%len(prefixes)], count)
	})
}

var probeSink int

// TestProberAllocs is the gate that keeps allocation out of the probes:
// once the decoder pool and the prober's buffers are warm, neither
// ProbeLCP nor ScanPrefix allocates, however many entries it steps over.
func TestProberAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	ix, want := probeFixture(t)
	pr, _ := ix.ProberExec(storage.NewExecContext(nil), "common")
	targets := lcpTargets(rand.New(rand.NewSource(5)), want, 64)
	prefixes := itemPrefixes(want, 64)
	count := func(p *Posting) error { probeSink += len(p.Positions); return nil }
	probe := func() {
		for i := range targets {
			if _, err := pr.ProbeLCP(targets[i]); err != nil {
				t.Fatal(err)
			}
			if err := pr.ScanPrefix(prefixes[i], count); err != nil {
				t.Fatal(err)
			}
		}
	}
	probe()
	if a := testing.AllocsPerRun(10, probe); a != 0 {
		t.Errorf("%d warm ProbeLCP and ScanPrefix calls allocated %v times", len(targets), a)
	}
}
