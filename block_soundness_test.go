package xrank

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"xrank/internal/query"
)

// TestBlockPruningSoundness is the property test behind block-max
// pruning: every time the threshold algorithm abandons a ranked list
// (query.DebugBlockSkip fires), each block about to be skipped is
// decoded out-of-band and checked against the three facts that make the
// skip exact:
//
//  1. the skip ref's MaxRank upper-bounds the block's true maximum rank
//     (the summary never under-reports, so pruning on it is safe),
//  2. MaxRank is bounded by the last rank consumed from the list (the
//     list really is rank-descending, so everything unread is dominated),
//  3. the stop threshold is at or below the current k-th score (the
//     stopping rule itself held when the skip was taken).
//
// Together these prove no skipped block can contain an entry that would
// change the top-m. The corpus is sized so every keyword's list spans
// several blocks, and the test fails if the hook never fires or never
// sees an unread block — a vacuous pass is a failure.
func TestBlockPruningSoundness(t *testing.T) {
	e := NewEngine(&Config{IndexDir: t.TempDir(), Shards: 2})
	defer e.Close()

	// ~600 docs, every one holding alpha and beta at varying depths so the
	// rank-ordered lists descend through plateaus instead of one flat run.
	for i := 0; i < 600; i++ {
		depth := i % 5
		inner := fmt.Sprintf("<p>alpha beta filler%d</p>", i)
		for d := 0; d < depth; d++ {
			inner = "<sec>" + inner + "</sec>"
		}
		name := fmt.Sprintf("doc%03d.xml", i)
		if err := e.AddXML(name, strings.NewReader("<r>"+inner+"</r>")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Build(); err != nil {
		t.Fatal(err)
	}

	var (
		mu        sync.Mutex
		calls     int
		refsSeen  int
		violation string
	)
	query.DebugBlockSkip = func(info query.BlockSkipInfo) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if violation != "" {
			return
		}
		if info.Threshold > info.KthScore {
			violation = fmt.Sprintf("stop taken with threshold %g above kth score %g",
				info.Threshold, info.KthScore)
			return
		}
		for _, ref := range info.Cursor.RemainingBlockRefs() {
			refsSeen++
			trueMax, err := info.Cursor.DecodeBlockMaxRank(ref)
			if err != nil {
				violation = fmt.Sprintf("decoding a skipped block: %v", err)
				return
			}
			if trueMax > ref.MaxRank {
				violation = fmt.Sprintf("skip ref under-reports: summary MaxRank %g, true max %g",
					ref.MaxRank, trueMax)
				return
			}
			if float64(ref.MaxRank) > info.LastRank {
				violation = fmt.Sprintf("source %d not rank-descending: skipped block MaxRank %g above last consumed rank %g",
					info.Source, ref.MaxRank, info.LastRank)
				return
			}
		}
	}
	defer func() { query.DebugBlockSkip = nil }()

	queries := []struct {
		q    string
		algo Algorithm
	}{
		{"alpha", AlgoRDIL},        // single-keyword top-m cutoff
		{"alpha beta", AlgoRDIL},   // threshold-algorithm stop
		{"alpha beta", AlgoHDIL},   // same stop through the hybrid
		{"beta filler1", AlgoRDIL}, // skewed list lengths
	}
	for _, qc := range queries {
		res, st, err := e.SearchDetailed(qc.q, SearchOptions{Algorithm: qc.algo, TopM: 5})
		if err != nil {
			t.Fatalf("%q: %v", qc.q, err)
		}
		if len(res) == 0 {
			t.Fatalf("%q returned no results", qc.q)
		}
		if st.IO.BlocksDecoded == 0 {
			t.Fatalf("%q decoded no blocks", qc.q)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	if violation != "" {
		t.Fatal(violation)
	}
	if calls == 0 {
		t.Fatal("DebugBlockSkip never fired; the queries exercised no pruning")
	}
	if refsSeen == 0 {
		t.Fatal("no skipped block was audited; every list was read to the end")
	}
	t.Logf("audited %d skipped blocks across %d pruning stops", refsSeen, calls)
}
