package query

import (
	"fmt"

	"xrank/internal/index"
)

// normalizeKeywords deduplicates the query keywords (conjunctive
// semantics make duplicates redundant) while preserving order.
func normalizeKeywords(keywords []string) ([]string, error) {
	if len(keywords) == 0 {
		return nil, fmt.Errorf("query: empty keyword list")
	}
	seen := make(map[string]bool, len(keywords))
	out := keywords[:0:0]
	for _, k := range keywords {
		if k == "" {
			return nil, fmt.Errorf("query: empty keyword")
		}
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out, nil
}

// DIL evaluates the query with the Dewey Inverted List algorithm
// (Figure 5): a single sequential pass over every keyword's Dewey-ordered
// inverted list, merging on the Dewey stack. It returns the top-m results.
func DIL(ix *index.Index, keywords []string, opts Options) ([]Result, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	keywords, err := normalizeKeywords(keywords)
	if err != nil {
		return nil, err
	}
	if err := opts.checkWeights(len(keywords)); err != nil {
		return nil, err
	}
	streams := make([]*postingStream, 0, len(keywords))
	// Any exit — absent keyword, cancellation, budget exhaustion, I/O
	// error — must unpin whatever pages the opened cursors still hold.
	defer func() {
		for _, s := range streams {
			s.close()
		}
	}()
	// Spans: open (cursor setup + first advance per list) and merge (the
	// Dewey-stack loop). An error abandons the in-flight span unrecorded;
	// the engine's error counters carry that signal instead.
	endOpen := opts.Exec.StartSpan("dil.open")
	for _, kw := range keywords {
		cur, ok := ix.DILCursorExec(opts.Exec, kw)
		if !ok {
			// A keyword absent from the corpus empties the conjunction.
			endOpen()
			return nil, nil
		}
		s := &postingStream{cur: cur}
		streams = append(streams, s)
		if err := s.advance(); err != nil {
			return nil, err
		}
	}
	endOpen()
	h := newResultHeap(opts.TopM)
	m := mergerPool.Get().(*merger)
	m.init(streams, opts)
	defer func() {
		m.init(nil, Options{}) // drop the query's streams and options
		mergerPool.Put(m)
	}()
	endMerge := opts.Exec.StartSpan("dil.merge")
	if err := m.run(h.offerCopy); err != nil {
		return nil, err
	}
	endMerge()
	return h.sorted(), nil
}
