package xrank

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"xrank/internal/storage"
	"xrank/internal/suggest"
	"xrank/internal/text"
	"xrank/internal/xmldoc"
)

// Prefix autosuggest. Each segment carries a radix-trie dictionary over
// the terms of its documents, weighted by ElemRank-weighted term
// frequency: every occurrence of a term contributes the ElemRank of its
// containing element, so completions surface the terms that dominate
// highly ranked elements rather than merely frequent ones. The trie is
// built alongside the segment's index — under the same rank version —
// and persisted as suggest.bin through the checksummed-blob protocol
// before the manifest commit, so the usual crash argument applies: a
// half-written trie is an orphan no manifest references.
//
// Query-time, Suggest merges the per-segment tries under the snapshot
// read lock with a synchronized best-first search (suggest.TopK),
// summing each term's score across segments — exactly what one trie
// over the union dictionary would return. Two deliberate deviations
// from the search path's semantics, both deterministic and documented
// in DESIGN.md:
//
//   - DeleteDoc does not touch the tries: a tombstoned document's
//     contributions persist until a full Update/rebuild, mirroring the
//     paper's Section 4.5 treatment (deletion space is reclaimed only
//     by rebuild) — and compaction keeps tombstoned documents for df
//     invariance, so the merged trie is built over the same corpus.
//   - A stale segment's trie keeps the ElemRank weights it was baked
//     under (queries do not substitute current ranks the way postings
//     merges do); suggestion weights are a ranking signal, not a score
//     the differential harness compares against search.

// fileSuggest is the per-segment suggest dictionary blob, living next
// to the segment's index files.
const fileSuggest = "suggest.bin"

// suggestMagic identifies suggest.bin's blob type ("SUGG").
const suggestMagic = 0x47475553

// DefaultSuggestK is the completion count when the caller passes k <= 0.
const DefaultSuggestK = 8

// suggestMaxK caps the completion count of one Suggest call.
const suggestMaxK = 50

// Suggestion is one autosuggest completion.
type Suggestion = suggest.Suggestion

// suggestTrie aliases the trie type so segment.go can carry it without
// importing the package.
type suggestTrie = suggest.Trie

// SuggestStats describes one Suggest call.
type SuggestStats struct {
	// Prefix is the normalized prefix actually completed (the last
	// token of the raw input under index tokenization rules).
	Prefix string `json:"prefix"`
	// Terms is the merged dictionary size searched (summed across
	// segments; a term present in several segments counts once each).
	Terms int `json:"terms"`
	// NodesVisited counts best-first expansions — the pruning
	// effectiveness measure.
	NodesVisited int `json:"nodes_visited"`
	// WallTime is the end-to-end completion time.
	WallTime time.Duration `json:"wall_ns"`
}

// Suggest returns the top-k completions of the prefix in q, scored by
// ElemRank-weighted term frequency and ordered score-descending with
// ties broken by term. q is folded through the index tokenizer
// (text.NormalizePrefix): its last token is the prefix being completed,
// so "ranked key" completes "key". k <= 0 selects DefaultSuggestK;
// k above 50 is clamped. An empty
// normalized prefix returns the top terms of the whole dictionary.
func (e *Engine) Suggest(q string, k int) ([]Suggestion, *SuggestStats, error) {
	if !e.built {
		return nil, nil, fmt.Errorf("xrank: Suggest before Build")
	}
	if k <= 0 {
		k = DefaultSuggestK
	}
	if k > suggestMaxK {
		k = suggestMaxK
	}
	prefix := text.NormalizePrefix(q)
	t0 := time.Now()

	e.snapMu.RLock()
	tries := make([]*suggest.Trie, 0, len(e.segs))
	terms := 0
	for _, s := range e.segs {
		if s.sug != nil {
			tries = append(tries, s.sug)
			terms += s.sug.Terms()
		}
	}
	res, sst := suggest.TopK(tries, prefix, k)
	e.snapMu.RUnlock()

	st := &SuggestStats{
		Prefix:       prefix,
		Terms:        terms,
		NodesVisited: sst.NodesVisited,
		WallTime:     time.Since(t0),
	}
	e.met.suggestQueries.Inc()
	e.met.suggestNodes.Add(int64(sst.NodesVisited))
	if len(res) == 0 {
		e.met.suggestEmpty.Inc()
	}
	return res, st, nil
}

// SuggestTerms returns the merged dictionary size (segments without a
// dictionary count 0; see openSegment).
func (e *Engine) SuggestTerms() int {
	e.snapMu.RLock()
	defer e.snapMu.RUnlock()
	terms := 0
	for _, s := range e.segs {
		terms += s.sug.Terms()
	}
	return terms
}

// buildSegmentSuggest builds the suggest dictionary for one segment:
// every token occurrence of every element of the segment's documents
// contributes its element's ElemRank to the term's weight. Element
// tokens are exactly what the inverted indexes are built from, so the
// suggest dictionary and the search lexicon agree by construction.
func buildSegmentSuggest(col *xmldoc.Collection, ranks []float64, docs []uint32) *suggest.Trie {
	b := suggest.NewBuilder()
	for _, id := range docs {
		d := col.Docs[id]
		for _, el := range d.Elements {
			w := ranks[col.GlobalIndex(el)]
			for _, tok := range el.Tokens {
				b.Add(tok.Term, w)
			}
		}
	}
	return b.Build()
}

// writeSegmentSuggest persists a segment's trie as an inert artifact
// (callers write it before their manifest commit point).
func (e *Engine) writeSegmentSuggest(segPath string, tr *suggest.Trie) error {
	return storage.WriteBlobAtomic(e.fs(), filepath.Join(segPath, fileSuggest), suggestMagic, tr.Marshal())
}

// loadSegmentSuggest reopens a segment's trie, verifying the blob
// envelope and every structural invariant. Every segment is committed
// with its suggest.bin, so a missing file is corruption like a damaged
// one, unless optional: a directory built with suggestions disabled
// (openSegment), whose segment then has no dictionary (nil).
func loadSegmentSuggest(fs storage.FS, segPath string, optional bool) (*suggest.Trie, error) {
	payload, err := storage.ReadBlob(fs, filepath.Join(segPath, fileSuggest), suggestMagic)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			if optional {
				return nil, nil
			}
			return nil, fmt.Errorf("%w: %v", storage.ErrCorrupt, err)
		}
		return nil, err
	}
	tr, err := suggest.Unmarshal(payload)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", fileSuggest, err)
	}
	return tr, nil
}

// updateSuggestGauge refreshes the dictionary-size gauge from the live
// segments. Callers hold snapMu (read or write).
func (e *Engine) updateSuggestGauge() {
	var terms int64
	for _, s := range e.segs {
		terms += int64(s.sug.Terms())
	}
	e.met.suggestTerms.Set(terms)
}
