package xrank

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"sort"

	"xrank/internal/storage"
)

// Document-granularity updates (Section 4.5). The paper handles adding
// and deleting whole documents "exactly like in traditional inverted
// lists": deletions take effect immediately through document-ID
// tombstones (the first Dewey component identifies the document), and
// additions are folded in by rebuilding the indexes from the document
// store — the classic batch/merge regime. AddDocs (segment.go) amortizes
// the addition side into immutable delta segments; Update below remains
// the full-rebuild path that also reclaims tombstone space.
// Element-granularity insertion (sparse Dewey renumbering, Tatarinov et
// al. [32]) is future work in the paper as well.

// DeleteDoc tombstones a document: its elements disappear from all query
// results immediately, without touching the index files. The tombstone is
// persisted in segments.json. Space is reclaimed at the next
// Update/rebuild. Under name shadowing (AddDocs replacing a document) the
// newest version of the name is deleted.
//
// Cached results are invalidated per document: only entries whose result
// sets mention the deleted document are evicted, so unrelated hot
// queries keep their cache hits.
func (e *Engine) DeleteDoc(name string) error {
	if !e.built {
		return fmt.Errorf("xrank: DeleteDoc before Build")
	}
	e.updateMu.Lock()
	defer e.updateMu.Unlock()
	d := e.col.DocByName(name)
	if d == nil {
		return fmt.Errorf("xrank: no document %q", name)
	}
	if int(d.ID) >= len(e.docs) {
		return fmt.Errorf("xrank: document %q missing from manifest", name)
	}
	de := &e.docs[d.ID]
	if de.Deleted {
		return fmt.Errorf("xrank: document %q already deleted", name)
	}
	de.Deleted = true
	e.mu.Lock()
	e.deleted[d.ID] = true
	e.mu.Unlock()
	// Evict only the cached results that mention this document — after
	// the tombstone is visible, so a racing query that misses from here
	// on filters the document. A store racing with the eviction is
	// caught by the serve-time liveness check (docsLive in search.go).
	e.invalidateDocResults(name)
	return e.commitSegments(e.nextSeg, e.rankVer, e.rank.crc, e.docs, e.segs)
}

// invalidateDocResults drops every result-cache entry whose result set
// mentions the named document. Entries of unknown shape are evicted
// defensively.
func (e *Engine) invalidateDocResults(name string) {
	if e.rcache == nil {
		return
	}
	n := e.rcache.EvictMatching(func(_ string, val any) bool {
		fv, ok := val.(*flightEntry)
		if !ok {
			return true
		}
		for _, d := range fv.docs {
			if d == name {
				return true
			}
		}
		return false
	})
	if n > 0 {
		e.met.resultEvictions.Add(int64(n))
	}
	cs := e.rcache.Stats()
	e.met.resultBytes.Set(cs.Bytes)
	e.met.resultEntries.Set(int64(cs.Entries))
}

// DeletedDocs returns the names of tombstoned documents.
func (e *Engine) DeletedDocs() []string {
	// DeleteDoc marks e.docs under updateMu alone, and AddDocs swaps the
	// manifest and collection holding it too.
	e.updateMu.Lock()
	defer e.updateMu.Unlock()
	var out []string
	seen := make(map[string]bool)
	for _, d := range e.docs {
		if d.Deleted && !seen[d.Name] {
			// Under shadowing the name may appear again as a live newer
			// version; only report names with no live version.
			if live := e.col.DocByName(d.Name); live != nil && !e.docs[live.ID].Deleted {
				continue
			}
			seen[d.Name] = true
			out = append(out, d.Name)
		}
	}
	return out
}

// Update builds a new engine in dir containing this engine's live
// (non-tombstoned) documents plus the given additions, reading the
// existing documents from the document store. The receiver remains usable
// and unchanged. add maps new document names to their content; names
// ending in .html are parsed as HTML. Unlike AddDocs this is a full
// rebuild: it reclaims the space of tombstoned and shadowed documents.
func (e *Engine) Update(dir string, add map[string]io.Reader) (*Engine, error) {
	if !e.built {
		return nil, fmt.Errorf("xrank: Update before Build")
	}
	if dir == e.cfg.IndexDir {
		return nil, fmt.Errorf("xrank: Update target must differ from the current index directory")
	}
	// AddDocs and DeleteDoc replace the store under updateMu, so Update
	// holds it: queries do not take it.
	e.updateMu.Lock()
	defer e.updateMu.Unlock()
	cfg := e.cfg
	cfg.IndexDir = dir
	ne := NewEngine(&cfg)
	fs := e.fs()
	for i := range e.docs {
		d := &e.docs[i]
		if d.Deleted {
			continue
		}
		// Under shadowing only the newest version of a name is live.
		if cur := e.col.DocByName(d.Name); cur == nil || int(cur.ID) != i {
			continue
		}
		// Read back through storage.FS so fault injection covers the
		// document-store read path, and verify against the manifest's
		// checksum before reparsing.
		data, err := fs.ReadFile(filepath.Join(e.cfg.IndexDir, "docs", d.File))
		if err != nil {
			return nil, fmt.Errorf("xrank: document store: %w", err)
		}
		if int64(len(data)) != d.Size || storage.Checksum(data) != d.CRC32 {
			return nil, fmt.Errorf("xrank: document store: %s: %w", d.File, ErrCorrupt)
		}
		if err := ne.add(d.Name, bytes.NewReader(data), d.HTML); err != nil {
			return nil, err
		}
	}
	// Sort added names for deterministic document IDs.
	names := make([]string, 0, len(add))
	for n := range add {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if err := ne.add(n, add[n], isHTMLName(n)); err != nil {
			return nil, err
		}
	}
	if _, err := ne.Build(); err != nil {
		return nil, err
	}
	return ne, nil
}
