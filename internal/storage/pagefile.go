// Package storage provides the disk substrate for XRANK's index
// structures: a page-based file manager, a pinning LRU buffer pool, and
// I/O accounting with a calibrated cost model.
//
// The paper's experiments (Section 5.1) run with a cold operating-system
// cache on a 2003-era disk, so relative query costs are dominated by how
// many pages are touched and whether access is sequential (inverted-list
// scans in DIL) or random (Dewey probes in RDIL). The Stats/CostModel
// pair reproduces exactly that distinction: every page read is classified
// as sequential or random, and SimulatedTime converts counts into a
// device-independent time estimate so the experiment *shapes* (who wins,
// where the crossovers are) match the paper's even though the absolute
// hardware differs.
package storage

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// PageSize is the fixed size of every page in a PageFile.
const PageSize = 8192

// PageID identifies a page within a PageFile.
type PageID uint32

// InvalidPage is a sentinel PageID that never refers to a real page.
const InvalidPage = PageID(^uint32(0))

// ErrIO marks device-level I/O failures (as opposed to cancellation,
// budget exhaustion, or semantic errors). The query layer treats a shard
// failure as retryable — and a shard as degradable — only when its error
// wraps ErrIO: a device can recover or be routed around, a semantic
// error would just recur on every shard.
var ErrIO = errors.New("I/O error")

// PageFile is a file organized as an array of fixed-size pages. It is safe
// for concurrent use. It keeps no I/O counters: a read is charged to the
// ExecContext of the query that makes it.
type PageFile struct {
	mu       sync.Mutex // serializes appends
	fs       FS
	f        File
	path     string
	numPages atomic.Uint32
}

// CreatePageFileFS creates (truncating) a page file at path on fs
// (nil = the real file system).
func CreatePageFileFS(fs FS, path string) (*PageFile, error) {
	fs = DefaultFS(fs)
	f, err := fs.Create(path)
	if err != nil {
		return nil, fmt.Errorf("storage: create %s: %w", path, err)
	}
	return &PageFile{fs: fs, f: f, path: path}, nil
}

// OpenPageFileFS opens an existing page file read-write on fs (nil = the
// real file system).
func OpenPageFileFS(fs FS, path string) (*PageFile, error) {
	fs = DefaultFS(fs)
	st, err := fs.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("storage: stat %s: %w", path, err)
	}
	if st.Size()%PageSize != 0 {
		return nil, fmt.Errorf("storage: %s size %d is not a multiple of the page size", path, st.Size())
	}
	f, err := fs.Open(path)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	pf := &PageFile{fs: fs, f: f, path: path}
	pf.numPages.Store(uint32(st.Size() / PageSize))
	return pf, nil
}

// Path returns the file path.
func (pf *PageFile) Path() string { return pf.path }

// NumPages returns the current number of pages.
func (pf *PageFile) NumPages() uint32 { return pf.numPages.Load() }

// ReadPageExec reads page id into buf, which must be at least PageSize
// long. The read is attributed to the per-query execution context ec
// (nil for none), which classifies it as sequential or random and
// refuses it — before touching the device — when ec is cancelled, past
// its deadline, or over its page-read budget.
func (pf *PageFile) ReadPageExec(ec *ExecContext, id PageID, buf []byte) error {
	if len(buf) < PageSize {
		return fmt.Errorf("storage: read buffer too small (%d)", len(buf))
	}
	if err := ec.pageRead(id); err != nil {
		return err
	}
	if n := pf.NumPages(); uint32(id) >= n {
		return fmt.Errorf("storage: read of page %d beyond end (%d pages)", id, n)
	}
	_, err := pf.f.ReadAt(buf[:PageSize], int64(id)*PageSize)
	if err != nil {
		return fmt.Errorf("storage: read page %d of %s: %w: %w", id, pf.path, ErrIO, err)
	}
	return nil
}

// AppendPage appends buf as a new page and returns its ID. The page count
// advances only after the write succeeds, so a failed
// append leaves no phantom page behind — the file size stays a multiple
// of PageSize and a reopen sees exactly the pages that were written.
func (pf *PageFile) AppendPage(buf []byte) (PageID, error) {
	if len(buf) < PageSize {
		return 0, fmt.Errorf("storage: append buffer too small (%d)", len(buf))
	}
	pf.mu.Lock()
	defer pf.mu.Unlock()
	id := PageID(pf.numPages.Load())
	if _, err := pf.f.WriteAt(buf[:PageSize], int64(id)*PageSize); err != nil {
		return 0, fmt.Errorf("storage: append page to %s: %w: %w", pf.path, ErrIO, err)
	}
	pf.numPages.Add(1)
	return id, nil
}

// Size returns the file size in bytes.
func (pf *PageFile) Size() int64 { return int64(pf.NumPages()) * PageSize }

// Checksum streams the file and returns its size and CRC-32C, for
// recording in a manifest at build time. Call after Sync, before any
// further writes.
func (pf *PageFile) Checksum() (FileSum, error) {
	return ChecksumFile(pf.fs, pf.path)
}

// Sync flushes the file to stable storage.
func (pf *PageFile) Sync() error { return pf.f.Sync() }

// Close closes the underlying file.
func (pf *PageFile) Close() error { return pf.f.Close() }
