package index

import (
	"encoding/binary"
	"fmt"

	"xrank/internal/storage"
)

// Loc addresses the start of a term's list within a postings file.
type Loc struct {
	Page  storage.PageID
	Off   uint16
	Count uint32 // number of entries in the list
	Bytes uint32 // total encoded bytes including length prefixes; page padding is not counted
}

// postWriter streams length-prefixed entries into pages of a PageFile.
// Entries never span pages: when an entry does not fit in the remainder of
// the current page, the remainder is marked as padding and the entry
// starts on the next page.
type postWriter struct {
	pf   *storage.PageFile
	page []byte
	used int
}

func newPostWriter(pf *storage.PageFile) *postWriter {
	return &postWriter{pf: pf, page: make([]byte, storage.PageSize)}
}

// pos returns the location the next entry will be written to.
func (w *postWriter) pos() (storage.PageID, uint16) {
	return storage.PageID(w.pf.NumPages()), uint16(w.used)
}

// writeEntry writes one encoded entry (including its length prefix) and
// returns its location.
func (w *postWriter) writeEntry(entry []byte) (storage.PageID, uint16, error) {
	if len(entry) > storage.PageSize {
		return 0, 0, fmt.Errorf("index: entry of %d bytes exceeds page size", len(entry))
	}
	if w.used+len(entry) > storage.PageSize {
		if err := w.pad(); err != nil {
			return 0, 0, err
		}
	}
	page, off := w.pos()
	copy(w.page[w.used:], entry)
	w.used += len(entry)
	return page, off, nil
}

// pad fills the remainder of the current page with a padding marker and
// flushes it.
func (w *postWriter) pad() error {
	if w.used == 0 {
		return nil
	}
	if w.used+entryLenSize <= storage.PageSize {
		binary.LittleEndian.PutUint16(w.page[w.used:], padEntry)
	}
	for i := w.used + entryLenSize; i < storage.PageSize; i++ {
		w.page[i] = 0
	}
	if _, err := w.pf.AppendPage(w.page); err != nil {
		return err
	}
	w.used = 0
	return nil
}

// flush finalizes the file (pads out the last partial page).
func (w *postWriter) flush() error { return w.pad() }

// getPage pins page id for a cursor: cold for a full-list scan, LRU
// otherwise.
func getPage(pool *storage.BufferPool, ec *storage.ExecContext, id storage.PageID, scan bool) (*storage.Frame, error) {
	if scan {
		return pool.GetScanExec(ec, id)
	}
	return pool.GetExec(ec, id)
}
