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
	Bytes uint32 // total encoded bytes including length prefixes and padding skips
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

// postCursor iterates a term's list sequentially, pinning one page at a
// time. It is the scan primitive behind DIL merges and RDIL round-robin
// reads.
type postCursor struct {
	pool *storage.BufferPool
	loc  Loc
	ec   *storage.ExecContext // per-query attribution/cancellation; may be nil
	scan bool                 // full-list scan: pages enter the pool cold

	frame *storage.Frame
	page  storage.PageID
	off   int
	read  uint32 // entries consumed so far
	told  uint32 // of those, how many ec.CountPostings has been told about
	body  []byte // current entry body (aliases the pinned frame)
}

func newPostCursor(pool *storage.BufferPool, loc Loc, ec *storage.ExecContext, scan bool) *postCursor {
	return &postCursor{pool: pool, loc: loc, ec: ec, scan: scan, page: loc.Page, off: int(loc.Off)}
}

// getPage pins page id for a cursor: cold for a full-list scan, LRU
// otherwise.
func getPage(pool *storage.BufferPool, ec *storage.ExecContext, id storage.PageID, scan bool) (*storage.Frame, error) {
	if scan {
		return pool.GetScanExec(ec, id)
	}
	return pool.GetExec(ec, id)
}

// next advances to the next entry, returning false at the end of the list.
// The returned body aliases the pinned page and is valid until the
// following next/close call.
func (c *postCursor) next() (bool, error) {
	if c.read >= c.loc.Count {
		c.close()
		return false, nil
	}
	for {
		if c.frame == nil {
			fr, err := getPage(c.pool, c.ec, c.page, c.scan)
			if err != nil {
				return false, err
			}
			c.frame = fr
		}
		if c.off+entryLenSize > storage.PageSize {
			c.advancePage()
			continue
		}
		ln := binary.LittleEndian.Uint16(c.frame.Data[c.off:])
		if ln == padEntry {
			c.advancePage()
			continue
		}
		start := c.off + entryLenSize
		end := start + int(ln)
		if end > storage.PageSize {
			c.close()
			return false, fmt.Errorf("index: corrupt entry length %d at page %d off %d", ln, c.page, c.off)
		}
		c.body = c.frame.Data[start:end]
		c.off = end
		c.read++
		return true, nil
	}
}

func (c *postCursor) advancePage() {
	c.close()
	c.page++
	c.off = 0
}

// close releases the pinned page and reports the entries consumed since
// the last report (once per page, so the entry loop stays lock-free).
// Safe to call repeatedly.
func (c *postCursor) close() {
	if c.frame != nil {
		c.frame.Release()
		c.frame = nil
	}
	c.ec.CountPostings(int64(c.read - c.told))
	c.told = c.read
}

// exhausted reports whether the cursor has consumed its whole list.
func (c *postCursor) exhausted() bool { return c.read >= c.loc.Count }
