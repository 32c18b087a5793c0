package storage

import (
	"fmt"
	"sync"
)

// Frame is a pinned page in the buffer pool. The Data slice is valid until
// Release is called; callers must not retain it afterwards and must not
// mutate it unless they own the page.
type Frame struct {
	ID   PageID
	Data []byte

	pool *BufferPool
	pins int
	// prev and next link the frame into one of the pool's two LRU rings
	// while it is unpinned; both are nil while it is pinned.
	prev, next *Frame
	// cold marks a page that a sequential scan brought in and no point
	// access has touched since; see BufferPool.
	cold bool
}

// Release unpins the frame, making it eligible for eviction once no other
// pins remain. Release is idempotent per pin: call it exactly once per
// GetExec or GetScanExec.
func (fr *Frame) Release() {
	fr.pool.release(fr)
}

// BufferPool caches pages of a PageFile with scan-resistant LRU
// replacement and pin counting. A pinned page is never evicted; queries
// pin the pages they are actively merging (a DIL scan page, the block an
// RDIL probe decodes) and release them as the cursor moves on.
//
// Unpinned pages wait in one of two LRU rings. Pages touched by point
// accesses (GetExec: probes, tree descents, hash lookups) are hot;
// a page first brought in by a sequential scan (GetScanExec) is cold
// until a point access promotes it. Eviction takes the least recently
// used cold page, and a hot page only when no cold one is left: a scan
// longer than the pool recycles the cold frames — in plain LRU order, so
// a pool that only ever scans behaves exactly as it did under one ring —
// and leaves the probe working set resident.
type BufferPool struct {
	mu        sync.Mutex
	pf        *PageFile
	capacity  int
	frames    map[PageID]*Frame
	hot, cold Frame  // ring sentinels: next is the most recently used frame, prev the least
	spare     []byte // the last evicted frame's buffer, reused by the next miss
}

// NewBufferPool wraps pf with a pool of the given page capacity
// (minimum 1).
func NewBufferPool(pf *PageFile, capacity int) *BufferPool {
	if capacity < 1 {
		capacity = 1
	}
	bp := &BufferPool{
		pf:       pf,
		capacity: capacity,
		frames:   make(map[PageID]*Frame, capacity),
	}
	bp.emptyRings()
	return bp
}

func (bp *BufferPool) emptyRings() {
	bp.hot.prev, bp.hot.next = &bp.hot, &bp.hot
	bp.cold.prev, bp.cold.next = &bp.cold, &bp.cold
}

// link inserts the unpinned frame fr into an LRU ring right after at.
func link(at, fr *Frame) {
	fr.prev, fr.next = at, at.next
	at.next.prev = fr
	at.next = fr
}

// unlink takes fr out of its LRU ring.
func unlink(fr *Frame) {
	fr.prev.next, fr.next.prev = fr.next, fr.prev
	fr.prev, fr.next = nil, nil
}

// GetExec returns a pinned frame for page id, reading it from the file on
// a miss; the caller must Release the frame. Hits and misses alike are
// attributed to the per-query execution context ec (nil for none), and
// any page access fails once ec is cancelled, past its deadline, or over
// its read budget. Because every page a query touches flows through
// here, this is the uniform cancellation checkpoint for disk-backed
// cursors, Dewey probes and hash lookups alike. The pool itself counts
// nothing.
func (bp *BufferPool) GetExec(ec *ExecContext, id PageID) (*Frame, error) {
	return bp.get(ec, id, false)
}

// GetScanExec is GetExec for a sequential scan that will not come back to
// the page: on a miss the page enters the pool cold (see BufferPool). The
// accounting and the checkpoints are GetExec's.
func (bp *BufferPool) GetScanExec(ec *ExecContext, id PageID) (*Frame, error) {
	return bp.get(ec, id, true)
}

func (bp *BufferPool) get(ec *ExecContext, id PageID, scan bool) (*Frame, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if fr, ok := bp.frames[id]; ok {
		if err := ec.cacheHit(); err != nil {
			return nil, err
		}
		fr.pins++
		if fr.next != nil {
			unlink(fr)
		}
		if !scan {
			fr.cold = false
		}
		return fr, nil
	}
	// Miss: evict if full, then read under the lock — reading outside it
	// would race on the frame map, and a miss served from the OS page
	// cache is too short to be worth a second synchronization scheme.
	if len(bp.frames) >= bp.capacity {
		if err := bp.evictLocked(); err != nil {
			return nil, err
		}
	}
	buf := bp.spare
	bp.spare = nil
	if buf == nil {
		buf = make([]byte, PageSize)
	}
	if err := bp.pf.ReadPageExec(ec, id, buf); err != nil {
		bp.spare = buf
		return nil, err
	}
	fr := &Frame{ID: id, Data: buf, pool: bp, pins: 1, cold: scan}
	bp.frames[id] = fr
	return fr, nil
}

// evictLocked drops the least recently used cold page, or hot page if
// there is no cold one, keeping its buffer for the miss that asked for
// the room.
func (bp *BufferPool) evictLocked() error {
	fr := bp.cold.prev
	if fr == &bp.cold {
		fr = bp.hot.prev
	}
	if fr == &bp.hot {
		return fmt.Errorf("storage: buffer pool of %d pages exhausted (all pinned)", bp.capacity)
	}
	unlink(fr)
	delete(bp.frames, fr.ID)
	bp.spare, fr.Data = fr.Data, nil
	return nil
}

func (bp *BufferPool) release(fr *Frame) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if fr.pins <= 0 {
		panic("storage: Release of unpinned frame")
	}
	fr.pins--
	if fr.pins == 0 {
		if fr.cold {
			link(&bp.cold, fr)
		} else {
			link(&bp.hot, fr)
		}
	}
}

// Reset empties the pool, simulating a cold cache (Section 5.1: "results
// were obtained using a cold operating system cache"). It fails if any
// page is still pinned.
func (bp *BufferPool) Reset() error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for id, fr := range bp.frames {
		if fr.pins > 0 {
			return fmt.Errorf("storage: Reset with page %d still pinned", id)
		}
	}
	bp.frames = make(map[PageID]*Frame, bp.capacity)
	bp.emptyRings()
	return nil
}

// Capacity returns the pool capacity in pages.
func (bp *BufferPool) Capacity() int { return bp.capacity }
