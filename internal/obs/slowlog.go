package obs

import (
	"sync"
	"time"
)

// SlowLogEntry is one logged slow query.
type SlowLogEntry struct {
	Time      time.Time     `json:"time"`
	Query     string        `json:"query"`
	Algorithm string        `json:"algorithm"`
	Shards    int           `json:"shards"` // index partitions the query fanned out over
	Wall      time.Duration `json:"wall_ns"`
	Reads     int64         `json:"io_reads"`
	CacheHits int64         `json:"cache_hits"`
	Degraded  bool          `json:"degraded,omitempty"`  // served with shards excluded
	Cached    bool          `json:"cached,omitempty"`    // served from the result cache
	Coalesced bool          `json:"coalesced,omitempty"` // shared another caller's execution
	// SwitchReason is why an HDIL query left the ranked strategy for a DIL
	// scan ("estimate", "prefix-exhausted"; empty if it did not), and
	// RankedEntries how many rank-list entries it consumed first.
	SwitchReason  string `json:"switch_reason,omitempty"`
	RankedEntries int    `json:"ranked_entries,omitempty"`
	Err           string `json:"error,omitempty"`
	Spans         []Span `json:"spans,omitempty"`
}

// SlowLog is a bounded ring buffer of the slowest-path evidence: every
// query whose wall time reaches the threshold is recorded with its
// per-stage trace. Concurrent queries append while HTTP readers snapshot;
// when the ring is full the oldest entry is overwritten.
type SlowLog struct {
	mu        sync.Mutex
	threshold time.Duration // <0 disables; 0 logs everything
	buf       []SlowLogEntry
	next      int // ring write position
	full      bool
	total     int64 // entries ever logged (including overwritten ones)
}

// NewSlowLog creates a slow-query log holding up to capacity entries
// (minimum 1) with the given initial threshold.
func NewSlowLog(capacity int, threshold time.Duration) *SlowLog {
	if capacity < 1 {
		capacity = 1
	}
	return &SlowLog{buf: make([]SlowLogEntry, capacity), threshold: threshold}
}

// SetThreshold changes the logging threshold: queries at or above it are
// logged. Negative disables logging; zero logs every query.
func (l *SlowLog) SetThreshold(d time.Duration) {
	l.mu.Lock()
	l.threshold = d
	l.mu.Unlock()
}

// Threshold returns the current threshold.
func (l *SlowLog) Threshold() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.threshold
}

// Observe logs e if its wall time reaches the threshold, reporting
// whether it was logged.
func (l *SlowLog) Observe(e SlowLogEntry) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.threshold < 0 || e.Wall < l.threshold {
		return false
	}
	l.buf[l.next] = e
	l.next++
	if l.next == len(l.buf) {
		l.next = 0
		l.full = true
	}
	l.total++
	return true
}

// Entries returns the retained entries, newest first.
func (l *SlowLog) Entries() []SlowLogEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.next
	if l.full {
		n = len(l.buf)
	}
	out := make([]SlowLogEntry, 0, n)
	for i := 0; i < n; i++ {
		// Walk backwards from the most recent write.
		j := l.next - 1 - i
		if j < 0 {
			j += len(l.buf)
		}
		out = append(out, l.buf[j])
	}
	return out
}

// Total returns how many queries have been logged since creation,
// including entries since overwritten by the ring.
func (l *SlowLog) Total() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}
