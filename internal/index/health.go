package index

import (
	"sync"
	"time"
)

// Shard health: the degraded-mode state machine. Every shard starts
// healthy. The query layer records the outcome of each per-shard
// execution; a shard whose reads keep failing after bounded retries
// accumulates consecutive failures, and once they reach the caller's
// threshold the shard is marked unhealthy and excluded from subsequent
// queries until ResetHealth revives it (e.g. after an operator replaces
// the device). A success at any point zeroes the failure streak.
//
// Exclusion is sticky, with one escape hatch besides ResetHealth: a
// half-open probe. When the caller passes a probe interval, TryProbe
// admits one trial execution per interval for an unhealthy shard; the
// trial runs as a normal shard execution, and on success Revive returns
// the shard to service. A failed trial re-arms the interval, so a shard
// that is still broken costs at most one extra execution per interval.

// ShardHealth is a snapshot of one shard's availability, surfaced through
// the engine and the /api/shards endpoint.
type ShardHealth struct {
	Shard     int    `json:"shard"`
	Healthy   bool   `json:"healthy"`
	Failures  int    `json:"consecutive_failures"`
	LastError string `json:"last_error,omitempty"`
}

type shardHealth struct {
	mu        sync.Mutex
	failures  int
	unhealthy bool
	lastErr   string
	// lastAttempt is when the shard was last marked unhealthy or last
	// granted a half-open probe; TryProbe admits the next trial one
	// interval after it.
	lastAttempt time.Time
}

func (sh *Sharded) initHealth() {
	sh.health = make([]shardHealth, len(sh.shards))
}

// ShardHealthy reports whether shard s is currently serving queries.
// Out-of-range shards (and indexes opened before health tracking) read
// as healthy.
func (sh *Sharded) ShardHealthy(s int) bool {
	if s < 0 || s >= len(sh.health) {
		return true
	}
	h := &sh.health[s]
	h.mu.Lock()
	defer h.mu.Unlock()
	return !h.unhealthy
}

// RecordShardSuccess zeroes shard s's consecutive-failure streak. It does
// not revive an unhealthy shard — exclusion is sticky until ResetHealth —
// but an unhealthy shard is never queried, so in practice successes only
// arrive for healthy shards.
func (sh *Sharded) RecordShardSuccess(s int) {
	if s < 0 || s >= len(sh.health) {
		return
	}
	h := &sh.health[s]
	h.mu.Lock()
	if !h.unhealthy {
		h.failures = 0
		h.lastErr = ""
	}
	h.mu.Unlock()
}

// RecordShardFailure counts one post-retry failure against shard s and
// marks it unhealthy once the streak reaches threshold (<= 0 disables
// marking). It returns true if the shard is now (or already was)
// unhealthy.
func (sh *Sharded) RecordShardFailure(s int, err error, threshold int) bool {
	if s < 0 || s >= len(sh.health) {
		return false
	}
	h := &sh.health[s]
	h.mu.Lock()
	defer h.mu.Unlock()
	h.failures++
	if err != nil {
		h.lastErr = err.Error()
	}
	if threshold > 0 && h.failures >= threshold {
		if !h.unhealthy {
			h.lastAttempt = time.Now()
		}
		h.unhealthy = true
	}
	return h.unhealthy
}

// TryProbe reports whether unhealthy shard s is due a half-open trial
// under the given probe interval, and reserves the trial slot: at most
// one caller per interval gets true, and a failed trial waits a full
// interval before the next. A healthy shard, an out-of-range s, or a
// non-positive interval never probes.
func (sh *Sharded) TryProbe(s int, interval time.Duration) bool {
	if interval <= 0 || s < 0 || s >= len(sh.health) {
		return false
	}
	h := &sh.health[s]
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.unhealthy {
		return false
	}
	now := time.Now()
	if now.Sub(h.lastAttempt) < interval {
		return false
	}
	h.lastAttempt = now
	return true
}

// Revive returns shard s to the healthy state after a successful
// half-open trial, zeroing its failure streak.
func (sh *Sharded) Revive(s int) {
	if s < 0 || s >= len(sh.health) {
		return
	}
	h := &sh.health[s]
	h.mu.Lock()
	h.failures, h.unhealthy, h.lastErr = 0, false, ""
	h.mu.Unlock()
}

// Health returns a snapshot of every shard's health, in shard order.
func (sh *Sharded) Health() []ShardHealth {
	out := make([]ShardHealth, len(sh.health))
	for i := range sh.health {
		h := &sh.health[i]
		h.mu.Lock()
		out[i] = ShardHealth{
			Shard:     i,
			Healthy:   !h.unhealthy,
			Failures:  h.failures,
			LastError: h.lastErr,
		}
		h.mu.Unlock()
	}
	return out
}

// ResetHealth returns every shard to the healthy state with a zero
// failure streak.
func (sh *Sharded) ResetHealth() {
	for i := range sh.health {
		h := &sh.health[i]
		h.mu.Lock()
		h.failures, h.unhealthy, h.lastErr = 0, false, ""
		h.mu.Unlock()
	}
}
