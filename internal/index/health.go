package index

import "xrank/internal/breaker"

// Shard health: the degraded-mode state machine is internal/breaker's,
// keyed by shard number. Every shard starts healthy. The query layer
// records the outcome of each per-shard execution after its retries;
// shardFailureThreshold consecutive failures mark the shard unhealthy,
// and an unhealthy shard is skipped by later queries. There are no
// half-open probes, so exclusion is sticky until ResetHealth (e.g. after
// an operator replaces the device) — or until a success lands on the
// shard anyway: a query that was admitted before the shard was marked,
// or the only shard of a one-shard index, which is never skipped.

// shardFailureThreshold is the consecutive post-retry failure count at
// which a shard is marked unhealthy.
const shardFailureThreshold = 3

// ShardHealth is a snapshot of one shard's availability, surfaced through
// the engine and the /api/shards endpoint.
type ShardHealth struct {
	Shard     int    `json:"shard"`
	Healthy   bool   `json:"healthy"`
	Failures  int    `json:"consecutive_failures"`
	LastError string `json:"last_error,omitempty"`
}

// Breaker returns the per-shard health state that the query layer admits
// shard executions through and records their outcomes in.
func (sh *Sharded) Breaker() *breaker.Breaker[int] { return sh.health }

// Health returns a snapshot of every shard's health, in shard order.
func (sh *Sharded) Health() []ShardHealth {
	keys := make([]int, len(sh.shards))
	for i := range keys {
		keys[i] = i
	}
	out := make([]ShardHealth, len(keys))
	for i, h := range sh.health.Health(keys) {
		out[i] = ShardHealth{Shard: i, Healthy: h.Healthy, Failures: h.Failures, LastError: h.LastError}
	}
	return out
}

// ResetHealth returns every shard to the healthy state with a zero
// failure streak.
func (sh *Sharded) ResetHealth() { sh.health.Reset() }
