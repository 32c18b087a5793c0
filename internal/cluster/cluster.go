// Package cluster turns the single-node XRANK engine into a serving
// cluster: a shard server (xrank-shardd) hosts one or more shard
// replicas behind the existing internal/httpapi handler stack plus a
// small internal surface (/internal/shard/search, /internal/health,
// /internal/snapshot), and a coordinator (xrank-coordinator) fans a
// query out to one replica per shard, merges the per-shard top-m pages
// into a global top-m, and degrades — exactly the way the single-node
// engine degrades around a failed local shard — when every replica of
// a shard is unreachable.
//
// Placement is rendezvous (highest-random-weight) hashing: each
// (shard, replica) pair hashes to a weight and a shard's replicas are
// tried in descending-weight order. Adding or removing one replica
// reshuffles only the pairs that involve it, and every coordinator
// computes the same order with no shared state.
//
// The coordinator is an httpapi.Searcher: /api/search is the
// single-node handler (httpapi.SearchHandler) over its fan-out, so
// parameters, errors and the reply envelope are the engine's. It merges
// the pages by a stable sort on score over the pages in shard order,
// which keeps each shard's own tie order: a top-m is a prefix of the
// top-(m+1).
//
// Fault handling composes three layers, mirroring the intra-node
// design (see internal/index/health.go and internal/query/exec.go):
//
//   - retries with seeded full-jitter exponential backoff for
//     transient faults (transport errors, timeouts, 500/502);
//   - a per-replica circuit breaker that opens after a configurable
//     run of consecutive failures and thereafter admits one half-open
//     probe per interval;
//   - hedged second requests after a p99-derived delay, with
//     exactly-once accounting (a cancelled hedge loser touches neither
//     the breaker nor the metrics).
//
// Backpressure statuses (429, 503, 504) are not replica faults: the
// replica is alive and asking for relief, so the coordinator fails
// over without charging the breaker and, when every shard is
// backpressured, passes the status and Retry-After header through to
// the client unchanged.
package cluster

import (
	"hash/fnv"
	"sort"
)

// rendezvousWeight hashes one (shard, replica) pair with FNV-1a 64.
// The separator keeps ("1", "0x") and ("10", "x") apart.
func rendezvousWeight(shard int, replica string) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	v := uint64(shard)
	for i := 0; i < 8; i++ {
		buf[i] = byte(v >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte{'|'})
	h.Write([]byte(replica))
	return h.Sum64()
}

// PlacementOrder returns the shard's replicas in descending
// rendezvous-hash order: index 0 is the primary, the rest is the
// failover (and hedging) order. The input slice is not modified; ties
// break by URL so the order is total and deterministic.
func PlacementOrder(shard int, replicas []string) []string {
	out := append([]string(nil), replicas...)
	sort.SliceStable(out, func(i, j int) bool {
		wi, wj := rendezvousWeight(shard, out[i]), rendezvousWeight(shard, out[j])
		if wi != wj {
			return wi > wj
		}
		return out[i] < out[j]
	})
	return out
}
