package cluster

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"xrank"
)

func TestPlacementOrderDeterministic(t *testing.T) {
	replicas := []string{"http://a:1", "http://b:2", "http://c:3"}
	got := PlacementOrder(7, replicas)
	if len(got) != 3 {
		t.Fatalf("placement dropped replicas: %v", got)
	}
	// Permutation-independence: the order depends on the set, not the
	// input arrangement.
	perm := []string{"http://c:3", "http://a:1", "http://b:2"}
	if !reflect.DeepEqual(PlacementOrder(7, perm), got) {
		t.Fatalf("placement depends on input order: %v vs %v", PlacementOrder(7, perm), got)
	}
	if !reflect.DeepEqual(PlacementOrder(7, replicas), got) {
		t.Fatal("placement is not deterministic")
	}
	// The input must not be mutated.
	if !reflect.DeepEqual(replicas, []string{"http://a:1", "http://b:2", "http://c:3"}) {
		t.Fatal("PlacementOrder mutated its input")
	}
	// Different shards should not all share one primary (rendezvous
	// spreads load); with 64 shards over 3 replicas each replica should
	// be primary somewhere.
	primaries := map[string]int{}
	for s := 0; s < 64; s++ {
		primaries[PlacementOrder(s, replicas)[0]]++
	}
	if len(primaries) != 3 {
		t.Fatalf("rendezvous placement starved a replica of primaries: %v", primaries)
	}
	// Removing one replica must not reshuffle the relative order of the
	// survivors (the minimal-disruption property).
	without := PlacementOrder(7, []string{"http://a:1", "http://c:3"})
	var survivors []string
	for _, u := range got {
		if u != "http://b:2" {
			survivors = append(survivors, u)
		}
	}
	if !reflect.DeepEqual(without, survivors) {
		t.Fatalf("removing a replica reshuffled survivors: %v vs %v", without, survivors)
	}
}

func TestLatencyDigestQuantile(t *testing.T) {
	d := newLatencyDigest()
	if _, ok := d.quantile(0.99); ok {
		t.Fatal("empty digest answered a quantile")
	}
	for i := 1; i <= 100; i++ {
		d.observe(time.Duration(i) * time.Millisecond)
	}
	p99, ok := d.quantile(0.99)
	if !ok {
		t.Fatal("populated digest refused a quantile")
	}
	if p99 < 95*time.Millisecond || p99 > 100*time.Millisecond {
		t.Fatalf("p99 of 1..100ms = %v", p99)
	}
	p50, _ := d.quantile(0.50)
	if p50 < 45*time.Millisecond || p50 > 55*time.Millisecond {
		t.Fatalf("p50 of 1..100ms = %v", p50)
	}
	// The ring drops the oldest samples once full.
	for i := 0; i < digestSize; i++ {
		d.observe(time.Millisecond)
	}
	if p99, _ := d.quantile(0.99); p99 != time.Millisecond {
		t.Fatalf("ring retained stale samples: p99 = %v", p99)
	}
}

// TestMergeShardOrder: the merge keeps each page's order and breaks
// score ties by shard, so it never re-sorts what a shard already cut at
// m; a failed shard contributes nothing and is listed.
func TestMergeShardOrder(t *testing.T) {
	page := func(rs ...xrank.SearchResult) *shardPage { return &shardPage{Results: rs} }
	outcomes := []shardOutcome{
		{shard: 0, page: page(
			xrank.SearchResult{DeweyID: "1.1", Score: 0.9, Doc: "b"},
			xrank.SearchResult{DeweyID: "1.10", Score: 0.5, Doc: "z"},
			xrank.SearchResult{DeweyID: "2.1", Score: 0.5, Doc: "b"},
		)},
		{shard: 1, err: errors.New("refused")},
		{shard: 2, page: page(
			xrank.SearchResult{DeweyID: "1.2", Score: 0.7, Doc: "c"},
			xrank.SearchResult{DeweyID: "1.2", Score: 0.5, Doc: "a"},
		)},
	}
	got, stats := merge(outcomes, 4)
	want := []xrank.SearchResult{
		{DeweyID: "1.1", Score: 0.9, Doc: "b"},
		{DeweyID: "1.2", Score: 0.7, Doc: "c"},
		{DeweyID: "1.10", Score: 0.5, Doc: "z"},
		{DeweyID: "2.1", Score: 0.5, Doc: "b"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merge order:\n got %+v\nwant %+v", got, want)
	}
	if !stats.Degraded || !reflect.DeepEqual(stats.FailedShards, []int{1}) || stats.Shards != 3 {
		t.Fatalf("stats: degraded %v, failed %v, shards %d; want true, [1], 3",
			stats.Degraded, stats.FailedShards, stats.Shards)
	}
	if out, _ := merge(nil, 5); out == nil || len(out) != 0 {
		t.Fatalf("empty merge must be an empty array, got %#v", out)
	}
}
