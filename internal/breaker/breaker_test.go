package breaker

import (
	"context"
	"errors"
	"math"
	"slices"
	"sync"
	"testing"
	"time"
)

// clock is a steppable breaker clock.
type clock struct{ t time.Time }

func (c *clock) now() time.Time { return c.t }

// step is one action against key "k" and the state it must leave.
type step struct {
	op        string        // "fail", "succeed", "allow", "reset" or "advance"
	d         time.Duration // for "advance"
	ok, probe bool          // for "allow": the expected verdict
	healthy   bool          // Health("k") after the op
	failures  int
}

func TestBreaker(t *testing.T) {
	errBoom := errors.New("boom")
	for _, tc := range []struct {
		name      string
		threshold int
		interval  time.Duration
		steps     []step
	}{
		{
			name: "UnseenKeyIsHealthy", threshold: 3, interval: time.Minute,
			steps: []step{
				{op: "allow", ok: true, healthy: true},
				{op: "succeed", healthy: true},
				{op: "allow", ok: true, healthy: true},
			},
		},
		{
			name: "ThresholdAndProbe", threshold: 3, interval: time.Minute,
			steps: []step{
				{op: "fail", healthy: true, failures: 1},
				{op: "allow", ok: true, healthy: true, failures: 1},
				{op: "fail", healthy: true, failures: 2},
				{op: "allow", ok: true, healthy: true, failures: 2},
				{op: "fail", healthy: false, failures: 3},
				{op: "allow", ok: false, healthy: false, failures: 3},
				// Within the interval the key stays excluded.
				{op: "advance", d: 30 * time.Second, healthy: false, failures: 3},
				{op: "allow", ok: false, healthy: false, failures: 3},
				{op: "advance", d: 31 * time.Second, healthy: false, failures: 3},
				{op: "allow", ok: true, probe: true, healthy: false, failures: 3},
				// The probe consumed this interval's trial.
				{op: "allow", ok: false, healthy: false, failures: 3},
				// A failed probe re-arms the interval from when it failed,
				// not from when it was granted.
				{op: "advance", d: 30 * time.Second, healthy: false, failures: 3},
				{op: "fail", healthy: false, failures: 4},
				{op: "advance", d: 45 * time.Second, healthy: false, failures: 4},
				{op: "allow", ok: false, healthy: false, failures: 4},
				{op: "advance", d: 16 * time.Second, healthy: false, failures: 4},
				{op: "allow", ok: true, probe: true, healthy: false, failures: 4},
				// A successful probe closes the breaker.
				{op: "succeed", healthy: true},
				{op: "allow", ok: true, healthy: true},
			},
		},
		{
			name: "StickyWithoutInterval", threshold: 1, interval: 0,
			steps: []step{
				{op: "fail", healthy: false, failures: 1},
				{op: "allow", ok: false, healthy: false, failures: 1},
				{op: "advance", d: time.Hour, healthy: false, failures: 1},
				{op: "allow", ok: false, healthy: false, failures: 1},
				{op: "reset", healthy: true},
				{op: "allow", ok: true, healthy: true},
			},
		},
		{
			name: "SuccessBreaksTheStreak", threshold: 2, interval: 0,
			steps: []step{
				{op: "fail", healthy: true, failures: 1},
				{op: "succeed", healthy: true},
				{op: "fail", healthy: true, failures: 1},
				{op: "fail", healthy: false, failures: 2},
			},
		},
		{
			// A success that lands on an open key closes it, probe or not.
			name: "SuccessClosesOpenKey", threshold: 1, interval: 0,
			steps: []step{
				{op: "fail", healthy: false, failures: 1},
				{op: "succeed", healthy: true},
				{op: "allow", ok: true, healthy: true},
			},
		},
		{
			name: "ThresholdBelowOneMeansOne", threshold: 0, interval: 0,
			steps: []step{
				{op: "fail", healthy: false, failures: 1},
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := &clock{t: time.Unix(1000, 0)}
			b := New[string](tc.threshold, tc.interval, clk.now)
			for i, st := range tc.steps {
				switch st.op {
				case "fail":
					b.Failure("k", errBoom)
				case "succeed":
					b.Success("k")
				case "reset":
					b.Reset()
				case "advance":
					clk.t = clk.t.Add(st.d)
				case "allow":
					if ok, probe := b.Allow("k"); ok != st.ok || probe != st.probe {
						t.Fatalf("step %d: Allow = (%v, %v), want (%v, %v)", i, ok, probe, st.ok, st.probe)
					}
				default:
					t.Fatalf("step %d: unknown op %q", i, st.op)
				}
				want := Health{Healthy: st.healthy, Failures: st.failures}
				if st.failures > 0 {
					want.LastError = errBoom.Error()
				}
				if got := b.Health([]string{"k"})[0]; got != want {
					t.Fatalf("step %d (%s): Health = %+v, want %+v", i, st.op, got, want)
				}
				open := 0
				if !st.healthy {
					open = 1
				}
				if b.Open("k") != !st.healthy || b.OpenCount() != open {
					t.Fatalf("step %d (%s): Open = %v, OpenCount = %d, want healthy=%v", i, st.op, b.Open("k"), b.OpenCount(), st.healthy)
				}
			}
		})
	}
}

// TestBackoff: every draw lies in [0, base<<min(attempt, 20)], saturated
// at MaxInt64; a non-positive base waits 0; and a (seed, key) stream
// replays exactly.
func TestBackoff(t *testing.T) {
	bases := []time.Duration{1, time.Millisecond, 5 * time.Millisecond, time.Second,
		9_000_000 * time.Millisecond, math.MaxInt64 / 3, math.MaxInt64}
	for _, base := range bases {
		for _, attempt := range []int{0, 1, 5, 19, 20, 21, 62, 63} {
			limit := time.Duration(math.MaxInt64)
			if shift := min(attempt, maxShift); int64(base) <= math.MaxInt64>>shift {
				limit = base << shift
			}
			rng := NewRand(7, 3)
			for i := 0; i < 200; i++ {
				if d := Backoff(rng, base, attempt); d < 0 || d > limit {
					t.Fatalf("Backoff(base %v, attempt %d) = %v outside [0, %v]", base, attempt, d, limit)
				}
			}
		}
	}
	rng := NewRand(1, 0)
	for _, base := range []time.Duration{0, -time.Second} {
		for attempt := 0; attempt < 64; attempt++ {
			if d := Backoff(rng, base, attempt); d != 0 {
				t.Fatalf("Backoff(base %v, attempt %d) = %v, want 0", base, attempt, d)
			}
		}
	}
	draws := func(seed, key int64) []time.Duration {
		rng := NewRand(seed, key)
		out := make([]time.Duration, 16)
		for i := range out {
			out[i] = Backoff(rng, time.Millisecond, i%8)
		}
		return out
	}
	for _, sk := range [][2]int64{{1, 0}, {1, 1}, {2, 0}, {-5, 1 << 40}} {
		if a, b := draws(sk[0], sk[1]), draws(sk[0], sk[1]); !slices.Equal(a, b) {
			t.Fatalf("(seed %d, key %d) drew %v, then %v", sk[0], sk[1], a, b)
		}
	}
	if slices.Equal(draws(1, 0), draws(1, 1)) {
		t.Fatal("keys 0 and 1 drew the same stream under one seed")
	}
}

func TestWait(t *testing.T) {
	if err := Wait(context.Background(), 0); err != nil {
		t.Fatalf("Wait(0) = %v", err)
	}
	if err := Wait(context.Background(), time.Millisecond); err != nil {
		t.Fatalf("Wait(1ms) = %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if err := Wait(ctx, time.Hour); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait on a cancelled context = %v, want context.Canceled", err)
	}
	if el := time.Since(start); el > time.Minute {
		t.Fatalf("Wait on a cancelled context blocked for %v", el)
	}
}

// TestBreakerConcurrent hammers one breaker from many goroutines (run
// under -race): failures on one key, successes on another, admissions,
// probes, snapshots and resets all interleave.
func TestBreakerConcurrent(t *testing.T) {
	b := New[int](3, time.Nanosecond, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (g + i) % 4
				if ok, _ := b.Allow(k); ok {
					if k%2 == 0 {
						b.Failure(k, errors.New("boom"))
					} else {
						b.Success(k)
					}
				}
				switch i % 50 {
				case 0:
					b.Health([]int{0, 1, 2, 3})
					b.OpenCount()
				case 25:
					if g == 0 {
						b.Reset()
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for _, k := range []int{1, 3} {
		if b.Open(k) {
			t.Fatalf("key %d saw only successes but is open", k)
		}
	}
}

// allowSuccessAllocs measures the sharded query's per-shard,
// per-segment cost on a healthy shard — one Allow and one Success — in
// allocations.
func allowSuccessAllocs(br *Breaker[int]) float64 {
	k := 0
	return testing.AllocsPerRun(100, func() {
		k = (k + 1) & 3
		br.Allow(k)
		br.Success(k)
	})
}

func healthyBreaker() *Breaker[int] {
	br := New[int](3, 0, nil)
	br.Failure(1, errors.New("boom")) // one seen key, below the threshold
	br.Success(1)
	return br
}

func TestAllowSuccessAllocs(t *testing.T) {
	if a := allowSuccessAllocs(healthyBreaker()); a != 0 {
		t.Fatalf("Allow+Success on a healthy key: %v allocs/op, want 0", a)
	}
}

// BenchmarkAllowSuccess times the healthy-key hot path and fails if it
// allocates.
func BenchmarkAllowSuccess(b *testing.B) {
	br := healthyBreaker()
	if a := allowSuccessAllocs(br); a != 0 {
		b.Fatalf("Allow+Success on a healthy key: %v allocs/op, want 0", a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i & 3
		if ok, _ := br.Allow(k); !ok {
			b.Fatal("healthy key refused")
		}
		br.Success(k)
	}
}
