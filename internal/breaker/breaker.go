// Package breaker is the one failure policy shared by the engine's index
// shards and the cluster coordinator's replicas: a per-key circuit
// breaker with half-open probes, and the seeded full-jitter exponential
// backoff their retry loops wait on.
//
// A key starts closed (healthy). Consecutive failures reaching the
// threshold open it; an open key is excluded until either Reset or a
// successful half-open probe. While a key is open, Allow admits one
// trial per probe interval (none when the interval is <= 0, which makes
// exclusion sticky); a failed trial re-arms the interval. Any success
// closes the key and zeroes its streak, whether or not it was a probe.
package breaker

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"time"
)

// Health is one key's breaker state, as the status endpoints report it.
type Health struct {
	Healthy   bool   `json:"healthy"`
	Failures  int    `json:"consecutive_failures"`
	LastError string `json:"last_error,omitempty"`
}

// Breaker tracks the health of a set of keys. The clock is injectable so
// tests can step probe intervals without sleeping. All methods are safe
// for concurrent use.
type Breaker[K comparable] struct {
	mu        sync.Mutex
	threshold int
	interval  time.Duration // half-open probe spacing; <= 0 disables probes
	now       func() time.Time
	state     map[K]*keyState
}

type keyState struct {
	failures    int
	open        bool
	lastAttempt time.Time // last failure or last granted probe
	lastErr     string
}

// New builds a breaker that opens a key after threshold consecutive
// failures (minimum 1) and admits one probe per interval once open
// (interval <= 0: an open key stays excluded until Reset). A nil now
// selects time.Now.
func New[K comparable](threshold int, interval time.Duration, now func() time.Time) *Breaker[K] {
	if threshold < 1 {
		threshold = 1
	}
	if now == nil {
		now = time.Now
	}
	return &Breaker[K]{
		threshold: threshold,
		interval:  interval,
		now:       now,
		state:     make(map[K]*keyState),
	}
}

// Allow reports whether an attempt against k may proceed. For an open
// key it grants at most one probe per interval; probe distinguishes that
// trial so callers can count it.
func (b *Breaker[K]) Allow(k K) (ok, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.state[k]
	if s == nil || !s.open {
		return true, false
	}
	if b.interval <= 0 {
		return false, false
	}
	now := b.now()
	if now.Sub(s.lastAttempt) < b.interval {
		return false, false
	}
	s.lastAttempt = now
	return true, true
}

// Success records a completed attempt: it zeroes k's failure streak and
// closes its breaker.
func (b *Breaker[K]) Success(k K) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if s := b.state[k]; s != nil {
		s.failures, s.open, s.lastErr = 0, false, ""
	}
}

// Failure records one failed attempt; the run of consecutive failures
// reaching the threshold opens k's breaker.
func (b *Breaker[K]) Failure(k K, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.state[k]
	if s == nil {
		s = &keyState{}
		b.state[k] = s
	}
	s.failures++
	s.lastAttempt = b.now()
	if err != nil {
		s.lastErr = err.Error()
	}
	if s.failures >= b.threshold {
		s.open = true
	}
}

// Open reports whether k's breaker is currently open.
func (b *Breaker[K]) Open(k K) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.state[k]
	return s != nil && s.open
}

// OpenCount returns the number of keys with an open breaker.
func (b *Breaker[K]) OpenCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, s := range b.state {
		if s.open {
			n++
		}
	}
	return n
}

// Health reports the state of each given key, in order. Keys the
// breaker has never seen report healthy.
func (b *Breaker[K]) Health(keys []K) []Health {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Health, len(keys))
	for i, k := range keys {
		out[i] = Health{Healthy: true}
		if s := b.state[k]; s != nil {
			out[i] = Health{Healthy: !s.open, Failures: s.failures, LastError: s.lastErr}
		}
	}
	return out
}

// Reset closes every breaker and forgets every streak (operator
// recovery).
func (b *Breaker[K]) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = make(map[K]*keyState)
}

// maxShift clamps the exponent of the backoff cap: past about a million
// times the base, waiting longer buys nothing.
const maxShift = 20

// Backoff returns the wait before retry attempt (0-based): a draw
// uniform in [0, base<<attempt], exponential cap with full jitter, so a
// fleet of callers retrying against one recovering device or replica
// spreads out instead of stampeding in lockstep. The cap saturates at
// math.MaxInt64 rather than overflowing; a non-positive base waits 0.
func Backoff(rng *rand.Rand, base time.Duration, attempt int) time.Duration {
	if base <= 0 {
		return 0
	}
	if attempt > maxShift {
		attempt = maxShift
	}
	if int64(base) >= math.MaxInt64>>attempt {
		// The cap, plus the one Int63n needs, would pass MaxInt64: draw
		// uniformly from [0, MaxInt64], the saturated cap, instead.
		return time.Duration(rng.Int63())
	}
	return time.Duration(rng.Int63n(int64(base)<<attempt + 1))
}

// NewRand returns the backoff draw stream for one key under a seed. The
// stream is a pure function of (seed, key), so a retry schedule replays
// exactly.
func NewRand(seed, key int64) *rand.Rand {
	return rand.New(rand.NewSource(seed + key*1315423911))
}

// Wait sleeps for d or until ctx is done, whichever comes first, and
// returns ctx's error in the latter case. A non-positive d returns nil
// at once.
func Wait(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
