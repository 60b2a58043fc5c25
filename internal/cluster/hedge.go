package cluster

import (
	"math/rand"
	"slices"
	"sync"
	"time"
)

// latWindow is how many successful attempt latencies the rolling p99
// remembers. Small enough that the hedge delay tracks regime changes
// (a node going slow) within a few hundred requests, large enough that
// one outlier cannot move the tail estimate.
const latWindow = 512

// minHedgeSamples is how many observations the tracker wants before it
// trusts its p99; below it the configured floor is used, so a cold
// router never hedges on noise.
const minHedgeSamples = 20

// latTracker keeps a rolling window of successful attempt latencies
// and answers "what delay says the primary is probably in trouble" —
// the hedged-request trigger. Hedging after the rolling p99 means at
// most ~1% of requests pay the second copy, the classic tail-latency
// bound.
//
// Beside the ring (arrival order, which says what to evict) it keeps
// the same window's values in ascending order, updated by observe, so
// the p99 read on every proxied request is one index with no copy and
// no sort.
type latTracker struct {
	mu     sync.Mutex // guards ring, sorted, next, n
	ring   [latWindow]time.Duration
	sorted [latWindow]time.Duration // sorted[:n] holds ring[:n]'s values, ascending
	next   int
	n      int
}

// observe records one latency, evicting the oldest once the window is
// full. The sorted window is kept by two binary searches and at most
// two shifts: out goes one copy of the evicted value (copies of equal
// values are interchangeable), in goes d at its rank.
func (l *latTracker) observe(d time.Duration) {
	l.mu.Lock()
	s := l.sorted[:l.n]
	if l.n == latWindow {
		i, _ := slices.BinarySearch(s, l.ring[l.next])
		copy(s[i:], s[i+1:])
		s = s[:len(s)-1]
	} else {
		l.n++
	}
	i, _ := slices.BinarySearch(s, d)
	s = s[:len(s)+1]
	copy(s[i+1:], s[i:])
	s[i] = d
	l.ring[l.next] = d
	l.next = (l.next + 1) % latWindow
	l.mu.Unlock()
}

// p99 returns the rolling 99th percentile (nearest rank over the
// window) and whether enough samples back it.
func (l *latTracker) p99() (time.Duration, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n < minHedgeSamples {
		return 0, false
	}
	return l.sorted[(l.n-1)*99/100], true
}

// hedgeDelay is the current trigger: the rolling p99 clamped to
// [min, max], or min while the window is still cold.
func (l *latTracker) hedgeDelay(min, max time.Duration) time.Duration {
	d, ok := l.p99()
	if !ok || d < min {
		return min
	}
	if d > max {
		return max
	}
	return d
}

// nextHedgeDelay is the delay before this request arms its hedge: the
// adaptive base from the latency tracker plus jitter drawn uniformly
// from [0, base/4] so a burst of simultaneous requests does not fire
// all of its hedges in the same instant. The jitter comes from the
// router's seeded lockedRand, so two routers built with the same
// Config.Seed produce identical delay sequences — reproducibility the
// simulation harness and the determinism tests both rely on.
func (r *Router) nextHedgeDelay() time.Duration {
	base := r.lat.hedgeDelay(r.cfg.HedgeMin, DefaultHedgeMax)
	return base + time.Duration(r.rng.Int63n(int64(base)/4+1))
}

// backoffDelay is the wait before failing over to the next replica
// after attempt i (0-based) failed: base·2^i saturating at max —
// mirroring netsim's overflow-guarded shift (clamp as soon as another
// doubling could exceed the cap) — plus jitter drawn uniformly from
// [0, delay/2] so synchronized routers spread their retries.
func backoffDelay(base, max time.Duration, attempt int, rng *lockedRand) time.Duration {
	b := base
	for i := 0; i < attempt; i++ {
		if b > max>>1 {
			b = max
			break
		}
		b <<= 1
	}
	if b > max {
		b = max
	}
	return b + time.Duration(rng.Int63n(int64(b)/2+1))
}

// lockedRand is a mutex-guarded rand.Rand: the router draws jitter
// from concurrent request goroutines, and rand.Rand is not safe for
// concurrent use.
type lockedRand struct {
	mu  sync.Mutex // guards rng
	rng *rand.Rand
}

func newLockedRand(seed int64) *lockedRand {
	return &lockedRand{rng: rand.New(rand.NewSource(seed))}
}

func (r *lockedRand) Int63n(n int64) int64 {
	if n <= 0 {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rng.Int63n(n)
}
