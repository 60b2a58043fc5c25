package cluster

import (
	"testing"
	"time"
)

// TestHedgeDelayColdWindow pins that an unwarmed tracker hedges at the
// configured floor, never on noise from a handful of samples.
func TestHedgeDelayColdWindow(t *testing.T) {
	l := &latTracker{}
	min, max := 20*time.Millisecond, 2*time.Second
	if d := l.hedgeDelay(min, max); d != min {
		t.Fatalf("cold hedge delay = %v, want floor %v", d, min)
	}
	for i := 0; i < minHedgeSamples-1; i++ {
		l.observe(time.Second)
	}
	if d := l.hedgeDelay(min, max); d != min {
		t.Fatalf("hedge delay below sample minimum = %v, want floor %v", d, min)
	}
}

// TestHedgeDelayTracksP99 feeds a known distribution and checks the
// trigger lands on its tail, clamped to the configured band.
func TestHedgeDelayTracksP99(t *testing.T) {
	l := &latTracker{}
	for i := 1; i <= 100; i++ {
		l.observe(time.Duration(i) * time.Millisecond)
	}
	// nearest-rank: the 99th smallest of 100 samples
	p, ok := l.p99()
	if !ok || p != 99*time.Millisecond {
		t.Fatalf("p99 of 1..100ms = %v (ok=%v), want 99ms", p, ok)
	}
	if d := l.hedgeDelay(20*time.Millisecond, 2*time.Second); d != 99*time.Millisecond {
		t.Fatalf("hedge delay = %v, want the p99 99ms", d)
	}
	if d := l.hedgeDelay(20*time.Millisecond, 50*time.Millisecond); d != 50*time.Millisecond {
		t.Fatalf("hedge delay above cap = %v, want clamp 50ms", d)
	}
	if d := l.hedgeDelay(200*time.Millisecond, 2*time.Second); d != 200*time.Millisecond {
		t.Fatalf("hedge delay below floor = %v, want floor 200ms", d)
	}
}

// TestLatTrackerWindowRolls pins that old samples age out: after the
// ring wraps, the p99 reflects only the last latWindow observations.
func TestLatTrackerWindowRolls(t *testing.T) {
	l := &latTracker{}
	for i := 0; i < latWindow; i++ {
		l.observe(time.Second) // ancient slow regime
	}
	for i := 0; i < latWindow; i++ {
		l.observe(time.Millisecond) // current fast regime
	}
	if p, ok := l.p99(); !ok || p != time.Millisecond {
		t.Fatalf("p99 after window rolled = %v (ok=%v), want 1ms", p, ok)
	}
}

// TestBackoffDelaySaturates mirrors the netsim discipline: doubling
// per attempt, clamped at max, jitter bounded by half the delay.
func TestBackoffDelaySaturates(t *testing.T) {
	rng := newLockedRand(1)
	base, max := 25*time.Millisecond, 400*time.Millisecond
	prev := time.Duration(0)
	for attempt := 0; attempt < 12; attempt++ {
		d := backoffDelay(base, max, attempt, rng)
		want := base << attempt
		if want > max || want <= 0 {
			want = max
		}
		if d < want || d > want+want/2 {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d, want, want+want/2)
		}
		if d+d/2 < prev {
			t.Fatalf("attempt %d: delay %v regressed far below previous %v", attempt, d, prev)
		}
		prev = d
	}
	// deep attempts must stay clamped — no overflow, no unbounded growth
	if d := backoffDelay(base, max, 60, rng); d > max+max/2 {
		t.Fatalf("attempt 60: delay %v exceeds clamp %v", d, max+max/2)
	}
}

func TestLockedRandBounds(t *testing.T) {
	rng := newLockedRand(42)
	if v := rng.Int63n(0); v != 0 {
		t.Fatalf("Int63n(0) = %d, want 0", v)
	}
	for i := 0; i < 100; i++ {
		if v := rng.Int63n(10); v < 0 || v >= 10 {
			t.Fatalf("Int63n(10) = %d out of range", v)
		}
	}
}

// TestHedgeJitterDeterministic pins the reproducibility contract of
// hedge jitter: two routers built with the same Config.Seed draw
// identical hedge-delay sequences, and a different seed diverges. The
// jitter must come from the router's seeded lockedRand — a global or
// time-seeded source would break replayable simulations.
func TestHedgeJitterDeterministic(t *testing.T) {
	mk := func(seed int64) *Router {
		r, err := New(Config{
			Nodes: []string{"127.0.0.1:1"},
			Seed:  seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		// warm the tracker past the sample minimum so the base delay
		// is the adaptive p99, not just the floor
		for i := 1; i <= minHedgeSamples+10; i++ {
			r.lat.observe(time.Duration(i) * time.Millisecond)
		}
		return r
	}
	seq := func(r *Router) []time.Duration {
		out := make([]time.Duration, 50)
		for i := range out {
			out[i] = r.nextHedgeDelay()
		}
		return out
	}

	a, b := seq(mk(7)), seq(mk(7))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := seq(mk(8))
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical hedge-delay sequences")
	}
	// jitter stays within [base, base+base/4]
	r := mk(7)
	base := r.lat.hedgeDelay(r.cfg.HedgeMin, DefaultHedgeMax)
	for i := 0; i < 50; i++ {
		d := r.nextHedgeDelay()
		if d < base || d > base+base/4 {
			t.Fatalf("hedge delay %v outside [%v, %v]", d, base, base+base/4)
		}
	}
}
