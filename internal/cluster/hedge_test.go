package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
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

// refP99 is the reference the tracker must match: sort a copy of the
// last min(len(obs), latWindow) observations and take the nearest-rank
// 99th percentile.
func refP99(obs []time.Duration) (time.Duration, bool) {
	win := obs[max(0, len(obs)-latWindow):]
	if len(win) < minHedgeSamples {
		return 0, false
	}
	buf := slices.Clone(win)
	slices.Sort(buf)
	return buf[(len(buf)-1)*99/100], true
}

// TestLatTrackerMatchesSortedCopy checks p99 after every observation
// against refP99, over random sequences of one to three windows whose
// values repeat often (few distinct latencies) or rarely (a wide tail),
// so evictions hit duplicates, the minimum, the maximum and the rank
// boundary itself.
func TestLatTrackerMatchesSortedCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		l := &latTracker{}
		distinct := 1 + rng.Intn(8)
		if trial%4 == 3 {
			distinct = 1 << 20
		}
		n := latWindow + rng.Intn(2*latWindow+1)
		if trial < 4 {
			n = 1 + rng.Intn(latWindow) // a window that never fills
		}
		var obs []time.Duration
		for i := 0; i < n; i++ {
			d := time.Duration(rng.Intn(distinct)) * time.Microsecond
			obs = append(obs, d)
			l.observe(d)
			got, gotOK := l.p99()
			want, wantOK := refP99(obs)
			if got != want || gotOK != wantOK {
				t.Fatalf("trial %d, observation %d: p99 = %v (ok=%v), sorted copy gives %v (ok=%v)",
					trial, i, got, gotOK, want, wantOK)
			}
		}
	}
}

// TestLatTrackerConcurrent races observers against hedge-delay readers
// (run it under -race). Every delay read must be an observed value or
// a clamp, and once the writers stop the window must equal a sorted
// copy of the ring.
func TestLatTrackerConcurrent(t *testing.T) {
	l := &latTracker{}
	min, max := 2*time.Millisecond, 40*time.Millisecond
	const writers, readers, perWriter = 4, 4, 3 * latWindow
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWriter; i++ {
				l.observe(time.Duration(1+rng.Intn(50)) * time.Millisecond)
			}
		}(int64(w))
	}
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				d := l.hedgeDelay(min, max)
				if d < min || d > max || d%time.Millisecond != 0 {
					errs <- fmt.Errorf("hedge delay %v is neither an observation nor a clamp", d)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	ring := slices.Clone(l.ring[:l.n])
	got, ok := l.p99()
	want, wantOK := refP99(ring)
	if got != want || ok != wantOK {
		t.Fatalf("after concurrent observes p99 = %v (ok=%v), sorted copy of the ring gives %v (ok=%v)", got, ok, want, wantOK)
	}
}

// BenchmarkHedgeDelay measures one proxied request's tracker cost at a
// full window: one observe (its latency) and one hedgeDelay (its hedge
// trigger).
func BenchmarkHedgeDelay(b *testing.B) {
	l := &latTracker{}
	rng := rand.New(rand.NewSource(1))
	vals := make([]time.Duration, 4096)
	for i := range vals {
		vals[i] = time.Duration(200+rng.Intn(2000)) * time.Microsecond
	}
	for i := 0; i < latWindow; i++ {
		l.observe(vals[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.observe(vals[i%len(vals)])
		sinkDelay = l.hedgeDelay(20*time.Millisecond, 2*time.Second)
	}
}

var sinkDelay time.Duration
