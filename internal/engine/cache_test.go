package engine

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"givetake/internal/comm"
)

// TestCacheKeyDiscriminates: every input that can change the rendered
// bytes must change the key; identical inputs must collide.
func TestCacheKeyDiscriminates(t *testing.T) {
	base := CacheKey("src", comm.Opts{})
	if CacheKey("src", comm.Opts{}) != base {
		t.Fatal("identical inputs must share a key")
	}
	variants := []string{
		CacheKey("src2", comm.Opts{}),
		CacheKey("src", comm.Opts{SuppressHoist: true}),
		CacheKey("src", comm.Opts{}, "execute=true"),
		CacheKey("src", comm.Opts{}, "n=8"),
	}
	seen := map[string]bool{base: true}
	for i, v := range variants {
		if seen[v] {
			t.Fatalf("variant %d collides", i)
		}
		seen[v] = true
	}
	// extras must not concatenate ambiguously: ("ab","c") != ("a","bc")
	if CacheKey("s", comm.Opts{}, "ab", "c") == CacheKey("s", comm.Opts{}, "a", "bc") {
		t.Fatal("extra-field framing is ambiguous")
	}
}

// TestDoHitMissFollow drives the three cache sources and checks the
// bytes are identical in all of them.
func TestDoHitMissFollow(t *testing.T) {
	e := New(Config{Workers: 2})
	key := CacheKey(loopSrc, comm.Opts{})
	var computes atomic.Int64
	compute := func(ctx context.Context) (Cached, bool, error) {
		computes.Add(1)
		return Cached{Status: 200, Body: []byte(`{"ok":true}`)}, true, nil
	}

	cold, src, err := e.Do(context.Background(), key, compute)
	if err != nil || src != CacheMiss {
		t.Fatalf("cold: src=%v err=%v", src, err)
	}
	warm, src, err := e.Do(context.Background(), key, compute)
	if err != nil || src != CacheHit {
		t.Fatalf("warm: src=%v err=%v", src, err)
	}
	if !bytes.Equal(cold.Body, warm.Body) || cold.Status != warm.Status {
		t.Fatal("warm hit must be byte-identical to cold miss")
	}
	if computes.Load() != 1 {
		t.Fatalf("computed %d times, want 1", computes.Load())
	}
	st := e.Stats().Cache
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit 1 miss", st)
	}
}

// TestSingleFlight: a thundering herd of identical requests costs
// exactly one compute — concurrent arrivals share the leader's flight,
// stragglers hit the cache — and every request gets identical bytes.
func TestSingleFlight(t *testing.T) {
	e := New(Config{Workers: 4})
	key := CacheKey("herd", comm.Opts{})
	leaderIn := make(chan struct{})
	gate := make(chan struct{})
	var computes atomic.Int64
	compute := func(ctx context.Context) (Cached, bool, error) {
		computes.Add(1)
		close(leaderIn)
		<-gate
		return Cached{Status: 200, Body: []byte("herd-result")}, true, nil
	}

	const herd = 16
	results := make([]Cached, herd)
	sources := make([]CacheSource, herd)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the leader: first in, blocks inside compute
		defer wg.Done()
		results[0], sources[0], _ = e.Do(context.Background(), key, compute)
	}()
	<-leaderIn
	wg.Add(herd - 1)
	for i := 1; i < herd; i++ {
		go func(i int) {
			defer wg.Done()
			results[i], sources[i], _ = e.Do(context.Background(), key, compute)
		}(i)
	}
	close(gate)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("herd of %d computed %d times, want 1", herd, n)
	}
	if sources[0] != CacheMiss {
		t.Fatalf("leader source = %v, want miss", sources[0])
	}
	for i := 1; i < herd; i++ {
		if !bytes.Equal(results[i].Body, results[0].Body) {
			t.Fatalf("request %d bytes differ from leader", i)
		}
		if sources[i] != CacheFollow && sources[i] != CacheHit {
			t.Fatalf("request %d source = %v, want follow or hit", i, sources[i])
		}
	}
}

// TestFollowerTakesOverCanceledLeader: when the leader's context dies
// mid-compute, a follower with a live context retries instead of
// inheriting the cancellation.
func TestFollowerTakesOverCanceledLeader(t *testing.T) {
	e := New(Config{Workers: 2})
	key := CacheKey("takeover", comm.Opts{})
	leaderIn := make(chan struct{})
	var calls atomic.Int64
	leaderCtx, cancelLeader := context.WithCancel(context.Background())

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := e.Do(leaderCtx, key, func(ctx context.Context) (Cached, bool, error) {
			calls.Add(1)
			close(leaderIn)
			<-ctx.Done()
			return Cached{}, false, ctx.Err()
		})
		if err == nil {
			t.Error("canceled leader should fail")
		}
	}()

	<-leaderIn
	done := make(chan struct{})
	go func() {
		defer close(done)
		val, _, err := e.Do(context.Background(), key, func(ctx context.Context) (Cached, bool, error) {
			calls.Add(1)
			return Cached{Status: 200, Body: []byte("second-try")}, true, nil
		})
		if err != nil || string(val.Body) != "second-try" {
			t.Errorf("takeover failed: %q %v", val.Body, err)
		}
	}()
	cancelLeader()
	wg.Wait()
	<-done
	if calls.Load() != 2 {
		t.Fatalf("calls = %d, want leader + takeover = 2", calls.Load())
	}
}

// TestCacheEvictionBound fills the cache past its byte bound and checks
// the bound holds, oldest entries go first, and evictions are counted.
func TestCacheEvictionBound(t *testing.T) {
	const maxBytes = 4096
	e := New(Config{Workers: 1, CacheBytes: maxBytes})
	body := bytes.Repeat([]byte("x"), 900)
	for i := 0; i < 12; i++ {
		key := CacheKey(fmt.Sprintf("prog-%d", i), comm.Opts{})
		_, _, _ = e.Do(context.Background(), key, func(ctx context.Context) (Cached, bool, error) {
			return Cached{Status: 200, Body: body}, true, nil
		})
	}
	st := e.Stats().Cache
	if st.Bytes > maxBytes {
		t.Fatalf("cache holds %d bytes, bound %d", st.Bytes, maxBytes)
	}
	if st.Evictions == 0 {
		t.Fatal("filling past the bound must evict")
	}
	// oldest entry evicted, newest retained
	if _, ok := e.cache.get(CacheKey("prog-0", comm.Opts{})); ok {
		t.Fatal("oldest entry should have been evicted")
	}
	if _, ok := e.cache.get(CacheKey("prog-11", comm.Opts{})); !ok {
		t.Fatal("newest entry should be cached")
	}
	// an entry larger than the whole bound is refused outright
	_, _, _ = e.Do(context.Background(), CacheKey("huge", comm.Opts{}),
		func(ctx context.Context) (Cached, bool, error) {
			return Cached{Status: 200, Body: bytes.Repeat([]byte("y"), maxBytes+1)}, true, nil
		})
	if _, ok := e.cache.get(CacheKey("huge", comm.Opts{})); ok {
		t.Fatal("oversized value must not be cached")
	}
	if got := e.Stats().Cache.Bytes; got > maxBytes {
		t.Fatalf("bound broken after oversized put: %d", got)
	}
}

// TestDoNotCacheable: compute can veto storage (nondeterministic
// responses) while still deduplicating concurrent identical requests.
func TestDoNotCacheable(t *testing.T) {
	e := New(Config{Workers: 1})
	key := CacheKey("veto", comm.Opts{})
	var computes atomic.Int64
	compute := func(ctx context.Context) (Cached, bool, error) {
		computes.Add(1)
		return Cached{Status: 500, Body: []byte("transient")}, false, nil
	}
	for i := 0; i < 3; i++ {
		if _, src, _ := e.Do(context.Background(), key, compute); src != CacheMiss {
			t.Fatalf("call %d: src=%v, want miss every time", i, src)
		}
	}
	if computes.Load() != 3 {
		t.Fatalf("vetoed value was cached: %d computes", computes.Load())
	}
}
