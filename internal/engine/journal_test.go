package engine

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"givetake/internal/comm"
	"givetake/internal/journal"
)

// TestJournalRestartByteIdentity: results computed through one engine
// survive a graceful shutdown in the journal and come back, byte-
// identical, as cache hits in a fresh engine warmed by replay — without
// compute ever running again.
func TestJournalRestartByteIdentity(t *testing.T) {
	mb := journal.NewMemBackend()
	j, err := journal.Open(journal.Config{Backend: mb, MaxWait: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	e1 := New(Config{Workers: 2, Journal: j})
	want := map[string]Cached{}
	for i := 0; i < 25; i++ {
		key := CacheKey(fmt.Sprintf("prog-%d", i), comm.Opts{})
		body := []byte(fmt.Sprintf(`{"result":%d,"pad":"xxxxxxxxxxxxxxxx"}`, i))
		val, src, err := e1.Do(context.Background(), key, func(context.Context) (Cached, bool, error) {
			return Cached{Status: 200, Body: body, Meta: len(body)}, true, nil
		})
		if err != nil || src != CacheMiss {
			t.Fatalf("fill %d: src=%v err=%v", i, src, err)
		}
		want[key] = val
	}
	if err := j.Close(); err != nil { // graceful drain: pending batch seals
		t.Fatal(err)
	}

	j2, err := journal.Open(journal.Config{Backend: mb})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	e2 := New(Config{Workers: 2, Journal: j2})
	// the journal keeps no Meta: replay rebuilds it from each body
	rs, err := e2.WarmFromJournal(context.Background(), func(body []byte) any { return len(body) })
	if err != nil {
		t.Fatal(err)
	}
	if rs.Records != 25 || rs.Corrupt() {
		t.Fatalf("replay stats %+v, want 25 clean records", rs)
	}
	if st := e2.Stats().Cache; st.Replayed != 25 || st.Entries != 25 {
		t.Fatalf("warm cache stats %+v, want 25 replayed entries", st)
	}
	for key, w := range want {
		got, src, err := e2.Do(context.Background(), key, func(context.Context) (Cached, bool, error) {
			t.Fatalf("compute ran for %q after warm replay", key)
			return Cached{}, false, nil
		})
		if err != nil || src != CacheHit {
			t.Fatalf("warm %q: src=%v err=%v", key, src, err)
		}
		if got.Status != w.Status || !bytes.Equal(got.Body, w.Body) {
			t.Fatalf("warm bytes for %q differ from originally served", key)
		}
		if got.Meta != w.Meta {
			t.Fatalf("warm meta for %q = %v, want %v rebuilt at replay", key, got.Meta, w.Meta)
		}
	}
}

// TestJournalBypassesNonCacheable: values compute vetoes as non-
// cacheable (chaos injections, deadline-shaped responses) never reach
// the journal, and neither do errors.
func TestJournalBypassesNonCacheable(t *testing.T) {
	mb := journal.NewMemBackend()
	j, err := journal.Open(journal.Config{Backend: mb, MaxWait: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{Workers: 2, Journal: j})

	e.Do(context.Background(), CacheKey("chaos", comm.Opts{}), func(context.Context) (Cached, bool, error) {
		return Cached{Status: 500, Body: []byte("chaos")}, false, nil
	})
	e.Do(context.Background(), CacheKey("boom", comm.Opts{}), func(context.Context) (Cached, bool, error) {
		return Cached{}, true, fmt.Errorf("analysis failed")
	})
	e.Do(context.Background(), CacheKey("good", comm.Opts{}), func(context.Context) (Cached, bool, error) {
		return Cached{Status: 200, Body: []byte("good")}, true, nil
	})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	names, _ := mb.Segments()
	var keys []string
	if _, err := journal.Replay(mb, names, func(r journal.Record) { keys = append(keys, r.Key) }); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != CacheKey("good", comm.Opts{}) {
		t.Fatalf("journal holds %v, want only the storable result", keys)
	}
}

// TestCacheStatsInvariantUnderHammer is the regression test for the
// stats race: misses and their stores used to commit in two separate
// critical sections, so a concurrent snapshot could observe a resident
// entry whose miss was not counted yet. Now every snapshot taken while
// a batch of concurrent fills, hits, and replays is in flight must
// satisfy Misses+Replayed >= Entries+Evictions.
func TestCacheStatsInvariantUnderHammer(t *testing.T) {
	mb := journal.NewMemBackend()
	j, err := journal.Open(journal.Config{Backend: mb, MaxWait: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	// small cache bound forces constant eviction alongside the fills
	e := New(Config{Workers: 4, CacheBytes: 16 << 10, Journal: j})

	stop := make(chan struct{})
	var snapErr error
	var snapOnce sync.Once
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := e.Stats().Cache
			if st.Misses+st.Replayed < int64(st.Entries)+st.Evictions {
				snapOnce.Do(func() {
					snapErr = fmt.Errorf("snapshot violates invariant: %+v", st)
				})
				return
			}
		}
	}()

	const workers, per = 8, 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				// half the keyspace collides across workers: hits and
				// followers mix with misses and evictions
				key := CacheKey(fmt.Sprintf("hammer-%d", (w*per+i)%(workers*per/2)), comm.Opts{})
				body := bytes.Repeat([]byte{byte(i)}, 256+i%512)
				e.Do(context.Background(), key, func(context.Context) (Cached, bool, error) {
					return Cached{Status: 200, Body: body}, true, nil
				})
				if i%97 == 0 {
					// replay into the live cache mid-hammer: putReplay
					// must hold the same invariant
					e.WarmFromJournal(context.Background(), noMeta)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	snapWG.Wait()
	if snapErr != nil {
		t.Fatal(snapErr)
	}
	st := e.Stats().Cache
	if st.Misses+st.Replayed < int64(st.Entries)+st.Evictions {
		t.Fatalf("final stats violate invariant: %+v", st)
	}
	if st.Evictions == 0 {
		t.Fatalf("hammer never evicted (cache bound too large to exercise the race): %+v", st)
	}
}

// noMeta is a replay meta function for tests that store no Meta.
func noMeta([]byte) any { return nil }

// TestWarmFromJournalNil: warming without a journal is a clean no-op.
func TestWarmFromJournalNil(t *testing.T) {
	e := New(Config{Workers: 1})
	rs, err := e.WarmFromJournal(context.Background(), noMeta)
	if err != nil || rs.Records != 0 {
		t.Fatalf("nil journal warm: %+v, %v", rs, err)
	}
}
