package engine

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"givetake/internal/comm"
	"givetake/internal/journal"
)

// Cached is one content-addressed result: the rendered response bytes
// plus the transport status they were served with. The engine treats it
// as opaque — byte-identity between a cold miss, a warm hit, and a
// single-flight follower is guaranteed because all three read the same
// stored bytes.
type Cached struct {
	Status int
	Body   []byte
}

// size is the accounting weight of one entry against the cache's byte
// bound: body plus key plus bookkeeping overhead.
func (c Cached) size(key string) int64 { return int64(len(c.Body)) + int64(len(key)) + 64 }

// CacheSource reports how a Do call obtained its result.
type CacheSource string

const (
	// CacheMiss: this call led the single-flight group and computed.
	CacheMiss CacheSource = "miss"
	// CacheHit: the stored bytes were returned without computing.
	CacheHit CacheSource = "hit"
	// CacheFollow: an identical request was already in flight; this
	// call waited and shared its bytes.
	CacheFollow CacheSource = "follow"
	// CacheBypass: the request was not cacheable (e.g. chaos injection)
	// and was computed outside the cache and single-flight group.
	CacheBypass CacheSource = "bypass"
)

// CacheKey derives the content address of one analysis request: a
// SHA-256 over a versioned, canonical encoding of the source text, the
// canonicalized analysis options, and any caller extras (execution
// parameters, request timeouts — anything that can change the rendered
// bytes). Invalidation is purely generational: keys never alias across
// schema versions because the version tag is hashed in, and a binary
// whose output format changes must bump cacheKeyVersion.
func CacheKey(source string, opt comm.Opts, extra ...string) string {
	h := sha256.New()
	io.WriteString(h, cacheKeyVersion)
	// comm.Opts is canonicalized field by field; adding a field to Opts
	// must extend this encoding or stale entries would alias.
	fmt.Fprintf(h, "\x00suppress_hoist=%t", opt.SuppressHoist)
	for _, x := range extra {
		fmt.Fprintf(h, "\x00%d:", len(x))
		io.WriteString(h, x)
	}
	fmt.Fprintf(h, "\x00src:%d:", len(source))
	io.WriteString(h, source)
	return hex.EncodeToString(h.Sum(nil))
}

const cacheKeyVersion = "gnt-engine/v1"

// CacheStats is a point-in-time snapshot of the result cache. Every
// snapshot is internally consistent: all counters are read — and, on
// the update side, written — under one lock, so a snapshot can never
// observe a stored entry whose miss has not been counted yet. The
// invariant Misses+Replayed >= Entries+Evictions holds in every
// snapshot (each resident entry was stored by exactly one counted miss
// or journal replay).
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Followers int64 `json:"followers"`
	Evictions int64 `json:"evictions"`
	// Replayed counts entries warmed from the journal at startup; they
	// are resident without a miss ever being counted.
	Replayed int64 `json:"replayed"`
	Entries  int   `json:"entries"`
	Bytes    int64 `json:"bytes"`
	MaxBytes int64 `json:"max_bytes"`
}

// HitRate is hits/(hits+misses), 0 when nothing was looked up.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// cache is a byte-bounded LRU over Cached values. A zero-capacity
// cache (caching disabled) stores nothing but still counts hits,
// misses and followers.
type cache struct {
	mu    sync.Mutex
	max   int64
	bytes int64
	ll    *list.List // front = most recent
	idx   map[string]*list.Element

	hits, misses, followers, evictions, replayed int64
}

type cacheEntry struct {
	key string
	val Cached
}

func newCache(maxBytes int64) *cache {
	return &cache{max: max(maxBytes, 0), ll: list.New(), idx: map[string]*list.Element{}}
}

func (c *cache) get(key string) (Cached, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.idx[key]
	if !ok {
		return Cached{}, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	return el.Value.(*cacheEntry).val, true
}

// storeMiss atomically counts one single-flight miss and — when the
// computed value is storable — inserts it, under ONE lock acquisition.
// The store and its miss count used to be two separate critical
// sections, which let a /healthz snapshot land between them and report
// more resident entries than counted misses (hits < misses-adjusted
// totals, transiently).
func (c *cache) storeMiss(key string, val Cached, storable bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.misses++
	if storable {
		c.putLocked(key, val)
	}
}

// noteFollower counts one single-flight follower.
func (c *cache) noteFollower() {
	c.mu.Lock()
	c.followers++
	c.mu.Unlock()
}

// putReplay stores one journal-replayed entry, counting it as replayed
// rather than missed (no analysis ran).
func (c *cache) putReplay(key string, val Cached) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.putLocked(key, val) {
		c.replayed++
	}
}

// putLocked stores val unless it alone exceeds the byte bound (or the
// key is already resident), evicting from the LRU tail until the bound
// holds again. Caller holds c.mu. Reports whether a new entry was
// stored.
func (c *cache) putLocked(key string, val Cached) bool {
	sz := val.size(key)
	if sz > c.max {
		return false
	}
	if el, ok := c.idx[key]; ok {
		// a racing leader already stored it; refresh recency only (the
		// bytes are equivalent by key construction)
		c.ll.MoveToFront(el)
		return false
	}
	c.idx[key] = c.ll.PushFront(&cacheEntry{key: key, val: val})
	c.bytes += sz
	for c.bytes > c.max {
		tail := c.ll.Back()
		if tail == nil {
			break
		}
		ent := tail.Value.(*cacheEntry)
		c.ll.Remove(tail)
		delete(c.idx, ent.key)
		c.bytes -= ent.val.size(ent.key)
		c.evictions++
	}
	return true
}

func (c *cache) snapshot() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses, Followers: c.followers,
		Evictions: c.evictions, Replayed: c.replayed,
		Entries: c.ll.Len(), Bytes: c.bytes, MaxBytes: c.max,
	}
}

// flight is one in-progress computation that followers wait on.
type flight struct {
	done chan struct{}
	val  Cached
	err  error
}

// Do returns the content-addressed result for key: from the cache when
// stored, from an identical in-flight computation when one exists
// (single-flight — a thundering herd of identical requests costs one
// compute), or by running compute as the group leader. compute's second
// result reports whether its value is deterministic and may be stored;
// non-cacheable values still dedup concurrent identical requests.
//
// A follower whose leader was canceled does not inherit the
// cancellation: it retries and becomes the next leader, so one
// impatient client cannot fail the herd behind it.
//
// A stored value is also appended to the durable journal (when one is
// configured): the fill path is exactly the journal's bypass rule —
// whatever compute vetoes as non-cacheable (chaos injection, deadline-
// shaped responses) never reaches storage either.
func (e *Engine) Do(ctx context.Context, key string, compute func(context.Context) (Cached, bool, error)) (Cached, CacheSource, error) {
	for {
		if val, ok := e.cache.get(key); ok {
			return val, CacheHit, nil
		}
		e.mu.Lock()
		if fl, ok := e.flights[key]; ok {
			e.mu.Unlock()
			select {
			case <-fl.done:
			case <-ctx.Done():
				return Cached{}, CacheFollow, ctx.Err()
			}
			if fl.err != nil && isContextErr(fl.err) && ctx.Err() == nil {
				continue // leader was canceled, not us: take over
			}
			e.cache.noteFollower()
			return fl.val, CacheFollow, fl.err
		}
		// a leader may have stored and retired its flight since the
		// lookup above; it stores before it retires, so look again
		if val, ok := e.cache.get(key); ok {
			e.mu.Unlock()
			return val, CacheHit, nil
		}
		fl := &flight{done: make(chan struct{})}
		e.flights[key] = fl
		e.mu.Unlock()

		val, cacheable, err := compute(ctx)
		fl.val, fl.err = val, err

		storable := err == nil && cacheable
		// the miss and its store commit under one cache lock, so a
		// concurrent stats snapshot can never see the entry without
		// its miss (the old two-step update could); the store lands
		// before the flight is retired, so an arrival that finds no
		// flight finds the entry instead of computing again
		e.cache.storeMiss(key, val, storable)
		e.mu.Lock()
		delete(e.flights, key)
		e.mu.Unlock()
		close(fl.done)
		if storable {
			e.cfg.Journal.Append(journal.Record{Key: key, Status: val.Status, Body: val.Body})
		}
		return val, CacheMiss, err
	}
}

// WarmFromJournal replays the configured journal into the result
// cache: every verified (key, bytes) record becomes a resident entry,
// so a restarted node serves its pre-crash working set as cache hits
// instead of recomputing it into live traffic. Corrupt batches, torn
// tails, and truncated segments were already detected and skipped by
// the journal layer — they are counted in the returned stats and never
// admitted. ctx aborts a replay early (the cache keeps whatever was
// admitted so far). No-op without a journal.
func (e *Engine) WarmFromJournal(ctx context.Context) (journal.ReplayStats, error) {
	j := e.cfg.Journal
	if j == nil {
		return journal.ReplayStats{}, nil
	}
	start := time.Now()
	rs, err := j.Replay(func(r journal.Record) {
		if ctx.Err() != nil {
			return
		}
		e.cache.putReplay(r.Key, Cached{Status: r.Status, Body: r.Body})
	})
	rs.DurationMS = float64(time.Since(start).Microseconds()) / 1000
	if err == nil && ctx.Err() != nil {
		err = ctx.Err()
	}
	return rs, err
}

func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
