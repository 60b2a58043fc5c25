// Package journal is the durable tier behind the engine's result
// cache: a write-behind, group-committed log of (CacheKey, rendered
// bytes) records that survives a SIGKILL and replays into a warm cache
// on restart.
//
// The design mirrors the balance discipline of the paper it serves:
// just as GIVE-N-TAKE proves every Recv is matched by a Send on every
// path (criterion C1), the journal proves every replayed byte is
// exactly what was committed, on every crash path. Three mechanisms
// carry that proof:
//
//   - CRC framing: every record is length-prefixed and carries a
//     CRC-32C over its payload, so a bit flip or a torn write is
//     detected at the record boundary (frame.go);
//
//   - Merkle sealing: a batch of records is committed as one unit
//     whose header carries the Merkle root over the records' leaf
//     hashes. A batch whose recomputed root does not match its sealed
//     root is dropped whole — reordering, splicing, and CRC-colliding
//     corruption cannot survive the seal (merkle.go);
//
//   - fsync-on-seal: a batch becomes durable with exactly one Sync
//     after its bytes are written. Everything after the last Sync is
//     presumed lost on crash; replay treats a partial batch at the
//     tail of a segment as a torn tail, not an error.
//
// Writes are group-committed by a write-behind batcher: Append
// enqueues and returns immediately, and a background flusher seals a
// batch when it reaches MaxBatch records (or 1 MiB of payload) or when
// the oldest pending record has waited MaxWait. The request path
// therefore never waits on fsync; the price is a bounded window of
// recent results (the unflushed batch) lost on crash, which for a
// cache warm-up tier is the right trade.
//
// Storage is pluggable behind the Backend interface (backend.go): an
// in-memory backend with explicit crash semantics for tests, a
// file-backed backend with real fsync for production, and a seeded
// fault-injecting wrapper (fault.go) that drives the crash-recovery
// torture tests. Replay (replay.go) never crashes and never admits
// corrupt bytes: torn tails, bit flips, and truncated segments are
// detected, counted, and skipped.
package journal

import (
	"fmt"
	"sync"
	"time"

	"givetake/internal/obs"
)

// Record is one journaled cache fill: the content address of an
// analysis request and the exact rendered bytes served for it. Body is
// stored and replayed verbatim — byte-identity between the originally
// served response and the replayed one is the journal's contract.
type Record struct {
	Key    string
	Status int
	Body   []byte
}

// size is the record's accounting weight against the batcher's byte
// trigger (payload bytes, ignoring frame overhead).
func (r Record) size() int64 { return int64(len(r.Key)) + int64(len(r.Body)) + 8 }

// Defaults for the zero Config.
const (
	DefaultMaxBatch        = 64
	DefaultMaxWait         = 50 * time.Millisecond
	DefaultMaxSegmentBytes = 64 << 20
)

// maxBatchBytes seals a batch when the pending payload reaches it,
// whatever MaxBatch says.
const maxBatchBytes = 1 << 20

// Config parameterizes a Journal.
type Config struct {
	// Backend is the segment store; required.
	Backend Backend
	// MaxBatch seals a batch when this many records are pending.
	MaxBatch int
	// MaxWait bounds how long a pending record waits before its batch
	// is sealed regardless of size (the journal-lag bound).
	MaxWait time.Duration
	// MaxSegmentBytes rotates to a fresh segment beyond this size.
	MaxSegmentBytes int64
	// Collector receives the journal.flush and journal.replay spans;
	// nil records nothing. Counts live in Stats and ReplayStats.
	Collector obs.Collector
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	if c.MaxWait <= 0 {
		c.MaxWait = DefaultMaxWait
	}
	if c.MaxSegmentBytes <= 0 {
		c.MaxSegmentBytes = DefaultMaxSegmentBytes
	}
	return c
}

// Stats is a point-in-time snapshot of the journal. PendingRecords and
// PendingBytes are the journal lag: results served but not yet
// durable, the window lost on a crash.
type Stats struct {
	Appended       int64   `json:"appended"`
	SealedBatches  int64   `json:"sealed_batches"`
	SealedRecords  int64   `json:"sealed_records"`
	SealedBytes    int64   `json:"sealed_bytes"`
	FlushErrors    int64   `json:"flush_errors"`
	DroppedRecords int64   `json:"dropped_records"`
	PendingRecords int     `json:"pending_records"`
	PendingBytes   int64   `json:"pending_bytes"`
	Segments       int     `json:"segments"`
	LastFlushMS    float64 `json:"last_flush_ms"`
	MaxFlushMS     float64 `json:"max_flush_ms"`
}

// Journal is the write-behind batcher over a Backend. Create with
// Open; Append from any goroutine; Close flushes the pending batch and
// stops the flusher. A nil *Journal tolerates every method and stores
// nothing, so callers thread an optional journal without branching.
type Journal struct {
	cfg Config

	mu           sync.Mutex // guards pending + stats
	pending      []Record
	pendingBytes int64
	stats        Stats
	closed       bool

	flushMu  sync.Mutex // serializes batch writes; never held with mu
	w        SegmentWriter
	wBytes   int64
	seq      uint64
	segIndex int

	replayNames []string // segments that existed at Open, in order

	kick chan struct{}
	done chan struct{}
	wg   sync.WaitGroup
}

// Open scans the backend for existing segments (they become the replay
// set) and starts the background flusher. New batches always go to a
// fresh segment: an existing segment may end in a torn batch, and the
// journal never appends after a tear.
func Open(cfg Config) (*Journal, error) {
	if cfg.Backend == nil {
		return nil, fmt.Errorf("journal: Config.Backend is required")
	}
	cfg = cfg.withDefaults()
	names, err := cfg.Backend.Segments()
	if err != nil {
		return nil, fmt.Errorf("journal: listing segments: %w", err)
	}
	j := &Journal{
		cfg:         cfg,
		segIndex:    nextSegmentIndex(names),
		replayNames: names,
		kick:        make(chan struct{}, 1),
		done:        make(chan struct{}),
	}
	j.wg.Add(1)
	go j.flusher()
	return j, nil
}

// Append enqueues one record for group commit and returns immediately.
// The record becomes durable at the next seal — within MaxWait, or
// sooner when the batch triggers fill. Safe on a nil journal.
func (j *Journal) Append(rec Record) {
	if j == nil {
		return
	}
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return
	}
	j.pending = append(j.pending, rec)
	j.pendingBytes += rec.size()
	j.stats.Appended++
	full := len(j.pending) >= j.cfg.MaxBatch || j.pendingBytes >= maxBatchBytes
	j.mu.Unlock()
	if full {
		select {
		case j.kick <- struct{}{}:
		default: // a kick is already queued
		}
	}
}

// flusher is the group-commit loop: it seals the pending batch when
// kicked (size trigger) or when the wait timer fires (latency bound).
func (j *Journal) flusher() {
	defer j.wg.Done()
	timer := time.NewTimer(j.cfg.MaxWait)
	defer timer.Stop()
	for {
		select {
		case <-j.kick:
			_ = j.Flush()
		case <-timer.C:
			_ = j.Flush()
			timer.Reset(j.cfg.MaxWait)
		case <-j.done:
			return
		}
	}
}

// Flush synchronously seals and commits the pending batch: encode,
// append to the current segment (rotating when full), and Sync — the
// durability barrier. Concurrent Appends are not blocked by the write.
// No-op when nothing is pending. Safe on a nil journal.
func (j *Journal) Flush() error {
	if j == nil {
		return nil
	}
	j.flushMu.Lock()
	defer j.flushMu.Unlock()

	j.mu.Lock()
	batch := j.pending
	j.pending = nil
	j.pendingBytes = 0
	j.mu.Unlock()
	if len(batch) == 0 {
		return nil
	}

	end := obs.Begin(j.cfg.Collector, obs.SpanJournalFlush, "records", len(batch))
	start := time.Now()
	err := j.commitLocked(batch)
	ms := float64(time.Since(start).Microseconds()) / 1000

	j.mu.Lock()
	j.stats.LastFlushMS = ms
	if ms > j.stats.MaxFlushMS {
		j.stats.MaxFlushMS = ms
	}
	if err != nil {
		j.stats.FlushErrors++
		j.stats.DroppedRecords += int64(len(batch))
	} else {
		j.stats.SealedBatches++
		j.stats.SealedRecords += int64(len(batch))
	}
	j.mu.Unlock()

	if err != nil {
		end("error", err.Error())
		return err
	}
	end()
	return nil
}

// commitLocked writes one sealed batch to the current segment. Called
// with flushMu held. A write or sync failure abandons the current
// segment (its tail may be garbage — replay tolerates that) and the
// next commit starts a fresh one.
func (j *Journal) commitLocked(batch []Record) error {
	buf := encodeBatch(j.seq, batch)
	if j.w != nil && j.wBytes+int64(len(buf)) > j.cfg.MaxSegmentBytes && j.wBytes > 0 {
		_ = j.w.Close()
		j.w, j.wBytes = nil, 0
	}
	if j.w == nil {
		w, err := j.cfg.Backend.Create(SegmentName(j.segIndex))
		if err != nil {
			return fmt.Errorf("journal: creating segment: %w", err)
		}
		j.segIndex++
		j.mu.Lock()
		j.stats.Segments++
		j.mu.Unlock()
		j.w = w
	}
	n, err := j.w.Write(buf)
	if err == nil && n < len(buf) {
		err = fmt.Errorf("journal: short write: %d of %d bytes", n, len(buf))
	}
	if err == nil {
		err = j.w.Sync()
	}
	if err != nil {
		_ = j.w.Close()
		j.w, j.wBytes = nil, 0
		return err
	}
	j.wBytes += int64(len(buf))
	j.seq++
	j.mu.Lock()
	j.stats.SealedBytes += int64(len(buf))
	j.mu.Unlock()
	return nil
}

// Replay streams every verified record from the segments that existed
// at Open time, in commit order, to fn. Corrupt batches, torn tails,
// and truncated segments are counted and skipped — Replay never fails
// on corruption, only on backend access errors.
func (j *Journal) Replay(fn func(Record)) (ReplayStats, error) {
	if j == nil {
		return ReplayStats{}, nil
	}
	end := obs.Begin(j.cfg.Collector, obs.SpanJournalReplay, "segments", len(j.replayNames))
	rs, err := Replay(j.cfg.Backend, j.replayNames, fn)
	end("records", rs.Records, "corrupt_batches", rs.CorruptBatches, "torn_tails", rs.TornTails)
	return rs, err
}

// Stats snapshots the journal counters. Safe on a nil journal.
func (j *Journal) Stats() Stats {
	if j == nil {
		return Stats{}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	s := j.stats
	s.PendingRecords = len(j.pending)
	s.PendingBytes = j.pendingBytes
	return s
}

// Close flushes the pending batch (the graceful-drain path: nothing
// served is left behind), stops the flusher, and closes the current
// segment. Idempotent; safe on a nil journal.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	if !j.stop() {
		return nil
	}
	err := j.Flush()
	j.flushMu.Lock()
	defer j.flushMu.Unlock()
	if j.w != nil {
		if cerr := j.w.Close(); err == nil {
			err = cerr
		}
		j.w = nil
	}
	return err
}

// Abort stops the journal WITHOUT flushing — SIGKILL semantics for
// crash tests: the pending batch and anything unsynced is abandoned
// exactly as a killed process would abandon it.
func (j *Journal) Abort() {
	if j == nil || !j.stop() {
		return
	}
	j.mu.Lock()
	j.stats.DroppedRecords += int64(len(j.pending))
	j.pending = nil
	j.pendingBytes = 0
	j.mu.Unlock()
	j.flushMu.Lock()
	defer j.flushMu.Unlock()
	if j.w != nil {
		_ = j.w.Close()
		j.w = nil
	}
}

// stop marks the journal closed and joins the flusher; reports whether
// this call was the one that closed it.
func (j *Journal) stop() bool {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return false
	}
	j.closed = true
	j.mu.Unlock()
	close(j.done)
	j.wg.Wait()
	return true
}
