package journal

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"time"
)

// rec builds a deterministic test record. Bodies avoid the batch magic
// byte 'G' so resync tests can rely on exact batch boundaries.
func rec(i int) Record {
	body := make([]byte, 64+i%97)
	r := rand.New(rand.NewSource(int64(i) + 1))
	const alphabet = "abcdefhijklmnopqrstuvwxyz0123456789"
	for k := range body {
		body[k] = alphabet[r.Intn(len(alphabet))]
	}
	return Record{Key: fmt.Sprintf("key-%04d", i), Status: 200, Body: body}
}

// fill appends n records and flushes them in batches of batchSize.
func fill(t *testing.T, j *Journal, n, batchSize int) []Record {
	t.Helper()
	recs := make([]Record, n)
	for i := 0; i < n; i++ {
		recs[i] = rec(i)
		j.Append(recs[i])
		if (i+1)%batchSize == 0 {
			if err := j.Flush(); err != nil {
				t.Fatalf("flush at %d: %v", i, err)
			}
		}
	}
	if err := j.Flush(); err != nil {
		t.Fatalf("final flush: %v", err)
	}
	return recs
}

// replayAll replays a backend's full segment set into a slice.
func replayAll(t *testing.T, b Backend) ([]Record, ReplayStats) {
	t.Helper()
	names, err := b.Segments()
	if err != nil {
		t.Fatalf("segments: %v", err)
	}
	var got []Record
	st, err := Replay(b, names, func(r Record) { got = append(got, r) })
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got, st
}

func assertIdentical(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Key != want[i].Key || got[i].Status != want[i].Status ||
			!bytes.Equal(got[i].Body, want[i].Body) {
			t.Fatalf("record %d differs after replay: key %q status %d len %d, want key %q status %d len %d",
				i, got[i].Key, got[i].Status, len(got[i].Body),
				want[i].Key, want[i].Status, len(want[i].Body))
		}
	}
}

// TestRoundTrip: append → flush → replay yields byte-identical records
// in commit order, with zero corruption counted.
func TestRoundTrip(t *testing.T) {
	mb := NewMemBackend()
	j, err := Open(Config{Backend: mb, MaxWait: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	want := fill(t, j, 57, 10)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := Open(Config{Backend: mb})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	var got []Record
	st, err := j2.Replay(func(r Record) { got = append(got, r) })
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, got, want)
	if st.Corrupt() {
		t.Fatalf("clean journal reported corruption: %+v", st)
	}
	if st.Records != 57 || st.Batches != 6 {
		t.Fatalf("replay stats %+v, want 57 records in 6 batches", st)
	}
}

// TestFileBackendRoundTrip: same contract through real files + fsync.
func TestFileBackendRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "journal")
	fb, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	j, err := Open(Config{Backend: fb, MaxWait: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	want := fill(t, j, 23, 7)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// a second open must not touch existing segments: new appends go
	// to a fresh one
	fb2, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := Open(Config{Backend: fb2, MaxWait: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	j2.Append(rec(1000))
	if err := j2.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}

	got, st := replayAll(t, fb2)
	assertIdentical(t, got, append(want, rec(1000)))
	if st.Corrupt() {
		t.Fatalf("clean file journal reported corruption: %+v", st)
	}
	names, _ := fb2.Segments()
	if len(names) != 2 {
		t.Fatalf("want 2 segments (one per journal generation), got %v", names)
	}
}

// TestSizeTriggeredFlush: reaching MaxBatch records, or 1 MiB of
// pending payload, seals without Flush, Close or timer help.
func TestSizeTriggeredFlush(t *testing.T) {
	big := func(i int) Record {
		return Record{Key: fmt.Sprintf("key-%04d", i), Status: 200, Body: bytes.Repeat([]byte{'a'}, 64<<10)}
	}
	for _, tc := range []struct {
		name        string
		maxBatch, n int
		rec         func(int) Record
	}{
		{"records", 8, 8, rec},
		// 16 records of 64 KiB plus key and status reach 1 MiB only with
		// the last one.
		{"bytes", 1 << 20, 16, big},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mb := NewMemBackend()
			j, err := Open(Config{Backend: mb, MaxBatch: tc.maxBatch, MaxWait: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			for i := 0; i < tc.n; i++ {
				j.Append(tc.rec(i))
			}
			deadline := time.Now().Add(5 * time.Second)
			for {
				if st := j.Stats(); st.SealedBatches >= 1 {
					if st.SealedRecords != int64(tc.n) || st.PendingRecords != 0 {
						t.Fatalf("stats after size-triggered seal: %+v", st)
					}
					return
				}
				if time.Now().After(deadline) {
					t.Fatalf("size trigger never flushed: %+v", j.Stats())
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestWaitTriggeredFlush: a lone record becomes durable within the
// MaxWait bound (plus scheduling slack) with no size trigger.
func TestWaitTriggeredFlush(t *testing.T) {
	mb := NewMemBackend()
	j, err := Open(Config{Backend: mb, MaxBatch: 1 << 20, MaxWait: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	j.Append(rec(0))
	deadline := time.Now().Add(5 * time.Second)
	for j.Stats().SealedRecords == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("wait trigger never flushed: %+v", j.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSegmentRotation: exceeding MaxSegmentBytes starts a new segment,
// and replay spans all of them.
func TestSegmentRotation(t *testing.T) {
	mb := NewMemBackend()
	j, err := Open(Config{Backend: mb, MaxWait: time.Hour, MaxSegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	want := fill(t, j, 40, 4)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	names, _ := mb.Segments()
	if len(names) < 2 {
		t.Fatalf("want rotation across segments, got %v", names)
	}
	got, st := replayAll(t, mb)
	assertIdentical(t, got, want)
	if st.Corrupt() {
		t.Fatalf("rotated journal reported corruption: %+v", st)
	}
}

// TestCloseFlushesPending is the graceful-drain contract: Close seals
// the pending batch before stopping.
func TestCloseFlushesPending(t *testing.T) {
	mb := NewMemBackend()
	j, err := Open(Config{Backend: mb, MaxWait: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	j.Append(rec(0))
	j.Append(rec(1))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := replayAll(t, mb)
	assertIdentical(t, got, []Record{rec(0), rec(1)})
	// appends after Close are dropped, not crashed
	j.Append(rec(2))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAbortDropsPending is the SIGKILL contract: Abort seals nothing.
func TestAbortDropsPending(t *testing.T) {
	mb := NewMemBackend()
	j, err := Open(Config{Backend: mb, MaxWait: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	j.Append(rec(0))
	j.Abort()
	mb.Crash()
	got, _ := replayAll(t, mb)
	if len(got) != 0 {
		t.Fatalf("aborted journal replayed %d records, want 0", len(got))
	}
	if d := j.Stats().DroppedRecords; d != 1 {
		t.Fatalf("dropped = %d, want 1", d)
	}
}

// TestNilJournal: every method tolerates a nil receiver, so callers
// thread an optional journal without branching.
func TestNilJournal(t *testing.T) {
	var j *Journal
	j.Append(rec(0))
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Replay(func(Record) {}); err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st != (Stats{}) {
		t.Fatalf("nil stats = %+v", st)
	}
	j.Abort()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestJournalLag: pending records/bytes are visible before the seal
// and zero after.
func TestJournalLag(t *testing.T) {
	mb := NewMemBackend()
	j, err := Open(Config{Backend: mb, MaxWait: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	j.Append(rec(0))
	j.Append(rec(1))
	st := j.Stats()
	if st.PendingRecords != 2 || st.PendingBytes <= 0 {
		t.Fatalf("lag not visible: %+v", st)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	st = j.Stats()
	if st.PendingRecords != 0 || st.PendingBytes != 0 || st.SealedRecords != 2 {
		t.Fatalf("lag not cleared: %+v", st)
	}
	if st.LastFlushMS < 0 || st.MaxFlushMS < st.LastFlushMS {
		t.Fatalf("flush timing inconsistent: %+v", st)
	}
}

// refMerkleRoot is the seal's definition written recursively: pair the
// level left to right, promote an odd last node, recurse until one
// hash is left.
func refMerkleRoot(level [][32]byte) [32]byte {
	if len(level) == 1 {
		return level[0]
	}
	var next [][32]byte
	for i := 0; i+1 < len(level); i += 2 {
		next = append(next, nodeHash(level[i], level[i+1]))
	}
	if len(level)%2 == 1 {
		next = append(next, level[len(level)-1])
	}
	return refMerkleRoot(next)
}

// TestMerkleRoot: the in-place level fold agrees with the recursive
// definition across tree sizes including the odd-promotion shapes, and
// flipping one byte of any payload changes the root.
func TestMerkleRoot(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 13} {
		payloads := make([][]byte, n)
		leaves := make([][32]byte, n)
		for i := range payloads {
			payloads[i] = encodeRecordPayload(rec(i))
			leaves[i] = leafHash(payloads[i])
		}
		root := merkleRoot(leaves)
		if want := refMerkleRoot(leaves); root != want {
			t.Fatalf("n=%d: merkleRoot %x, recursive definition %x", n, root, want)
		}
		for i := 0; i < n; i++ {
			tampered := append([][32]byte(nil), leaves...)
			flipped := append([]byte(nil), payloads[i]...)
			flipped[0] ^= 1
			tampered[i] = leafHash(flipped)
			if merkleRoot(tampered) == root {
				t.Fatalf("n=%d: flipping a byte of payload %d left the root unchanged", n, i)
			}
		}
	}
}

// TestSegmentNaming: replay order is lexicographic, and Open resumes
// numbering after the highest existing segment.
func TestSegmentNaming(t *testing.T) {
	if nextSegmentIndex(nil) != 0 {
		t.Fatal("empty backend must start at segment 0")
	}
	names := []string{SegmentName(0), SegmentName(3), SegmentName(11)}
	if got := nextSegmentIndex(names); got != 12 {
		t.Fatalf("nextSegmentIndex = %d, want 12", got)
	}
	if SegmentName(11) <= SegmentName(2) {
		t.Fatal("zero-padded names must sort in commit order")
	}
}
