package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"givetake/internal/journal"
)

// srcAt builds a distinct valid program per index, so every request
// has its own cache key and its own rendered bytes.
func srcAt(i int) string {
	return fmt.Sprintf("distributed x(1000)\nreal y(1000)\n\ndo i = 1, n\n    y(i) = x(i) + %d\nenddo\n", i+1)
}

// postSrc posts one analysis of src via the shared postRaw helper.
func postSrc(t *testing.T, url, src string) (int, string, []byte) {
	t.Helper()
	return postRaw(t, url, Request{Source: src})
}

// waitReady polls /readyz until it reports 200 or the deadline passes.
func waitReady(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		hr, err := http.Get(url + "/readyz")
		if err == nil {
			hr.Body.Close()
			if hr.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("/readyz never became ready")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCrashRestartWarmServe is the serve-level kill -9 harness: a node
// serves traffic into a journaled cache, dies without flushing (SIGKILL
// semantics — Abort plus backend crash, discarding everything
// unsynced), restarts on the same storage, reports ready once replay
// completes, and then serves the pre-crash working set as cache hits
// with byte-identical bodies.
func TestCrashRestartWarmServe(t *testing.T) {
	mb := journal.NewMemBackend()
	srv1 := mustNew(t, Config{JournalBackend: mb, JournalFlushWait: time.Millisecond})
	ts1 := httptest.NewServer(srv1.Handler())
	waitReady(t, ts1.URL)

	const n = 6
	bodies := map[string][]byte{}
	for i := 0; i < n; i++ {
		status, src, body := postSrc(t, ts1.URL, srcAt(i))
		if status != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, status, body)
		}
		if src != "miss" {
			t.Fatalf("request %d: cold serve reported %q, want miss", i, src)
		}
		bodies[srcAt(i)] = body
	}
	// wait for the group commit to seal everything served, then crash:
	// no drain, no final flush, unsynced bytes discarded
	deadline := time.Now().Add(5 * time.Second)
	for srv1.Journal().Stats().SealedRecords < n {
		if time.Now().After(deadline) {
			t.Fatalf("journal never sealed the served results: %+v", srv1.Journal().Stats())
		}
		time.Sleep(time.Millisecond)
	}
	ts1.Close()
	srv1.Journal().Abort()
	mb.Crash()

	srv2 := mustNew(t, Config{JournalBackend: mb})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	waitReady(t, ts2.URL)

	h := getHealth(t, ts2.URL)
	if h.Journal == nil || !h.Journal.ReplayDone {
		t.Fatalf("healthz journal block missing or not done: %+v", h.Journal)
	}
	if h.Journal.Replay.Records != n || h.Journal.Replay.Corrupt() {
		t.Fatalf("replay stats %+v, want %d clean records", h.Journal.Replay, n)
	}

	for src, want := range bodies {
		status, disp, got := postSrc(t, ts2.URL, src)
		if status != http.StatusOK {
			t.Fatalf("warm status %d: %s", status, got)
		}
		if disp != "hit" {
			t.Fatalf("restarted node served %q, want hit (replay did not warm the cache)", disp)
		}
		if string(got) != string(want) {
			t.Fatalf("warm bytes differ from pre-crash serve for %q", src)
		}
	}
}

// TestCrashLosesOnlyUnsealedTail: results the crash caught before their
// group commit are simply recomputed after restart — served as misses,
// not errors.
func TestCrashLosesOnlyUnsealedTail(t *testing.T) {
	mb := journal.NewMemBackend()
	// an hour-long flush wait: nothing seals unless the batch fills
	srv1 := mustNew(t, Config{JournalBackend: mb, JournalFlushWait: time.Hour})
	ts1 := httptest.NewServer(srv1.Handler())
	status, _, body := postSrc(t, ts1.URL, srcAt(0))
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	ts1.Close()
	srv1.Journal().Abort()
	mb.Crash()

	srv2 := mustNew(t, Config{JournalBackend: mb})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	waitReady(t, ts2.URL)
	status, disp, _ := postSrc(t, ts2.URL, srcAt(0))
	if status != http.StatusOK || disp != "miss" {
		t.Fatalf("lost-tail request: status %d disposition %q, want a clean recompute", status, disp)
	}
}

func getHealth(t *testing.T, url string) Health {
	t.Helper()
	hr, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var h Health
	if err := json.NewDecoder(hr.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestReadyzWithoutJournal: a journal-less server is ready immediately.
func TestReadyzWithoutJournal(t *testing.T) {
	srv := mustNew(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	hr, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("readyz = %d without a journal, want 200", hr.StatusCode)
	}
	if h := getHealth(t, ts.URL); h.Journal != nil {
		t.Fatalf("healthz reports a journal block without a journal: %+v", h.Journal)
	}
}

// TestOverloadRetryAfterAndAdmission: a shed request carries a
// Retry-After header derived from the queue timeout and the won/shed
// admission balance in its JSON body.
func TestOverloadRetryAfterAndAdmission(t *testing.T) {
	srv := mustNew(t, Config{
		MaxInFlight:  1,
		QueueTimeout: 30 * time.Millisecond,
		AllowChaos:   true,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// occupy the single slot long enough for the probe to shed
	blocked := make(chan struct{})
	go func() {
		defer close(blocked)
		b, _ := json.Marshal(Request{Source: srcAt(0), Chaos: &ChaosSpec{StallMS: 400}})
		hr, err := http.Post(ts.URL+"/analyze", "application/json", strings.NewReader(string(b)))
		if err == nil {
			io.Copy(io.Discard, hr.Body)
			hr.Body.Close()
		}
	}()
	// wait until the blocker holds the slot
	deadline := time.Now().Add(5 * time.Second)
	for srv.inFlight.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("blocker never took the slot")
		}
		time.Sleep(time.Millisecond)
	}

	b, _ := json.Marshal(Request{Source: srcAt(1)})
	hr, err := http.Post(ts.URL+"/analyze", "application/json", strings.NewReader(string(b)))
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	<-blocked
	if hr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", hr.StatusCode)
	}
	ra, err := strconv.Atoi(hr.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want an integer >= 1", hr.Header.Get("Retry-After"))
	}
	var resp Response
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Code != "overloaded" || resp.Admission == nil {
		t.Fatalf("shed body = %+v, want overloaded with admission counts", resp)
	}
	if resp.Admission.Shed < 1 {
		t.Fatalf("admission counts %+v do not include this shed", resp.Admission)
	}
}

// TestRetryAfterSeconds pins the rounding: sub-second timeouts floor at
// 1, longer ones round up.
func TestRetryAfterSeconds(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want int
	}{
		{30 * time.Millisecond, 1},
		{time.Second, 1},
		{1500 * time.Millisecond, 2},
		{2 * time.Second, 2},
	} {
		if got := RetryAfterSeconds(tc.d); got != tc.want {
			t.Errorf("RetryAfterSeconds(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
}
