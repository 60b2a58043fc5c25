package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"givetake/internal/journal"
)

// counterDigest is the SHA-256 of the counter exposition hashed by
// TestCounterGolden. Any change to a counter family's name, HELP text,
// labels, or to how many times an event is counted changes it; a
// deliberate change to what /metrics counts must say so and re-record
// it.
const counterDigest = "16732efeaf8b37fbea538db7c2707a3e589c8731557ba8d42a119e1d1067067b"

// counterLines scrapes h's /metrics and returns the HELP, TYPE and
// sample lines of every counter family except gnt_obs_counter_total,
// a catch-all family no declared event could reach, since removed.
func counterLines(t *testing.T, h http.Handler) string {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", w.Code)
	}
	lines := strings.Split(strings.TrimSuffix(w.Body.String(), "\n"), "\n")
	counters := map[string]bool{}
	for _, ln := range lines {
		if f := strings.Fields(ln); len(f) == 4 && f[1] == "TYPE" && f[3] == "counter" {
			counters[f[2]] = f[2] != "gnt_obs_counter_total"
		}
	}
	var b strings.Builder
	for _, ln := range lines {
		var family string
		if strings.HasPrefix(ln, "# ") {
			family = strings.Fields(ln)[2]
		} else {
			family = ln[:strings.IndexAny(ln, "{ ")]
		}
		if counters[family] {
			b.WriteString(ln)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// post sends one JSON body to path on h and returns the status code.
func post(t *testing.T, h http.Handler, path string, body any) int {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(string(b))))
	return w.Code
}

// counterTraffic drives srv through the events every engine counter
// family counts, one request at a time so each count is exact:
// cache misses, hits and evictions; an admission shed behind a stalled
// request holding the only slot; a chaos rung-1 panic; a /batch; and a
// /healthz probe. With a journal, each phase's fills are sealed as one
// batch.
func counterTraffic(t *testing.T, srv *Server, h http.Handler) {
	t.Helper()
	want := func(label string, got, status int) {
		t.Helper()
		if got != status {
			t.Fatalf("%s: status %d, want %d", label, got, status)
		}
	}
	// six programs through a cache that holds two of them: 0 miss,
	// 1 miss, 0 hit, 2 miss (evicts 1), 1 miss (evicts 0), 0 miss
	// (evicts 2)
	for _, i := range []int{0, 1, 0, 2, 1, 0} {
		want(fmt.Sprintf("program %d", i), post(t, h, "/analyze", Request{Source: srcAt(i)}), http.StatusOK)
	}
	if err := srv.Journal().Flush(); err != nil {
		t.Fatal(err)
	}

	// a stalled request holds the only slot; the probe sheds
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if got := post(t, h, "/analyze", Request{Source: srcAt(3), Chaos: &ChaosSpec{StallMS: 300}}); got != http.StatusOK {
			t.Errorf("stalled request: status %d", got)
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.inFlight.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stalled request never took the slot")
		}
		time.Sleep(time.Millisecond)
	}
	want("probe", post(t, h, "/analyze", Request{Source: srcAt(4)}), http.StatusTooManyRequests)
	wg.Wait()

	want("rung-1 panic", post(t, h, "/analyze", Request{Source: srcAt(5), Chaos: &ChaosSpec{PanicRung: "full"}}), http.StatusOK)

	// one worker runs the batch in order: 6 miss (evicts 1), 0 hit,
	// 7 miss (evicts 6)
	want("batch", post(t, h, "/batch", BatchRequest{Requests: []Request{
		{Source: srcAt(6)}, {Source: srcAt(0)}, {Source: srcAt(7)},
	}}), http.StatusOK)
	if err := srv.Journal().Flush(); err != nil {
		t.Fatal(err)
	}
	want("program 8", post(t, h, "/analyze", Request{Source: srcAt(8)}), http.StatusOK)
	if err := srv.Journal().Flush(); err != nil {
		t.Fatal(err)
	}

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	want("healthz", w.Code, http.StatusOK)
}

// waitReplayed blocks until srv finished replaying its journal.
func waitReplayed(t *testing.T, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !srv.Ready() {
		if time.Now().After(deadline) {
			t.Fatal("journal replay never finished")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCounterGolden pins every counter family /metrics exposes, HELP
// and TYPE lines included, after a fixed scenario: the traffic above
// through a cache that holds two responses and again with caching
// disabled, then a restart on the same journal storage with the first
// sealed batch bit-flipped and the last one torn, so the replay
// families move. Where a count is kept may change; what /metrics says
// after this scenario may not.
func TestCounterGolden(t *testing.T) {
	sum := sha256.New()
	scrape := func(label string, h http.Handler) {
		lines := counterLines(t, h)
		t.Logf("%s:\n%s", label, lines)
		fmt.Fprintf(sum, "%s\n%s", label, lines)
	}
	// a response weighs about 810 bytes against the cache bound, so
	// 2000 bytes hold exactly two of them whatever their timing fields
	cfg := Config{
		Workers: 1, QueueTimeout: 20 * time.Millisecond,
		CacheBytes: 2000, AllowChaos: true,
		JournalBackend: journal.NewMemBackend(), JournalFlushWait: time.Hour,
	}
	mb := cfg.JournalBackend.(*journal.MemBackend)

	srv := mustNew(t, cfg)
	waitReplayed(t, srv)
	counterTraffic(t, srv, srv.Handler())
	scrape("cached", srv.Handler())
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// bit rot in the first batch's first record, a torn last batch
	segs, err := mb.Segments()
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v, %v; want one", segs, err)
	}
	if !mb.FlipBit(segs[0], 56+8+16, 3) || !mb.Truncate(segs[0], mb.Size(segs[0])-5) {
		t.Fatal("could not corrupt the journal segment")
	}
	restarted := mustNew(t, cfg)
	waitReplayed(t, restarted)
	h := restarted.Handler()
	// 6 and 7 replayed as hits; 9 misses and evicts one of them
	for _, i := range []int{6, 7, 9} {
		if got := post(t, h, "/analyze", Request{Source: srcAt(i)}); got != http.StatusOK {
			t.Fatalf("restarted program %d: status %d", i, got)
		}
	}
	scrape("restarted", h)

	off := cfg
	off.CacheBytes, off.JournalBackend = -1, nil
	uncached := mustNew(t, off)
	counterTraffic(t, uncached, uncached.Handler())
	scrape("uncached", uncached.Handler())

	if got := hex.EncodeToString(sum.Sum(nil)); got != counterDigest {
		t.Fatalf("counter digest %s, want %s", got, counterDigest)
	}
}
