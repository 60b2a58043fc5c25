package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"givetake/internal/serve"
)

// loadCorpus reads the repo's .f corpus (figures + kernels); missing
// files are skipped so the harness also runs from unusual working
// directories.
func loadCorpus(t *testing.T) []string {
	t.Helper()
	var out []string
	for _, pat := range []string{"../../../testdata/*.f", "../../../testdata/kernels/*.f"} {
		files, _ := filepath.Glob(pat)
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err == nil {
				out = append(out, string(b))
			}
		}
	}
	return out
}

// TestChaos replays a mixed adversarial stream — corpus and generated
// programs, malformed and oversized sources, injected panics, solution
// corruptions, and 1ms deadline storms — against a live server with a
// small in-flight pool, concurrently. The service contract under fire:
//
//   - the process never crashes (any panic escaping the handler would
//     fail the test run itself);
//   - every request receives structured JSON, and every 200 names the
//     ladder rung that produced it with a cleanly verified placement;
//   - injected rung-1 panics never surface as 500s — the ladder
//     answers from a lower rung.
//
// The stream is 200 requests by default; set GNT_CHAOS_SECONDS to run
// time-boxed instead (the CI soak job uses 60).
func TestChaos(t *testing.T) {
	srv, err := serve.New(serve.Config{
		Workers:        4,
		QueueTimeout:   5 * time.Second,
		RequestTimeout: 5 * time.Second,
		MaxSteps:       200_000,
		MaxSourceBytes: 1 << 16,
		AllowChaos:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A concurrent scraper holds the telemetry layer to its invariants
	// for the whole soak: every scrape parses strictly, histogram
	// buckets stay cumulative, and no counter ever goes backwards.
	stopScraper := make(chan struct{})
	scraperDone := make(chan struct{})
	go func() {
		defer close(scraperDone)
		watchMetrics(t, ts.URL, stopScraper)
	}()

	const defaultRequests = 200
	deadline := time.Time{}
	if s := os.Getenv("GNT_CHAOS_SECONDS"); s != "" {
		secs, err := strconv.Atoi(s)
		if err != nil || secs <= 0 {
			t.Fatalf("bad GNT_CHAOS_SECONDS=%q", s)
		}
		deadline = time.Now().Add(time.Duration(secs) * time.Second)
	}

	type job struct {
		req  serve.Request
		kind Kind
	}
	jobs := make(chan job)
	var (
		done     atomic.Int64
		mu       sync.Mutex
		byKind   = map[Kind]int{}
		byRung   = map[string]int{}
		byStatus = map[int]int{}
	)

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Timeout: 30 * time.Second}
			for j := range jobs {
				body, err := json.Marshal(j.req)
				if err != nil {
					t.Errorf("marshal: %v", err)
					continue
				}
				hr, err := client.Post(ts.URL+"/analyze", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("%s: transport error: %v", j.kind, err)
					continue
				}
				var resp serve.Response
				decErr := json.NewDecoder(hr.Body).Decode(&resp)
				if err := hr.Body.Close(); err != nil {
					t.Errorf("%s: closing the response body: %v", j.kind, err)
				}
				if decErr != nil {
					t.Errorf("%s: status %d body is not structured JSON: %v",
						j.kind, hr.StatusCode, decErr)
					continue
				}
				verdict := audit(j.kind, hr.StatusCode, &resp)
				if verdict != "" {
					t.Errorf("%s: %s (status=%d resp=%+v)", j.kind, verdict, hr.StatusCode, &resp)
				}
				mu.Lock()
				byKind[j.kind]++
				byStatus[hr.StatusCode]++
				if resp.OK {
					byRung[resp.RungName]++
				}
				mu.Unlock()
				done.Add(1)
			}
		}()
	}

	gen := NewGen(1, loadCorpus(t))
	sent := 0
	for {
		if deadline.IsZero() {
			if sent >= defaultRequests {
				break
			}
		} else if time.Now().After(deadline) {
			break
		}
		req, kind := gen.Next()
		jobs <- job{req, kind}
		sent++
	}
	close(jobs)
	wg.Wait()
	close(stopScraper)
	<-scraperDone
	checkRequestAccounting(t, ts.URL, byStatus)

	if n := done.Load(); n < int64(sent) {
		t.Fatalf("only %d/%d requests completed", n, sent)
	}
	if sent < defaultRequests {
		t.Fatalf("stream too short: %d requests, want >= %d", sent, defaultRequests)
	}
	t.Logf("chaos: %d requests, kinds=%v rungs=%v statuses=%v", sent, byKind, byRung, byStatus)

	// the mixed stream must actually have descended the ladder
	if byRung["no-hoist"] == 0 {
		t.Error("stream never exercised rung 2 (no-hoist)")
	}
	if byRung["atomic"] == 0 {
		t.Error("stream never exercised rung 3 (atomic)")
	}
	if byStatus[http.StatusInternalServerError] > 0 {
		t.Errorf("%d requests got 500s; the ladder must absorb every injected failure",
			byStatus[http.StatusInternalServerError])
	}
}

// audit checks one response against the service contract; it returns a
// non-empty complaint on violation.
func audit(kind Kind, status int, resp *serve.Response) string {
	switch status {
	case http.StatusOK:
		if !resp.OK {
			return "200 with ok=false"
		}
		if resp.Rung < serve.RungFull || resp.Rung > serve.RungAtomic || resp.RungName == "" {
			return fmt.Sprintf("missing ladder rung: rung=%d name=%q", resp.Rung, resp.RungName)
		}
		if resp.Check == nil || resp.Check.Errors != 0 {
			return fmt.Sprintf("unverified placement served: %+v", resp.Check)
		}
		if resp.Annotated == "" {
			return "success without annotated source"
		}
		if kind == KindPanic && resp.Rung == serve.RungFull {
			return "rung-1 panic was injected but rung 1 still answered"
		}
	case http.StatusUnprocessableEntity:
		if resp.Code != "parse-error" && resp.Code != "chaos-disabled" {
			return fmt.Sprintf("422 with code %q", resp.Code)
		}
	case http.StatusRequestEntityTooLarge:
		if kind != KindOversized {
			return "unexpected 413"
		}
	case http.StatusTooManyRequests:
		if resp.Code != "overloaded" {
			return fmt.Sprintf("429 with code %q", resp.Code)
		}
	default:
		return fmt.Sprintf("unexpected status %d (code=%q err=%q)", status, resp.Code, resp.Error)
	}
	return ""
}
