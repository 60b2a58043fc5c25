package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func postJSON(t *testing.T, url string, body any) (*http.Response, *Response) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.Post(url+"/analyze", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var resp Response
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		t.Fatalf("response is not JSON: %v", err)
	}
	return hr, &resp
}

func TestHTTPAnalyzeRoundTrip(t *testing.T) {
	ts := httptest.NewServer(mustNew(t, Config{}).Handler())
	defer ts.Close()

	hr, resp := postJSON(t, ts.URL, Request{Source: goodSrc, Execute: true})
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (%+v)", hr.StatusCode, resp)
	}
	if !resp.OK || resp.Rung != RungFull || resp.RungName != "full" {
		t.Fatalf("want rung-1 success, got %+v", resp)
	}
	if !strings.Contains(resp.Annotated, "READ") {
		t.Fatal("annotated source should contain communication")
	}
	if resp.Trace == nil || resp.Trace.Messages == 0 {
		t.Fatalf("execute=true should attach a trace, got %+v", resp.Trace)
	}
	if len(resp.Phases) == 0 {
		t.Fatal("response should report pipeline phases")
	}
}

func TestHTTPStatusCodes(t *testing.T) {
	ts := httptest.NewServer(mustNew(t, Config{MaxSourceBytes: 512}).Handler())
	defer ts.Close()

	t.Run("parse-error-422", func(t *testing.T) {
		hr, resp := postJSON(t, ts.URL, Request{Source: "do i = oops"})
		if hr.StatusCode != http.StatusUnprocessableEntity || resp.Code != "parse-error" {
			t.Fatalf("status=%d code=%q, want 422 parse-error", hr.StatusCode, resp.Code)
		}
	})
	t.Run("chaos-disabled-422", func(t *testing.T) {
		hr, resp := postJSON(t, ts.URL, Request{Source: goodSrc, Chaos: &ChaosSpec{MutateSeed: 1}})
		if hr.StatusCode != http.StatusUnprocessableEntity || resp.Code != "chaos-disabled" {
			t.Fatalf("status=%d code=%q, want 422 chaos-disabled", hr.StatusCode, resp.Code)
		}
	})
	t.Run("bad-json-400", func(t *testing.T) {
		hr, err := http.Post(ts.URL+"/analyze", "application/json",
			strings.NewReader("{not json"))
		if err != nil {
			t.Fatal(err)
		}
		defer hr.Body.Close()
		var resp Response
		if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
			t.Fatalf("error response is not JSON: %v", err)
		}
		if hr.StatusCode != http.StatusBadRequest || resp.Code != "bad-json" {
			t.Fatalf("status=%d code=%q, want 400 bad-json", hr.StatusCode, resp.Code)
		}
	})
	t.Run("oversized-413", func(t *testing.T) {
		huge := Request{Source: strings.Repeat("s = 1\n", 1000)}
		hr, resp := postJSON(t, ts.URL, huge)
		if hr.StatusCode != http.StatusRequestEntityTooLarge || resp.Code != "too-large" {
			t.Fatalf("status=%d code=%q, want 413 too-large", hr.StatusCode, resp.Code)
		}
	})
	t.Run("get-405", func(t *testing.T) {
		hr, err := http.Get(ts.URL + "/analyze")
		if err != nil {
			t.Fatal(err)
		}
		hr.Body.Close()
		if hr.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("status = %d, want 405", hr.StatusCode)
		}
	})
}

func TestHTTPHealthz(t *testing.T) {
	ts := httptest.NewServer(mustNew(t, Config{}).Handler())
	defer ts.Close()
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var h Health
	if err := json.NewDecoder(hr.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.Engine.Pool.Workers != runtime.GOMAXPROCS(0) {
		t.Fatalf("healthz = %+v", h)
	}
}

// TestHTTPAdmissionControl saturates the engine's slots and asserts
// excess load is shed as structured 429s within the queue timeout, not
// queued unboundedly.
func TestHTTPAdmissionControl(t *testing.T) {
	cfg := Config{
		Workers:      1,
		QueueTimeout: 50 * time.Millisecond,
		AllowChaos:   true,
	}
	srv := mustNew(t, cfg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// occupy the single slot long enough for the others to time out of
	// the queue; taking it directly is deterministic
	free, err := srv.Engine().Admit(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(300 * time.Millisecond)
		free()
	}()

	hr, resp := postJSON(t, ts.URL, Request{Source: goodSrc})
	if hr.StatusCode != http.StatusTooManyRequests || resp.Code != "overloaded" {
		t.Fatalf("status=%d code=%q, want 429 overloaded", hr.StatusCode, resp.Code)
	}
	wg.Wait()

	// slot free again: the same request now succeeds
	hr, resp = postJSON(t, ts.URL, Request{Source: goodSrc})
	if hr.StatusCode != http.StatusOK || !resp.OK {
		t.Fatalf("post-overload request failed: status=%d %+v", hr.StatusCode, resp)
	}
	if srv.Engine().Stats().Pool.AdmissionShed == 0 {
		t.Fatal("shed counter should have recorded the 429")
	}
}

// TestAnalyzeAfterClose: Close only drains the journal, so a request
// that arrives after it is still analyzed and served on rung 1, with
// no panic on its ladder.
func TestAnalyzeAfterClose(t *testing.T) {
	srv := mustNew(t, Config{})
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	hr, resp := postJSON(t, ts.URL, Request{Source: goodSrc})
	if hr.StatusCode != http.StatusOK || resp.Rung != RungFull {
		t.Errorf("status %d, rung %d; want 200 at rung %d", hr.StatusCode, resp.Rung, RungFull)
	}
	for _, att := range resp.Ladder {
		if att.Outcome == "panic" {
			t.Errorf("rung %d (%s) panicked after Close: %s", att.Rung, att.Name, att.Detail)
		}
	}
}
