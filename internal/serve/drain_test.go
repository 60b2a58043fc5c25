package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// getReadyz fetches /readyz and decodes its payload.
func getReadyz(t *testing.T, url string) (int, Readiness) {
	t.Helper()
	hr, err := http.Get(url + "/readyz")
	if err != nil {
		t.Fatalf("GET /readyz: %v", err)
	}
	defer hr.Body.Close()
	var rd Readiness
	if err := json.NewDecoder(hr.Body).Decode(&rd); err != nil {
		t.Fatalf("readyz body is not JSON: %v", err)
	}
	return hr.StatusCode, rd
}

// TestReadyzReportsDraining pins the drain protocol's observable core:
// the moment BeginDrain is called, /readyz answers 503 with reason
// "draining" — not the bare warming 503 — while a request already in
// flight (a chaos stall holding its analysis slot) still completes
// with 200. Routers key on the reason to distinguish "node going away
// politely" from "node still warming".
func TestReadyzReportsDraining(t *testing.T) {
	s := mustNew(t, Config{AllowChaos: true})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, rd := getReadyz(t, ts.URL); code != http.StatusOK || !rd.Ready {
		t.Fatalf("fresh server readyz = %d %+v, want 200 ready", code, rd)
	}

	// park one request mid-analysis so the drain overlaps real work
	inflight := make(chan *http.Response, 1)
	go func() {
		b, _ := json.Marshal(Request{Source: goodSrc, Chaos: &ChaosSpec{StallMS: 400}})
		hr, err := http.Post(ts.URL+"/analyze", "application/json", bytes.NewReader(b))
		if err != nil {
			inflight <- nil
			return
		}
		inflight <- hr
	}()
	time.Sleep(50 * time.Millisecond) // let the stall begin

	s.BeginDrain()
	code, rd := getReadyz(t, ts.URL)
	if code != http.StatusServiceUnavailable || rd.Ready || rd.Reason != ReasonDraining {
		t.Fatalf("draining readyz = %d %+v, want 503 reason=%q", code, rd, ReasonDraining)
	}

	hr := <-inflight
	if hr == nil {
		t.Fatal("in-flight request failed during drain")
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("in-flight request finished %d during drain, want 200", hr.StatusCode)
	}
	// new work is still served until the listener actually closes — the
	// grace window exists so routers stop first, not so the node 503s
	if hr2, resp := postJSON(t, ts.URL, Request{Source: goodSrc}); hr2.StatusCode != http.StatusOK {
		t.Fatalf("request during grace window got %d (%+v), want 200", hr2.StatusCode, resp)
	}
}

// TestListenAndServeDrainsBeforeClosing runs the real shutdown path: a
// canceled ListenAndServe must flip /readyz to draining while the
// listener is still accepting (the grace window), and an in-flight
// request started before cancellation must complete.
func TestListenAndServeDrainsBeforeClosing(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	const grace = 300 * time.Millisecond
	s := mustNew(t, Config{Addr: addr, AllowChaos: true, DrainGrace: grace})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.ListenAndServe(ctx) }()

	url := "http://" + addr
	deadline := time.Now().Add(5 * time.Second)
	for {
		if hr, err := http.Get(url + "/readyz"); err == nil {
			hr.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never came up")
		}
		time.Sleep(10 * time.Millisecond)
	}

	inflight := make(chan *http.Response, 1)
	go func() {
		b, _ := json.Marshal(Request{Source: goodSrc, Chaos: &ChaosSpec{StallMS: 150}})
		hr, err := http.Post(url+"/analyze", "application/json", bytes.NewReader(b))
		if err != nil {
			inflight <- nil
			return
		}
		inflight <- hr
	}()
	time.Sleep(50 * time.Millisecond)

	graceEnd := time.Now().Add(grace)
	cancel()
	// cancel gives no happens-before edge to the BeginDrain call in
	// ListenAndServe's goroutine, so poll: within the grace window
	// readyz must turn to the drain, and every probe until then must be
	// answered (getReadyz fails the test otherwise) — the listener is
	// still up.
	for {
		code, rd := getReadyz(t, url)
		if code == http.StatusServiceUnavailable && rd.Reason == ReasonDraining {
			break
		}
		if code != http.StatusOK || !rd.Ready {
			t.Fatalf("readyz during grace = %d %+v, want 200 ready until 503 %q", code, rd, ReasonDraining)
		}
		if time.Now().After(graceEnd) {
			t.Fatalf("readyz still ready %v after cancel, want 503 %q within the grace window", grace, ReasonDraining)
		}
		time.Sleep(time.Millisecond)
	}

	hr := <-inflight
	if hr == nil {
		t.Fatal("in-flight request failed across shutdown")
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("in-flight request finished %d across shutdown, want 200", hr.StatusCode)
	}

	select {
	case err := <-done:
		if err != nil && err != http.ErrServerClosed {
			t.Fatalf("ListenAndServe returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ListenAndServe never returned after cancellation")
	}
}

// TestRetryAfterHelperExported keeps the exported helper's semantics
// pinned for its second consumer (the cluster router): ceil to whole
// seconds, floored at 1.
func TestRetryAfterHelperExported(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want int
	}{
		{0, 1},
		{time.Millisecond, 1},
		{time.Second, 1},
		{1500 * time.Millisecond, 2},
		{3 * time.Second, 3},
	} {
		if got := RetryAfterSeconds(tc.d); got != tc.want {
			t.Errorf("RetryAfterSeconds(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
}

// TestCacheKeyForMatchesRouting pins that the exported key covers the
// fields the router must agree on: two requests differing in any of
// source, execute, n, or timeout_ms get different keys; identical
// requests get identical keys.
func TestCacheKeyForMatchesRouting(t *testing.T) {
	base := Request{Source: goodSrc}
	same := Request{Source: goodSrc}
	if CacheKeyFor(&base) != CacheKeyFor(&same) {
		t.Fatal("identical requests must share a cache key")
	}
	variants := []Request{
		{Source: goodSrc + "\n"},
		{Source: goodSrc, Execute: true},
		{Source: goodSrc, N: 16},
		{Source: goodSrc, TimeoutMS: 50},
	}
	seen := map[string]int{CacheKeyFor(&base): -1}
	for i := range variants {
		k := CacheKeyFor(&variants[i])
		if j, dup := seen[k]; dup {
			t.Fatalf("variant %d aliases variant %d (%s)", i, j, fmt.Sprint(variants[i]))
		}
		seen[k] = i
	}
}
