package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSlowBodyDoesNotHoldSlot is the regression test for the slowloris
// admission bug: the handler used to acquire its in-flight slot BEFORE
// reading the body, so a client trickling bytes pinned the slot for its
// whole upload and starved fast requests behind it. With Workers=1, a
// stalled upload must not block a concurrent well-formed request.
func TestSlowBodyDoesNotHoldSlot(t *testing.T) {
	srv := mustNew(t, Config{Workers: 1, QueueTimeout: 5 * time.Second})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// the slow client: opens the request, sends half the JSON, stalls
	pr, pw := io.Pipe()
	slowDone := make(chan error, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/analyze", pr)
		req.Header.Set("Content-Type", "application/json")
		hr, err := http.DefaultClient.Do(req)
		if err == nil {
			hr.Body.Close()
		}
		slowDone <- err
	}()
	if _, err := io.WriteString(pw, `{"source": "`); err != nil {
		t.Fatal(err)
	}

	// while the slow body dangles, a fast request must win the slot and
	// complete well inside the queue timeout
	fastDone := make(chan struct{})
	go func() {
		defer close(fastDone)
		hr, resp := postJSON(t, ts.URL, Request{Source: goodSrc})
		if hr.StatusCode != http.StatusOK || !resp.OK {
			t.Errorf("fast request starved behind slow body: status=%d %+v", hr.StatusCode, resp)
		}
	}()
	select {
	case <-fastDone:
	case <-time.After(3 * time.Second):
		t.Fatal("fast request did not complete while slow body was pending")
	}

	// let the slow client finish; it still gets a normal response
	io.WriteString(pw, `s = 1"}`)
	pw.Close()
	if err := <-slowDone; err != nil {
		t.Fatalf("slow request errored: %v", err)
	}
}

// TestAdmissionCountersInHealthz: admission outcomes (slot won, shed on
// queue timeout) surface in the engine stats that /healthz renders.
func TestAdmissionCountersInHealthz(t *testing.T) {
	srv := mustNew(t, Config{Workers: 1, QueueTimeout: 30 * time.Millisecond})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if hr, _ := postJSON(t, ts.URL, Request{Source: goodSrc}); hr.StatusCode != http.StatusOK {
		t.Fatalf("warmup failed: %d", hr.StatusCode)
	}

	release, err := srv.Engine().Admit(context.Background(), 0) // hold the only slot
	if err != nil {
		t.Fatal(err)
	}
	hr, resp := postJSON(t, ts.URL, Request{Source: goodSrc})
	release()
	if hr.StatusCode != http.StatusTooManyRequests || resp.Code != "overloaded" {
		t.Fatalf("status=%d code=%q, want 429 overloaded", hr.StatusCode, resp.Code)
	}

	st := srv.Engine().Stats()
	if st.Pool.AdmissionWon < 1 {
		t.Fatalf("admission_won = %d, want >= 1", st.Pool.AdmissionWon)
	}
	if st.Pool.AdmissionShed != 1 {
		t.Fatalf("admission_shed = %d, want 1", st.Pool.AdmissionShed)
	}

	var h Health
	hres, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hres.Body.Close()
	if err := json.NewDecoder(hres.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Engine.Pool.AdmissionShed != 1 || h.Engine.Pool.Workers == 0 {
		t.Fatalf("healthz engine stats = %+v", h.Engine)
	}
}

// TestListenAndServeCleanShutdown: the happy path still shuts down nil.
func TestListenAndServeCleanShutdown(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // free the port for the server

	srv := mustNew(t, Config{Addr: addr})
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe(ctx) }()
	// wait until it serves, then cancel
	deadline := time.Now().Add(2 * time.Second)
	for {
		if hr, err := http.Get("http://" + addr + "/healthz"); err == nil {
			hr.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never came up")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("clean shutdown returned %v", err)
	}
}

// postRaw posts one request and returns status, X-Gnt-Cache, and the
// raw body bytes for identity comparison.
func postRaw(t *testing.T, url string, body any) (int, string, []byte) {
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
	raw, err := io.ReadAll(hr.Body)
	if err != nil {
		t.Fatal(err)
	}
	return hr.StatusCode, hr.Header.Get("X-Gnt-Cache"), raw
}

// corpusSources loads every corpus program for the cache suites.
func corpusSources(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	root := filepath.Join("..", "..", "testdata")
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".f") {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		out[path] = string(b)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("empty corpus")
	}
	return out
}

// TestCacheColdWarmByteIdentical: for every corpus program, the warm
// response is byte-for-byte the cold response, the disposition header
// flips miss -> hit, and the hit shows up in /healthz engine stats.
func TestCacheColdWarmByteIdentical(t *testing.T) {
	srv := mustNew(t, Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for path, src := range corpusSources(t) {
		status1, src1, cold := postRaw(t, ts.URL, Request{Source: src})
		status2, src2, warm := postRaw(t, ts.URL, Request{Source: src})
		if src1 != "miss" || src2 != "hit" {
			t.Fatalf("%s: dispositions %q -> %q, want miss -> hit", path, src1, src2)
		}
		if status1 != status2 || !bytes.Equal(cold, warm) {
			t.Fatalf("%s: warm response not byte-identical to cold", path)
		}
	}

	st := srv.Engine().Stats().Cache
	if want := int64(len(corpusSources(t))); st.Hits != want || st.Misses != want {
		t.Fatalf("cache stats = %+v, want %d hits and misses", st, want)
	}
}

// TestCacheKeyedOnParameters: execution parameters are part of the
// content address — same source, different params must not alias.
func TestCacheKeyedOnParameters(t *testing.T) {
	srv := mustNew(t, Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	_, src1, plain := postRaw(t, ts.URL, Request{Source: goodSrc})
	_, src2, exec := postRaw(t, ts.URL, Request{Source: goodSrc, Execute: true, N: 4})
	if src1 != "miss" || src2 != "miss" {
		t.Fatalf("distinct parameters must both miss, got %q %q", src1, src2)
	}
	if bytes.Equal(plain, exec) {
		t.Fatal("execute=true response cannot equal the plain one")
	}
	var resp Response
	if err := json.Unmarshal(exec, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Trace == nil {
		t.Fatal("execute response lost its trace")
	}
}

// TestCacheHerdByteIdentical: concurrent identical requests — whether
// they lead, follow the in-flight leader, or hit the already-stored
// result — all receive identical bytes, and the analysis runs once.
func TestCacheHerdByteIdentical(t *testing.T) {
	srv := mustNew(t, Config{Workers: 16})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const herd = 12
	bodies := make([][]byte, herd)
	sources := make([]string, herd)
	var wg sync.WaitGroup
	wg.Add(herd)
	for i := 0; i < herd; i++ {
		go func(i int) {
			defer wg.Done()
			_, sources[i], bodies[i] = postRaw(t, ts.URL, Request{Source: goodSrc})
		}(i)
	}
	wg.Wait()

	misses := 0
	for i := 1; i < herd; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d bytes differ from request 0", i)
		}
	}
	for _, s := range sources {
		if s == "miss" {
			misses++
		}
	}
	if misses != 1 {
		t.Fatalf("herd of %d computed %d times, want exactly 1", herd, misses)
	}
}

// TestChaosBypassesCache: fault-injected requests must never be stored
// or shared — each one computes, marked bypass.
func TestChaosBypassesCache(t *testing.T) {
	srv := mustNew(t, Config{AllowChaos: true})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := Request{Source: goodSrc, Chaos: &ChaosSpec{MutateSeed: 7}}
	_, src1, _ := postRaw(t, ts.URL, req)
	_, src2, _ := postRaw(t, ts.URL, req)
	if src1 != "bypass" || src2 != "bypass" {
		t.Fatalf("chaos dispositions %q %q, want bypass bypass", src1, src2)
	}
	if st := srv.Engine().Stats().Cache; st.Entries != 0 {
		t.Fatalf("chaos response was cached: %+v", st)
	}
}

// postBatch posts one batch and decodes the envelope.
func postBatch(t *testing.T, url string, breq BatchRequest) (*http.Response, *BatchResponse) {
	t.Helper()
	b, err := json.Marshal(breq)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.Post(url+"/batch", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var out BatchResponse
	if err := json.NewDecoder(hr.Body).Decode(&out); err != nil {
		t.Fatalf("batch envelope is not JSON: %v", err)
	}
	return hr, &out
}

// TestBatchEndpoint: the corpus as one batch — ordered results, every
// program verified, one malformed item isolated to its slot, and a
// duplicated program served byte-identical to its twin from the cache.
func TestBatchEndpoint(t *testing.T) {
	srv := mustNew(t, Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var breq BatchRequest
	for _, src := range corpusSources(t) {
		breq.Requests = append(breq.Requests, Request{Source: src})
	}
	bad := len(breq.Requests)
	breq.Requests = append(breq.Requests, Request{Source: "do i = oops"})
	dup := len(breq.Requests)
	breq.Requests = append(breq.Requests, breq.Requests[0]) // duplicate of item 0

	hr, out := postBatch(t, ts.URL, breq)
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d", hr.StatusCode)
	}
	if len(out.Results) != len(breq.Requests) || len(out.Cache) != len(breq.Requests) {
		t.Fatalf("envelope sizes %d/%d, want %d", len(out.Results), len(out.Cache), len(breq.Requests))
	}
	for i, raw := range out.Results {
		var resp Response
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
		if i == bad {
			if resp.OK || resp.Code != "parse-error" {
				t.Fatalf("malformed item leaked: %+v", resp)
			}
			continue
		}
		if !resp.OK {
			t.Fatalf("item %d failed: %+v", i, resp)
		}
	}
	if !bytes.Equal(out.Results[dup], out.Results[0]) {
		t.Fatal("duplicated program must get byte-identical result")
	}
}

// TestBatchDuplicateHammer: many copies of the same program in one
// batch stress the cache's single-flight under the race detector; the
// analysis must run once and every slot must carry identical bytes.
func TestBatchDuplicateHammer(t *testing.T) {
	srv := mustNew(t, Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var breq BatchRequest
	for i := 0; i < 32; i++ {
		breq.Requests = append(breq.Requests, Request{Source: goodSrc})
	}
	hr, out := postBatch(t, ts.URL, breq)
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d", hr.StatusCode)
	}
	misses := 0
	for i, raw := range out.Results {
		if !bytes.Equal(raw, out.Results[0]) {
			t.Fatalf("slot %d bytes differ", i)
		}
		if out.Cache[i] == "miss" {
			misses++
		}
	}
	if misses != 1 {
		t.Fatalf("32 duplicates computed %d times, want 1", misses)
	}
}

// TestBatchLimits: empty and oversized batches are rejected with
// structured errors before admission.
func TestBatchLimits(t *testing.T) {
	srv := mustNew(t, Config{MaxBatch: 4})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	hr, err := http.Post(ts.URL+"/batch", "application/json", strings.NewReader(`{"requests":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch status = %d, want 400", hr.StatusCode)
	}

	var breq BatchRequest
	for i := 0; i < 5; i++ {
		breq.Requests = append(breq.Requests, Request{Source: fmt.Sprintf("s = %d\n", i)})
	}
	b, _ := json.Marshal(breq)
	hr, err = http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var resp Response
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if hr.StatusCode != http.StatusUnprocessableEntity || resp.Code != "batch-too-large" {
		t.Fatalf("status=%d code=%q, want 422 batch-too-large", hr.StatusCode, resp.Code)
	}
}

// TestOverloadShedsInsteadOfDegrading: with the engine's only slot
// held, a request whose own deadline outlasts the queue timeout is shed
// with a 429 when the queue timeout passes. It must not be admitted
// past a second gate, wait out its deadline there, and come back as a
// 200 from the atomic rung with a deadline attempt on its ladder.
func TestOverloadShedsInsteadOfDegrading(t *testing.T) {
	srv := mustNew(t, Config{Workers: 1, QueueTimeout: 100 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	release, err := srv.Engine().Admit(context.Background(), 0)
	if err != nil {
		t.Fatalf("holding the only slot: %v", err)
	}
	hr, resp := postJSON(t, ts.URL, Request{Source: goodSrc, TimeoutMS: 300})
	release()
	for _, att := range resp.Ladder {
		if att.Outcome == "deadline" {
			t.Errorf("admitted past a full engine: rung %s ran out its deadline (%s)", att.Name, att.Detail)
		}
	}
	if hr.StatusCode != http.StatusTooManyRequests || resp.Code != "overloaded" {
		t.Fatalf("status=%d code=%q rung=%d, want 429 overloaded", hr.StatusCode, resp.Code, resp.Rung)
	}
	if ra := hr.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want 1", ra)
	}
	if pool := srv.Engine().Stats().Pool; pool.AdmissionShed != 1 {
		t.Errorf("admission_shed = %d, want 1", pool.AdmissionShed)
	}
}

// TestWorkersIsAdmissionWidth: Workers alone sets how many requests are
// in flight at once. Eight concurrent stalled requests on eight workers
// are all admitted together, with no narrower gate in front of the
// engine.
func TestWorkersIsAdmissionWidth(t *testing.T) {
	const workers = 8
	srv := mustNew(t, Config{Workers: workers, QueueTimeout: 10 * time.Second, AllowChaos: true})
	h := srv.Handler()
	ts := httptest.NewServer(h)
	defer ts.Close()

	var wg sync.WaitGroup
	for i := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if code := post(t, h, "/analyze", Request{Source: srcAt(i), Chaos: &ChaosSpec{StallMS: 300}}); code != http.StatusOK {
				t.Errorf("request %d: status %d", i, code)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	peak := int64(0)
	for polling := true; polling; {
		select {
		case <-done:
			polling = false
		default:
			peak = max(peak, getHealth(t, ts.URL).InFlight)
			time.Sleep(2 * time.Millisecond)
		}
	}
	if peak != workers {
		t.Fatalf("in_flight peaked at %d, want all %d workers busy at once", peak, workers)
	}
}

// TestBatchAndAnalyzeShareOneAdmissionSlot: on one worker, a
// four-program batch and a concurrent /analyze both finish, and no two
// programs are ever inside the engine's stages at once.
func TestBatchAndAnalyzeShareOneAdmissionSlot(t *testing.T) {
	srv := mustNew(t, Config{Workers: 1, QueueTimeout: 10 * time.Second})
	h := srv.Handler()

	var breq BatchRequest
	for i := range 4 {
		breq.Requests = append(breq.Requests, Request{Source: srcAt(i)})
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if code := post(t, h, "/batch", breq); code != http.StatusOK {
			t.Errorf("batch: status %d", code)
		}
	}()
	go func() {
		defer wg.Done()
		if code := post(t, h, "/analyze", Request{Source: srcAt(4)}); code != http.StatusOK {
			t.Errorf("analyze: status %d", code)
		}
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for polling := true; polling; {
		select {
		case <-done:
			polling = false
		default:
			busy := int64(0)
			for _, st := range srv.Engine().PipelineStats() {
				busy += st.Busy
			}
			if busy > 1 {
				t.Fatalf("%d programs inside the stages at once on one worker", busy)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	if items := srv.Engine().PipelineStats()[0].Items; items != 5 {
		t.Errorf("cfg-build serviced %d programs, want 5", items)
	}
}
