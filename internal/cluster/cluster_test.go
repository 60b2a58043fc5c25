package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"givetake/internal/serve"
	"givetake/internal/telemetry"
)

// goodSrc is a small valid program every serve node analyzes cleanly
// (the same exemplar the serve tests use).
const goodSrc = `distributed x(1000)
real y(1000)

do i = 1, n
    y(i) = x(i) + 1
enddo
`

// startNode boots one real serve node behind an httptest listener and
// returns the server (for its trace ring) and its URL.
func startNode(t *testing.T, cfg serve.Config) (*serve.Server, string) {
	t.Helper()
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts.URL
}

// newTestRouter builds a Router with test-friendly timings (tight
// backoff, no hedging unless the test opts in).
func newTestRouter(t *testing.T, mod func(*Config), nodes ...string) *Router {
	t.Helper()
	cfg := Config{
		Nodes:          nodes,
		BackoffBase:    time.Millisecond,
		BackoffMax:     4 * time.Millisecond,
		AttemptTimeout: 5 * time.Second,
		DisableHedge:   true,
	}
	if mod != nil {
		mod(&cfg)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	return r
}

// nodeName turns a test server URL into the node label the router uses.
func nodeName(url string) string { return strings.TrimPrefix(url, "http://") }

// sourceRoutedTo finds a program variant whose replica set puts the
// wanted node first — the deterministic way to aim a request at a
// specific primary under HRW.
func sourceRoutedTo(t *testing.T, r *Router, primary string) string {
	t.Helper()
	for i := 0; i < 4096; i++ {
		src := goodSrc + strings.Repeat("\n", i)
		key := serve.CacheKeyFor(&serve.Request{Source: src})
		if r.replicaSet(key)[0].name == primary {
			return src
		}
	}
	t.Fatalf("no variant hashed to primary %s", primary)
	return ""
}

// deadAddr returns a host:port that refuses connections (bound, then
// released).
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func postAnalyze(t *testing.T, url, src string, hdr map[string]string) *http.Response {
	t.Helper()
	b, _ := json.Marshal(serve.Request{Source: src})
	req, err := http.NewRequest(http.MethodPost, url+"/analyze", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	hr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /analyze: %v", err)
	}
	return hr
}

// TestReplicaSetDeterministicAndBalanced pins the HRW core: K members,
// stable under repetition, and no node starved across a key sample.
func TestReplicaSetDeterministicAndBalanced(t *testing.T) {
	r := newTestRouter(t, func(c *Config) { c.Replicas = 2 },
		"a:1", "b:2", "c:3", "d:4")

	set := r.replicaSet("some-key")
	if len(set) != 2 {
		t.Fatalf("replica set size = %d, want 2", len(set))
	}
	again := r.replicaSet("some-key")
	for i := range set {
		if set[i] != again[i] {
			t.Fatal("replica set must be deterministic per key")
		}
	}
	if set[0] == set[1] {
		t.Fatal("replica set members must be distinct")
	}

	bal := r.balanceSample()
	for name, e := range bal {
		if e.Primary == 0 {
			t.Errorf("node %s is never primary across 256 sampled keys", name)
		}
	}
	total := 0
	for _, e := range bal {
		total += e.Primary
	}
	if total != 256 {
		t.Fatalf("primary shares sum to %d, want 256", total)
	}
}

// TestReplicasClampedToNodeCount: asking for more replicas than nodes
// must not panic or duplicate members.
func TestReplicasClampedToNodeCount(t *testing.T) {
	r := newTestRouter(t, func(c *Config) { c.Replicas = 5 }, "a:1", "b:2")
	if got := len(r.replicaSet("k")); got != 2 {
		t.Fatalf("clamped replica set size = %d, want 2", got)
	}
}

func TestNewRejectsEmptyAndDuplicateNodes(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New with no nodes must fail")
	}
	if _, err := New(Config{Nodes: []string{"a:1", "http://a:1"}}); err == nil {
		t.Fatal("New with duplicate nodes must fail")
	}
}

// TestRouteCacheAffinity is the marquee property: identical requests
// land on the same node, so the second one hits that node's cache.
func TestRouteCacheAffinity(t *testing.T) {
	urls := make([]string, 3)
	for i := range urls {
		_, urls[i] = startNode(t, serve.Config{})
	}
	r := newTestRouter(t, nil, urls...)
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()

	hr1 := postAnalyze(t, ts.URL, goodSrc, nil)
	defer hr1.Body.Close()
	if hr1.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(hr1.Body)
		t.Fatalf("first routed request = %d (%s)", hr1.StatusCode, b)
	}
	route1 := hr1.Header.Get(RouteHeader)
	if route1 == "" {
		t.Fatalf("response missing %s header", RouteHeader)
	}
	if !telemetry.ValidTraceID(hr1.Header.Get(telemetry.TraceHeader)) {
		t.Fatal("router must assign a valid trace ID")
	}

	hr2 := postAnalyze(t, ts.URL, goodSrc, nil)
	defer hr2.Body.Close()
	route2 := hr2.Header.Get(RouteHeader)
	if n1, n2 := strings.Split(route1, ";")[0], strings.Split(route2, ";")[0]; n1 != n2 {
		t.Fatalf("identical requests routed to %s then %s, want same node", n1, n2)
	}
	if c := hr2.Header.Get("X-Gnt-Cache"); c != "hit" {
		t.Fatalf("second identical request X-Gnt-Cache = %q, want hit (affinity broken?)", c)
	}
}

// TestFailoverOnDeadPrimary: the primary refuses connections, the
// request must succeed on the next replica and say so in X-Gnt-Route.
func TestFailoverOnDeadPrimary(t *testing.T) {
	dead := deadAddr(t)
	_, live := startNode(t, serve.Config{})
	r := newTestRouter(t, nil, dead, live)
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()

	src := sourceRoutedTo(t, r, dead)
	hr := postAnalyze(t, ts.URL, src, nil)
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(hr.Body)
		t.Fatalf("failover request = %d (%s), want 200", hr.StatusCode, b)
	}
	route := hr.Header.Get(RouteHeader)
	if want := nodeName(live) + ";attempts=2"; route != want {
		t.Fatalf("%s = %q, want %q", RouteHeader, route, want)
	}
	if got := r.failovers.Load(); got == 0 {
		t.Fatal("failover counter must advance")
	}
}

// TestAllReplicasDown: every replica refuses connections — the router
// answers 503 with a Retry-After spanning one probe cycle, and once
// the breakers open, its own /readyz goes unavailable.
func TestAllReplicasDown(t *testing.T) {
	r := newTestRouter(t, func(c *Config) {
		c.FailThreshold = 1
		c.ProbeInterval = 2 * time.Second // Retry-After: 2
	}, deadAddr(t), deadAddr(t))
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()

	hr := postAnalyze(t, ts.URL, goodSrc, nil)
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("all-down request = %d, want 503", hr.StatusCode)
	}
	if ra := hr.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want %q", ra, "2")
	}
	var resp serve.Response
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil || resp.Code != "unavailable" {
		t.Fatalf("503 body code = %q (err %v), want unavailable", resp.Code, err)
	}

	// FailThreshold=1: that one request opened both breakers
	hrz, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer hrz.Body.Close()
	var rd serve.Readiness
	_ = json.NewDecoder(hrz.Body).Decode(&rd)
	if hrz.StatusCode != http.StatusServiceUnavailable || rd.Reason != "no-available-nodes" {
		t.Fatalf("router readyz = %d reason=%q, want 503 no-available-nodes", hrz.StatusCode, rd.Reason)
	}
}

// TestProbesDriveBreakerOpenAndRecovery: a node that fails its health
// probes is ejected without any traffic, and recovers through
// half-open once probes succeed again.
func TestProbesDriveBreakerOpenAndRecovery(t *testing.T) {
	var healthy atomic.Bool
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/readyz" && healthy.Load() {
			writeJSON(w, http.StatusOK, serve.Readiness{Ready: true})
			return
		}
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer fake.Close()

	r := newTestRouter(t, func(c *Config) {
		c.FailThreshold = 3
	}, fake.URL)
	ctx := context.Background()

	for i := 0; i < 3; i++ {
		r.probeAll(ctx)
	}
	if st := r.nodes[0].health().State; st != "open" {
		t.Fatalf("state after 3 failed probes = %s, want open", st)
	}

	healthy.Store(true)
	r.probeAll(ctx)
	if st := r.nodes[0].health().State; st != "half-open" {
		t.Fatalf("state after first good probe = %s, want half-open", st)
	}
	r.probeAll(ctx)
	if st := r.nodes[0].health().State; st != "closed" {
		t.Fatalf("state after recovery threshold = %s, want closed", st)
	}
}

// TestDrainingNodeLeavesRotation: a node announcing readyz 503
// "draining" must stop receiving new work without tripping its
// breaker, and the router must route around it silently (attempts=1 —
// skipping a draining node is not a failover).
func TestDrainingNodeLeavesRotation(t *testing.T) {
	var hits atomic.Int64
	draining := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/readyz" {
			writeJSON(w, http.StatusServiceUnavailable, serve.Readiness{Reason: serve.ReasonDraining})
			return
		}
		hits.Add(1)
		writeJSON(w, http.StatusOK, serve.Response{OK: true})
	}))
	defer draining.Close()
	_, live := startNode(t, serve.Config{})

	r := newTestRouter(t, nil, draining.URL, live)
	r.probeAll(context.Background())

	h := r.nodes[0].health()
	if h.Reason != serve.ReasonDraining || h.State != "closed" {
		t.Fatalf("draining node health = %+v, want closed with reason draining", h)
	}

	ts := httptest.NewServer(r.Handler())
	defer ts.Close()
	src := sourceRoutedTo(t, r, nodeName(draining.URL))
	hr := postAnalyze(t, ts.URL, src, nil)
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("request with draining primary = %d, want 200 via replica", hr.StatusCode)
	}
	if want := nodeName(live) + ";attempts=1"; hr.Header.Get(RouteHeader) != want {
		t.Fatalf("%s = %q, want %q", RouteHeader, hr.Header.Get(RouteHeader), want)
	}
	if hits.Load() != 0 {
		t.Fatal("draining node must not receive new analyze traffic")
	}
}

// TestHedgedRequestWins: the primary stalls, so after the hedge delay
// the router races the next replica and the fast answer wins.
func TestHedgedRequestWins(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/readyz" {
			writeJSON(w, http.StatusOK, serve.Readiness{Ready: true})
			return
		}
		select {
		case <-req.Context().Done():
		case <-time.After(3 * time.Second):
			writeJSON(w, http.StatusOK, serve.Response{OK: true})
		}
	}))
	defer slow.Close()
	_, fast := startNode(t, serve.Config{})

	r := newTestRouter(t, func(c *Config) {
		c.DisableHedge = false
		c.HedgeMin = 10 * time.Millisecond
	}, slow.URL, fast)
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()

	src := sourceRoutedTo(t, r, nodeName(slow.URL))
	hr := postAnalyze(t, ts.URL, src, nil)
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("hedged request = %d, want 200", hr.StatusCode)
	}
	want := nodeName(fast) + ";attempts=2;hedged"
	if got := hr.Header.Get(RouteHeader); got != want {
		t.Fatalf("%s = %q, want %q", RouteHeader, got, want)
	}
	if r.hedgesLaunched.Load() != 1 || r.hedgesWon.Load() != 1 {
		t.Fatalf("hedge counters = launched %d won %d, want 1/1",
			r.hedgesLaunched.Load(), r.hedgesWon.Load())
	}
}

// TestShedRelaysRetryAfter: when every replica sheds with 429, the
// router hands the client the last 429 — Retry-After intact — and no
// breaker opens (shedding nodes are healthy).
func TestShedRelaysRetryAfter(t *testing.T) {
	shed := func() *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			w.Header().Set("Retry-After", "7")
			writeJSON(w, http.StatusTooManyRequests, serve.Response{Code: "overload"})
		}))
	}
	a, b := shed(), shed()
	defer a.Close()
	defer b.Close()

	r := newTestRouter(t, nil, a.URL, b.URL)
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()

	hr := postAnalyze(t, ts.URL, goodSrc, nil)
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("all-shed request = %d, want 429", hr.StatusCode)
	}
	if ra := hr.Header.Get("Retry-After"); ra != "7" {
		t.Fatalf("Retry-After = %q, want relayed %q", ra, "7")
	}
	for _, n := range r.nodes {
		if st := n.health().State; st != "closed" {
			t.Fatalf("node %s breaker = %s after shed, want closed", n.name, st)
		}
	}
}

// TestEndToEndTraceReconstruction pins the cross-hop trace contract:
// one client-supplied X-Gnt-Trace ID survives a failover, shows every
// attempt in the router's trace ring, and appears in the winning
// node's own ring — the two halves of one story.
func TestEndToEndTraceReconstruction(t *testing.T) {
	dead := deadAddr(t)
	liveSrv, live := startNode(t, serve.Config{})
	r := newTestRouter(t, nil, dead, live)
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()

	id := telemetry.NewTraceID()
	src := sourceRoutedTo(t, r, dead)
	hr := postAnalyze(t, ts.URL, src, map[string]string{telemetry.TraceHeader: id})
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("traced failover request = %d, want 200", hr.StatusCode)
	}
	if got := hr.Header.Get(telemetry.TraceHeader); got != id {
		t.Fatalf("router echoed trace %q, want client's %q", got, id)
	}

	rt, ok := r.Traces().Find(id)
	if !ok {
		t.Fatal("router trace ring has no entry for the request's ID")
	}
	if len(rt.Attempts) != 2 {
		t.Fatalf("router trace attempts = %d (%+v), want 2", len(rt.Attempts), rt.Attempts)
	}
	if rt.Attempts[0].Rung != nodeName("http://"+dead) || rt.Attempts[0].Outcome != "connect" {
		t.Fatalf("first attempt = %+v, want connect against the dead node", rt.Attempts[0])
	}
	if rt.Attempts[1].Rung != nodeName(live) || rt.Attempts[1].Outcome != "ok" {
		t.Fatalf("second attempt = %+v, want ok on the live node", rt.Attempts[1])
	}

	nt, ok := liveSrv.Traces().Find(id)
	if !ok {
		t.Fatal("winning node's trace ring has no entry under the shared ID")
	}
	if nt.Route != "/analyze" || nt.Status != http.StatusOK {
		t.Fatalf("node-side trace = %+v, want a 200 /analyze", nt)
	}
}

// TestRouterHealthz sanity-checks the payload's shape and invariants.
func TestRouterHealthz(t *testing.T) {
	r := newTestRouter(t, nil, "a:1", "b:2", "c:3")
	ts := httptest.NewServer(r.Handler())
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
	if !h.OK || h.Replicas != 2 || len(h.Nodes) != 3 || h.Available != 3 {
		t.Fatalf("healthz = %+v, want ok, 2 replicas, 3 nodes all available", h)
	}
	primaries := 0
	for _, e := range h.Balance {
		primaries += e.Primary
	}
	if primaries != 256 {
		t.Fatalf("balance primaries sum to %d, want 256", primaries)
	}
}

// TestRouterDrainFlipsReadyz: the router mirrors the node drain
// contract upward.
func TestRouterDrainFlipsReadyz(t *testing.T) {
	r := newTestRouter(t, nil, "a:1")
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()

	hr, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("fresh router readyz = %d, want 200", hr.StatusCode)
	}

	r.BeginDrain()
	hr2, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr2.Body.Close()
	var rd serve.Readiness
	_ = json.NewDecoder(hr2.Body).Decode(&rd)
	if hr2.StatusCode != http.StatusServiceUnavailable || rd.Reason != serve.ReasonDraining {
		t.Fatalf("draining router readyz = %d reason=%q, want 503 draining", hr2.StatusCode, rd.Reason)
	}
}

// TestRouterListenAndServeDrains exercises the real shutdown path with
// the grace window.
func TestRouterListenAndServeDrains(t *testing.T) {
	_, live := startNode(t, serve.Config{})
	addr := deadAddr(t) // free port
	r := newTestRouter(t, func(c *Config) {
		c.Addr = addr
		c.DrainGrace = 200 * time.Millisecond
	}, live)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- r.ListenAndServe(ctx) }()

	url := "http://" + addr
	deadline := time.Now().Add(5 * time.Second)
	for {
		if hr, err := http.Get(url + "/readyz"); err == nil {
			hr.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("router never came up")
		}
		time.Sleep(10 * time.Millisecond)
	}

	cancel()
	hr, err := http.Get(url + "/readyz")
	if err != nil {
		t.Fatalf("readyz during grace window: %v", err)
	}
	defer hr.Body.Close()
	var rd serve.Readiness
	_ = json.NewDecoder(hr.Body).Decode(&rd)
	if hr.StatusCode != http.StatusServiceUnavailable || rd.Reason != serve.ReasonDraining {
		t.Fatalf("readyz during grace = %d %q, want 503 draining", hr.StatusCode, rd.Reason)
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

// TestBatchRoutesWholeEnvelope: a /batch body routes by its bytes, so
// the same envelope always lands on the same node.
func TestBatchRoutesWholeEnvelope(t *testing.T) {
	urls := make([]string, 3)
	for i := range urls {
		_, urls[i] = startNode(t, serve.Config{})
	}
	r := newTestRouter(t, nil, urls...)
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()

	body, _ := json.Marshal(serve.BatchRequest{Requests: []serve.Request{{Source: goodSrc}}})
	post := func() (int, string) {
		hr, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer hr.Body.Close()
		return hr.StatusCode, strings.Split(hr.Header.Get(RouteHeader), ";")[0]
	}
	code1, node1 := post()
	code2, node2 := post()
	if code1 != http.StatusOK || code2 != http.StatusOK {
		t.Fatalf("batch requests = %d, %d, want 200s", code1, code2)
	}
	if node1 != node2 {
		t.Fatalf("identical batch envelopes routed to %s then %s", node1, node2)
	}
}

// TestBadRequests covers the router's own 4xx edges.
func TestBadRequests(t *testing.T) {
	r := newTestRouter(t, func(c *Config) { c.MaxBodyBytes = 256 }, "a:1")
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()

	hr, err := http.Get(ts.URL + "/analyze")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /analyze = %d, want 405", hr.StatusCode)
	}

	hr, err = http.Post(ts.URL+"/analyze", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON = %d, want 400", hr.StatusCode)
	}

	big := fmt.Sprintf(`{"source":%q}`, strings.Repeat("x", 1024))
	hr, err = http.Post(ts.URL+"/analyze", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d, want 413", hr.StatusCode)
	}
}

// TestRouterMetricsExposed: the gnt_route_* families show up on the
// router's /metrics endpoint after traffic.
func TestRouterMetricsExposed(t *testing.T) {
	_, live := startNode(t, serve.Config{})
	r := newTestRouter(t, nil, live)
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()

	hr := postAnalyze(t, ts.URL, goodSrc, nil)
	hr.Body.Close()

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	b, _ := io.ReadAll(mr.Body)
	for _, want := range []string{
		"gnt_route_requests_total", "gnt_route_attempts_total",
		"gnt_route_node_state", "gnt_route_hedge_delay_seconds",
	} {
		if !strings.Contains(string(b), want) {
			t.Errorf("/metrics missing family %s", want)
		}
	}
}
