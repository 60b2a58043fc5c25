package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"givetake/internal/journal"
	"givetake/internal/obs"
	"givetake/internal/telemetry"
)

// gatedBackend delays segment reads until the gate opens, pinning the
// server inside its warming window so tests can observe it.
type gatedBackend struct {
	journal.Backend
	gate chan struct{}
}

func (g *gatedBackend) Open(name string) (io.ReadCloser, error) {
	<-g.gate
	return g.Backend.Open(name)
}

// syncBuffer is a goroutine-safe bytes.Buffer for the access log.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// scrapeMetrics GETs /metrics and strictly parses the exposition —
// every scrape in the suite doubles as a format check.
func scrapeMetrics(t *testing.T, url string) telemetry.Families {
	t.Helper()
	hr, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", hr.StatusCode)
	}
	if ct := hr.Header.Get("Content-Type"); ct != telemetry.ContentType {
		t.Fatalf("/metrics Content-Type = %q, want %q", ct, telemetry.ContentType)
	}
	fams, err := telemetry.ParseExposition(hr.Body)
	if err != nil {
		t.Fatalf("/metrics is not strictly parseable: %v", err)
	}
	return fams
}

// TestMetricsAndHealthzServedWhileWarming pins the degraded-visibility
// contract: during the startup replay window /readyz refuses traffic
// with 503, while /healthz and /metrics answer 200 with their explicit
// Content-Types — a warming node is exactly when an operator needs
// them. The replay window is held open by gating segment reads.
func TestMetricsAndHealthzServedWhileWarming(t *testing.T) {
	// Fill a journal so the restarted node has something to replay.
	mb := journal.NewMemBackend()
	seed := mustNew(t, Config{JournalBackend: mb, JournalFlushWait: time.Millisecond})
	ts := httptest.NewServer(seed.Handler())
	waitReady(t, ts.URL)
	if status, _, body := postSrc(t, ts.URL, srcAt(0)); status != http.StatusOK {
		t.Fatalf("seed request: status %d: %s", status, body)
	}
	deadline := time.Now().Add(5 * time.Second)
	for seed.Journal().Stats().SealedRecords < 1 {
		if time.Now().After(deadline) {
			t.Fatal("seed journal never sealed")
		}
		time.Sleep(time.Millisecond)
	}
	ts.Close()
	if err := seed.Close(); err != nil {
		t.Fatal(err)
	}

	gate := make(chan struct{})
	srv := mustNew(t, Config{JournalBackend: &gatedBackend{Backend: mb, gate: gate}})
	ts2 := httptest.NewServer(srv.Handler())
	defer ts2.Close()

	// Warming: /readyz refuses, /healthz and /metrics answer.
	hr, err := http.Get(ts2.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while warming: status %d, want 503", hr.StatusCode)
	}

	hr, err = http.Get(ts2.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("/healthz while warming: status %d, want 200", hr.StatusCode)
	}
	if ct := hr.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/healthz Content-Type = %q, want application/json", ct)
	}

	fams := scrapeMetrics(t, ts2.URL)
	if v, ok := fams.Value(obs.MetricReady, nil); !ok || v != 0 {
		t.Fatalf("gnt_ready while warming = %v, %v; want 0", v, ok)
	}

	close(gate)
	waitReady(t, ts2.URL)
	fams = scrapeMetrics(t, ts2.URL)
	if v, ok := fams.Value(obs.MetricReady, nil); !ok || v != 1 {
		t.Fatalf("gnt_ready after replay = %v, %v; want 1", v, ok)
	}
	if v, ok := fams.Value(obs.MetricJournalReplayed, nil); !ok || v < 1 {
		t.Fatalf("replayed counter after warm = %v, %v; want >= 1", v, ok)
	}
}

// findTrace polls /debug/requests until the trace with the given ID is
// retained (the middleware records after the response is written, so
// the client can win that race).
// stageCounts maps each stage label of the stage-latency histogram to
// its observation count.
func stageCounts(fams telemetry.Families) map[string]float64 {
	out := map[string]float64{}
	if f := fams[obs.MetricStageDuration]; f != nil {
		for _, smp := range f.Samples {
			if strings.HasSuffix(smp.Name, "_count") {
				out[smp.Labels["stage"]] += smp.Value
			}
		}
	}
	return out
}

func findTrace(t *testing.T, url, id string) telemetry.RequestTrace {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		hr, err := http.Get(url + "/debug/requests?format=json&id=" + id)
		if err != nil {
			t.Fatal(err)
		}
		if ct := hr.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("/debug/requests json Content-Type = %q", ct)
		}
		var out struct {
			Traces []telemetry.RequestTrace `json:"traces"`
		}
		err = json.NewDecoder(hr.Body).Decode(&out)
		hr.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Traces) > 0 {
			return out.Traces[0]
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s never appeared in /debug/requests", id)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestEndToEndTraceReconstruction is the acceptance test of the
// telemetry layer: one request to a warm server is fully
// reconstructable after the fact — the access-log line, the
// /debug/requests trace (per-stage spans, per-attempt ladder
// outcomes), and the /metrics deltas all carry the same X-Gnt-Trace ID
// or line up with the request it identifies.
func TestEndToEndTraceReconstruction(t *testing.T) {
	var access syncBuffer
	srv := mustNew(t, Config{AccessLog: &access, AccessLogEvery: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	before := scrapeMetrics(t, ts.URL)

	const traceID = "e2e-reconstruction-0001"
	body, _ := json.Marshal(Request{Source: srcAt(0)})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/analyze", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(telemetry.TraceHeader, traceID)
	hr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	respBody, _ := io.ReadAll(hr.Body)
	hr.Body.Close()

	// The response itself names the trace, the rung, and the cache path.
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", hr.StatusCode, respBody)
	}
	if got := hr.Header.Get(telemetry.TraceHeader); got != traceID {
		t.Fatalf("echoed trace ID %q, want %q", got, traceID)
	}
	if got := hr.Header.Get("X-Gnt-Cache"); got != "miss" {
		t.Fatalf("cache disposition %q, want miss", got)
	}
	if got := hr.Header.Get("X-Gnt-Rung"); got != "full" {
		t.Fatalf("X-Gnt-Rung = %q, want full", got)
	}

	// /debug/requests: the ring retains the request with its ladder
	// attempts and per-stage spans.
	tr := findTrace(t, ts.URL, traceID)
	if tr.Route != "/analyze" || tr.Status != http.StatusOK || tr.Cache != "miss" || tr.Rung != "full" {
		t.Fatalf("trace = %+v, want /analyze 200 miss full", tr)
	}
	if len(tr.Attempts) != 1 || tr.Attempts[0].Rung != "full" || tr.Attempts[0].Outcome != "ok" {
		t.Fatalf("trace attempts = %+v, want one ok attempt at full", tr.Attempts)
	}
	stages := map[string]bool{}
	for _, sp := range tr.Spans {
		stages[sp.Name] = true
	}
	for _, want := range []string{obs.SpanEngineAnalyze, obs.SpanCFGBuild, obs.SpanSolveRead, obs.SpanSolveWrite} {
		if !stages[want] {
			t.Errorf("trace spans missing stage %q (have %v)", want, tr.Spans)
		}
	}

	// The access log carries the same trace ID and labels.
	var entry telemetry.AccessEntry
	found := false
	for _, line := range strings.Split(strings.TrimSpace(access.String()), "\n") {
		if line == "" {
			continue
		}
		if err := json.Unmarshal([]byte(line), &entry); err != nil {
			t.Fatalf("access log line is not JSON: %v: %s", err, line)
		}
		if entry.Trace == traceID {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no access-log line with trace %s:\n%s", traceID, access.String())
	}
	if entry.Route != "/analyze" || entry.Status != 200 || entry.Cache != "miss" || entry.Rung != "full" {
		t.Fatalf("access entry = %+v", entry)
	}

	// /metrics: the request moved exactly the families it should.
	after := scrapeMetrics(t, ts.URL)
	reqDelta := after.Sum(obs.MetricRequestsTotal, map[string]string{"route": "/analyze", "status": "200"}) -
		before.Sum(obs.MetricRequestsTotal, map[string]string{"route": "/analyze", "status": "200"})
	if reqDelta != 1 {
		t.Errorf("requests_total{/analyze,200} delta = %v, want 1", reqDelta)
	}
	attDelta := after.Sum(obs.MetricLadderAttempts, map[string]string{"rung": "full", "outcome": "ok"}) -
		before.Sum(obs.MetricLadderAttempts, map[string]string{"rung": "full", "outcome": "ok"})
	if attDelta != 1 {
		t.Errorf("ladder_attempts{full,ok} delta = %v, want 1", attDelta)
	}
	// Each of the request's spans is observed exactly once: per stage,
	// the histogram's count moved by the number of that stage's spans
	// in the request's trace, and no other stage moved.
	inTrace := map[string]float64{}
	for k, sp := range tr.Spans {
		inTrace[sp.Name]++
		if k > 0 && sp.StartNS < tr.Spans[k-1].StartNS {
			t.Errorf("trace spans out of start order: %+v", tr.Spans)
		}
	}
	beforeCounts, afterCounts := stageCounts(before), stageCounts(after)
	for stage := range afterCounts {
		if _, ok := inTrace[stage]; !ok {
			inTrace[stage] = 0
		}
	}
	for stage, want := range inTrace {
		if d := afterCounts[stage] - beforeCounts[stage]; d != want {
			t.Errorf("stage_duration{%s} count delta = %v, want %v (its spans in the trace)", stage, d, want)
		}
	}
	if v := after.Sum(obs.MetricCacheEvents, map[string]string{"event": "miss"}); v < 1 {
		t.Errorf("cache miss counter = %v, want >= 1", v)
	}
	if v := after.Sum(obs.MetricAdmissionTotal, map[string]string{"outcome": "won"}); v < 1 {
		t.Errorf("admission won counter = %v, want >= 1", v)
	}

	// A second identical request is a cache hit — still traced, with
	// the stored body's ladder but no stage spans (no stage ran).
	req2, _ := http.NewRequest(http.MethodPost, ts.URL+"/analyze", bytes.NewReader(body))
	req2.Header.Set("Content-Type", "application/json")
	req2.Header.Set(telemetry.TraceHeader, traceID+"-hit")
	hr2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hr2.Body)
	hr2.Body.Close()
	if got := hr2.Header.Get("X-Gnt-Cache"); got != "hit" {
		t.Fatalf("second request disposition %q, want hit", got)
	}
	if got := hr2.Header.Get("X-Gnt-Rung"); got != "full" {
		t.Fatalf("hit X-Gnt-Rung = %q, want full (the meta stored with the entry)", got)
	}
	tr2 := findTrace(t, ts.URL, traceID+"-hit")
	if tr2.Cache != "hit" || tr2.Rung != "full" || len(tr2.Attempts) != 1 {
		t.Fatalf("hit trace = %+v, want cached meta preserved", tr2)
	}
	if len(tr2.Spans) != 0 {
		t.Fatalf("hit trace has %d spans, want 0 (nothing ran)", len(tr2.Spans))
	}
}

// TestInvalidWireTraceIDReplaced: a hostile or malformed X-Gnt-Trace
// header is never propagated into logs and traces.
func TestInvalidWireTraceIDReplaced(t *testing.T) {
	srv := mustNew(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(Request{Source: srcAt(1)})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/analyze", bytes.NewReader(body))
	req.Header.Set(telemetry.TraceHeader, strings.Repeat("x", 65)+" !")
	hr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hr.Body)
	hr.Body.Close()
	got := hr.Header.Get(telemetry.TraceHeader)
	if got == "" || strings.Contains(got, " ") || !telemetry.ValidTraceID(got) {
		t.Fatalf("replacement trace ID %q is not a fresh valid ID", got)
	}
}
