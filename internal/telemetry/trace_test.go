package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"givetake/internal/obs"
)

func TestTraceIDGenerationAndValidation(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if a == b {
		t.Fatalf("two generated trace IDs collide: %s", a)
	}
	if !ValidTraceID(a) {
		t.Errorf("generated ID %q fails validation", a)
	}
	for _, bad := range []string{"", strings.Repeat("x", 65), "sp ace", "new\nline", `quo"te`} {
		if ValidTraceID(bad) {
			t.Errorf("ValidTraceID(%q) = true", bad)
		}
	}
	ctx := WithTraceID(context.Background(), a)
	if got := TraceIDFrom(ctx); got != a {
		t.Errorf("TraceIDFrom = %q, want %q", got, a)
	}
	if got := TraceIDFrom(context.Background()); got != "" {
		t.Errorf("empty context trace = %q", got)
	}
}

func TestTraceRingKeepsNewestN(t *testing.T) {
	r := NewTraceRing(3)
	for i := 0; i < 5; i++ {
		r.Add(RequestTrace{ID: string(rune('a' + i))})
	}
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("ring kept %d, want 3", len(snap))
	}
	// newest first: e, d, c
	for i, want := range []string{"e", "d", "c"} {
		if snap[i].ID != want {
			t.Errorf("snap[%d] = %q, want %q", i, snap[i].ID, want)
		}
	}
	if r.Total() != 5 {
		t.Errorf("total = %d, want 5", r.Total())
	}
	if _, ok := r.Find("a"); ok {
		t.Error("overwritten trace still findable")
	}
	if tr, ok := r.Find("d"); !ok || tr.ID != "d" {
		t.Error("retained trace not findable")
	}
}

func TestTraceRingHandlerFormats(t *testing.T) {
	r := NewTraceRing(8)
	r.Add(RequestTrace{
		ID: "abc123", Route: "/analyze", Method: "POST", Start: time.Now(),
		DurationMS: 1.5, Status: 200, Cache: "miss", Rung: "full",
		Attempts: []TraceAttempt{{Rung: "full", Outcome: "ok", DurationMS: 1.2}},
		Spans:    []obs.PhaseStats{{Name: "cfg-build", StartNS: 100000, WallNS: 300000}},
	})
	r.Add(RequestTrace{ID: "zzz", Route: "/analyze", Method: "POST", Status: 499})
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("text Content-Type = %q", ct)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	text := buf.String()
	for _, want := range []string{"trace=abc123", "rung=full", "attempt full", "span cfg-build", "+0.100ms 0.300ms"} {
		if !strings.Contains(text, want) {
			t.Errorf("text output missing %q:\n%s", want, text)
		}
	}

	resp, err = srv.Client().Get(srv.URL + "/debug/requests?format=json&id=abc123")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("json Content-Type = %q", ct)
	}
	var out struct {
		Total  int64          `json:"total"`
		Traces []RequestTrace `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Total != 2 || len(out.Traces) != 1 || out.Traces[0].ID != "abc123" {
		t.Errorf("json filter: total=%d traces=%+v", out.Total, out.Traces)
	}
	if len(out.Traces[0].Attempts) != 1 || out.Traces[0].Attempts[0].Outcome != "ok" {
		t.Errorf("attempts did not survive JSON: %+v", out.Traces[0].Attempts)
	}
	if sp := out.Traces[0].Spans; len(sp) != 1 || sp[0] != (obs.PhaseStats{Name: "cfg-build", StartNS: 100000, WallNS: 300000}) {
		t.Errorf("spans did not survive JSON: %+v", sp)
	}
}

func TestAccessLogSampling(t *testing.T) {
	var buf bytes.Buffer
	l := NewAccessLog(&buf, 3)
	for i := 0; i < 9; i++ {
		l.Log(AccessEntry{Trace: "t", Route: "/analyze", Status: 200})
	}
	lines := strings.Count(buf.String(), "\n")
	if lines != 3 {
		t.Errorf("every-3 sampling wrote %d lines from 9 requests, want 3", lines)
	}
	var e AccessEntry
	if err := json.Unmarshal([]byte(strings.SplitN(buf.String(), "\n", 2)[0]), &e); err != nil {
		t.Fatalf("access line is not JSON: %v", err)
	}
	if e.Route != "/analyze" {
		t.Errorf("entry = %+v", e)
	}

	var nilLog *AccessLog
	nilLog.Log(AccessEntry{}) // must not panic
	if NewAccessLog(nil, 1) != nil {
		t.Error("nil writer should produce nil log")
	}
}
