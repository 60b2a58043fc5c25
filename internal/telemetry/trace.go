package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"sync"
	"sync/atomic"
	"time"

	"givetake/internal/obs"
)

// TraceHeader is the HTTP header carrying one request's trace ID. A
// client may supply its own (to stitch the service into a wider
// trace); the service generates one otherwise, and always echoes the
// effective ID on the response, every span record, and the access log,
// so one request can be followed through serve -> engine -> ladder ->
// journal post-hoc.
const TraceHeader = "X-Gnt-Trace"

// traceIDRe bounds what we accept from the wire: 1-64 URL-safe
// characters. Anything else is replaced with a generated ID rather
// than propagated into logs.
var traceIDRe = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

type traceKey struct{}

// NewTraceID returns a fresh 16-byte random trace ID in hex. It never
// fails: if the system's entropy source does, a process-unique counter
// ID is issued instead (uniqueness matters here, secrecy does not).
func NewTraceID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("fallback-%d", fallbackID.Add(1))
	}
	return hex.EncodeToString(b[:])
}

var fallbackID atomic.Int64

// ValidTraceID reports whether a wire-supplied trace ID is acceptable
// to propagate.
func ValidTraceID(id string) bool { return traceIDRe.MatchString(id) }

// WithTraceID attaches a trace ID to the context.
func WithTraceID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, traceKey{}, id)
}

// TraceIDFrom returns the context's trace ID, or "" when none is
// attached.
func TraceIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(traceKey{}).(string)
	return id
}

// TraceAttempt is one degradation-ladder attempt inside a request
// trace.
type TraceAttempt struct {
	Rung       string  `json:"rung"`
	Outcome    string  `json:"outcome"`
	Detail     string  `json:"detail,omitempty"`
	DurationMS float64 `json:"duration_ms"`
}

// RequestTrace is one complete served request, as kept in the trace
// ring and rendered at /debug/requests.
type RequestTrace struct {
	ID         string         `json:"id"`
	Route      string         `json:"route"`
	Method     string         `json:"method"`
	Start      time.Time      `json:"start"`
	DurationMS float64        `json:"duration_ms"`
	Status     int            `json:"status"`
	Cache      string         `json:"cache,omitempty"`
	Rung       string         `json:"rung,omitempty"`
	Code       string         `json:"code,omitempty"`
	Attempts   []TraceAttempt `json:"attempts,omitempty"`
	// Spans are the closed stage spans of the analysis that computed
	// the response, in start order; the same rows as the /analyze
	// response's phases.
	Spans []obs.PhaseStats `json:"spans,omitempty"`
}

// DefaultTraceRing is the ring capacity when a TraceRing is created
// with n <= 0.
const DefaultTraceRing = 128

// TraceRing keeps the last N complete request traces in a fixed ring.
// Add is cheap and lock-scoped; Snapshot copies. The ring answers the
// question logs cannot: "which rung served request X, and why" for any
// recent request, without grepping anything.
type TraceRing struct {
	mu    sync.Mutex
	buf   []RequestTrace
	next  int
	total int64
}

// NewTraceRing returns a ring holding the last n traces.
func NewTraceRing(n int) *TraceRing {
	if n <= 0 {
		n = DefaultTraceRing
	}
	return &TraceRing{buf: make([]RequestTrace, 0, n)}
}

// Add records one completed request.
func (r *TraceRing) Add(t RequestTrace) {
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, t)
	} else {
		r.buf[r.next] = t
	}
	r.next = (r.next + 1) % cap(r.buf)
	r.total++
	r.mu.Unlock()
}

// Total reports how many traces were ever added (including ones the
// ring has since overwritten).
func (r *TraceRing) Total() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Snapshot returns the retained traces, newest first.
func (r *TraceRing) Snapshot() []RequestTrace {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]RequestTrace, 0, len(r.buf))
	// newest is the element just before next (when full) or the tail
	for i := 0; i < len(r.buf); i++ {
		idx := r.next - 1 - i
		for idx < 0 {
			idx += len(r.buf)
		}
		out = append(out, r.buf[idx])
	}
	return out
}

// Find returns the retained trace with the given ID, newest match
// first.
func (r *TraceRing) Find(id string) (RequestTrace, bool) {
	for _, t := range r.Snapshot() {
		if t.ID == id {
			return t, true
		}
	}
	return RequestTrace{}, false
}

// Handler serves the ring at /debug/requests: a human-readable text
// rendering by default, JSON with ?format=json (or an Accept header
// preferring application/json), and ?id=<trace-id> to select one
// trace. Like /metrics it is served regardless of readiness.
func (r *TraceRing) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			w.Header().Set("Allow", "GET")
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		traces := r.Snapshot()
		if id := req.URL.Query().Get("id"); id != "" {
			kept := traces[:0]
			for _, t := range traces {
				if t.ID == id {
					kept = append(kept, t)
				}
			}
			traces = kept
		}
		wantJSON := req.URL.Query().Get("format") == "json"
		if !wantJSON {
			accept := req.Header.Get("Accept")
			wantJSON = accept == "application/json"
		}
		if wantJSON {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(struct {
				Total  int64          `json:"total"`
				Traces []RequestTrace `json:"traces"`
			}{r.Total(), traces})
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "last %d of %d traced requests (newest first)\n\n", len(traces), r.Total())
		for _, t := range traces {
			writeTraceText(w, t)
		}
	})
}

func writeTraceText(w io.Writer, t RequestTrace) {
	fmt.Fprintf(w, "%s %s %s status=%d %.3fms trace=%s",
		t.Start.UTC().Format(time.RFC3339Nano), t.Method, t.Route, t.Status, t.DurationMS, t.ID)
	if t.Cache != "" {
		fmt.Fprintf(w, " cache=%s", t.Cache)
	}
	if t.Rung != "" {
		fmt.Fprintf(w, " rung=%s", t.Rung)
	}
	if t.Code != "" {
		fmt.Fprintf(w, " code=%s", t.Code)
	}
	fmt.Fprintln(w)
	for _, a := range t.Attempts {
		fmt.Fprintf(w, "  attempt %-8s %-12s %.3fms", a.Rung, a.Outcome, a.DurationMS)
		if a.Detail != "" {
			fmt.Fprintf(w, "  %s", a.Detail)
		}
		fmt.Fprintln(w)
	}
	for _, s := range t.Spans {
		fmt.Fprintf(w, "  span %-20s +%.3fms %.3fms\n", s.Name, float64(s.StartNS)/1e6, float64(s.WallNS)/1e6)
	}
	fmt.Fprintln(w)
}

// AccessEntry is one structured access-log line.
type AccessEntry struct {
	Time       string  `json:"time"`
	Trace      string  `json:"trace"`
	Method     string  `json:"method"`
	Route      string  `json:"route"`
	Status     int     `json:"status"`
	DurationMS float64 `json:"duration_ms"`
	Cache      string  `json:"cache,omitempty"`
	Rung       string  `json:"rung,omitempty"`
	Code       string  `json:"code,omitempty"`
}

// AccessLog writes one JSON line per sampled request. Sampling is
// deterministic (every Nth request), so under overload the log's
// growth rate is a constant fraction of traffic rather than a second
// overload. A nil *AccessLog drops everything.
type AccessLog struct {
	mu    sync.Mutex
	w     io.Writer
	every int64
	n     int64
}

// NewAccessLog logs every nth request to w (n <= 1 logs all). A nil
// writer returns a nil log, which is safe to use.
func NewAccessLog(w io.Writer, every int) *AccessLog {
	if w == nil {
		return nil
	}
	if every < 1 {
		every = 1
	}
	return &AccessLog{w: w, every: int64(every)}
}

// Log emits the entry if it falls on the sample. Safe on nil.
func (l *AccessLog) Log(e AccessEntry) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.n++
	if (l.n-1)%l.every != 0 {
		return
	}
	b, err := json.Marshal(e)
	if err != nil {
		return
	}
	b = append(b, '\n')
	_, _ = l.w.Write(b)
}
