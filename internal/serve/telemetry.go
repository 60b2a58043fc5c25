package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"givetake/internal/engine"
	"givetake/internal/obs"
	"givetake/internal/telemetry"
)

// instruments is the server's handle on its metric families. One set
// exists per Server (created in New); every family name comes from the
// closed vocabulary in internal/obs/names.go, so this file cannot
// invent a metric the registry would not admit.
type instruments struct {
	registry *telemetry.Registry
	bridge   *telemetry.Bridge
	traces   *telemetry.TraceRing
	access   *telemetry.AccessLog

	requests  telemetry.Counter   // by (route, status)
	duration  telemetry.Histogram // by (route, rung, cache, status)
	attempts  telemetry.Counter   // by (rung, outcome)
	queueWait telemetry.Histogram // by (outcome)
}

func newInstruments(reg *telemetry.Registry, traces *telemetry.TraceRing, access *telemetry.AccessLog) *instruments {
	return &instruments{
		registry: reg,
		bridge:   telemetry.NewBridge(reg),
		traces:   traces,
		access:   access,
		requests: reg.Counter(obs.MetricRequestsTotal,
			"HTTP requests served, by route and status.", "route", "status"),
		duration: reg.Histogram(obs.MetricRequestDuration,
			"End-to-end request latency in seconds.", nil,
			"route", "rung", "cache", "status"),
		attempts: reg.Counter(obs.MetricLadderAttempts,
			"Degradation-ladder rung attempts, by rung and outcome.", "rung", "outcome"),
		queueWait: reg.Histogram(obs.MetricAdmissionWait,
			"Time spent waiting for an analysis slot, by outcome.", nil, "outcome"),
	}
}

// registerGauges installs the scrape-time occupancy gauges. Called
// after the engine and journal exist; every value is read live at each
// scrape, so gauges can never lag the state they report.
func (s *Server) registerGauges() {
	reg := s.inst.registry
	reg.GaugeFunc(obs.MetricInFlight,
		"Requests currently holding an analysis slot.",
		func() float64 { return float64(s.inFlight.Load()) })
	reg.GaugeFunc(obs.MetricReady,
		"Readiness to take new work (0 warming or draining, 1 ready).",
		func() float64 {
			if s.ready.Load() && !s.draining.Load() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc(obs.MetricPoolWorkers,
		"Engine worker count, which sizes the stage pipeline.",
		func() float64 { return float64(s.engine.Workers()) })
	reg.GaugeFunc(obs.MetricCacheEntries,
		"Resident result-cache entries.",
		func() float64 { return float64(s.engine.Stats().Cache.Entries) })
	reg.GaugeFunc(obs.MetricCacheBytes,
		"Resident result-cache bytes.",
		func() float64 { return float64(s.engine.Stats().Cache.Bytes) })
	reg.GaugeSeriesFunc(obs.MetricPipelineQueueDepth,
		"Tasks waiting in each pipeline stage's bounded input queue.",
		[]string{"stage"}, s.pipelineSamples(func(st engine.StageStats) float64 {
			return float64(st.QueueDepth)
		}))
	reg.GaugeSeriesFunc(obs.MetricPipelineOccupancy,
		"Pipeline stage workers executing a task right now.",
		[]string{"stage"}, s.pipelineSamples(func(st engine.StageStats) float64 {
			return float64(st.Busy)
		}))
	reg.GaugeSeriesFunc(obs.MetricPipelineWorkers,
		"Configured worker count of each pipeline stage.",
		[]string{"stage"}, s.pipelineSamples(func(st engine.StageStats) float64 {
			return float64(st.Workers)
		}))
	if s.journal != nil {
		reg.GaugeFunc(obs.MetricJournalPending,
			"Appended records not yet sealed by a group commit.",
			func() float64 { return float64(s.journal.Stats().PendingRecords) })
	}
}

// pipelineSamples adapts one field of the engine's per-stage pipeline
// stats into the scrape-time series callback shape the registry wants.
func (s *Server) pipelineSamples(field func(engine.StageStats) float64) func() []telemetry.GaugeSample {
	return func() []telemetry.GaugeSample {
		stats := s.engine.PipelineStats()
		out := make([]telemetry.GaugeSample, 0, len(stats))
		for _, st := range stats {
			out = append(out, telemetry.GaugeSample{
				LabelVals: []string{st.Stage},
				Value:     field(st),
			})
		}
		return out
	}
}

// traceCarrier rides the request context so the layers below the HTTP
// handler (ladder, cache) can report what happened back to the
// instrumentation middleware without widening every signature.
type traceCarrier struct {
	mu       sync.Mutex
	rung     string
	code     string
	attempts []telemetry.TraceAttempt
	spans    []telemetry.TraceSpan
}

type carrierKey struct{}

func carrierFrom(ctx context.Context) *traceCarrier {
	c, _ := ctx.Value(carrierKey{}).(*traceCarrier)
	return c
}

// setSpans records the per-stage spans of the analysis that computed
// this request (cache hits have none: no stage ran). Nil-safe.
func (c *traceCarrier) setSpans(spans []obs.Span) {
	if c == nil {
		return
	}
	out := make([]telemetry.TraceSpan, 0, len(spans))
	for _, sp := range spans {
		if sp.Dur < 0 {
			continue // span never closed; don't report a bogus duration
		}
		out = append(out, telemetry.TraceSpan{
			Name:   sp.Name,
			Depth:  sp.Depth,
			WallMS: float64(sp.Dur.Microseconds()) / 1000,
		})
	}
	c.mu.Lock()
	c.spans = out
	c.mu.Unlock()
}

// setMeta records the rung, error code, and ladder attempts of the
// response body about to be written. Nil-safe.
func (c *traceCarrier) setMeta(rung, code string, attempts []telemetry.TraceAttempt) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.rung, c.code, c.attempts = rung, code, attempts
	c.mu.Unlock()
}

func (c *traceCarrier) snapshot() (rung, code string, attempts []telemetry.TraceAttempt, spans []telemetry.TraceSpan) {
	if c == nil {
		return "", "", nil, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rung, c.code, c.attempts, c.spans
}

// responseMeta is the slice of a stored response body the middleware
// needs for labeling: every body — fresh, cached, or replayed — carries
// it, so a cache hit is exactly as reconstructable as the miss that
// filled it.
type responseMeta struct {
	Rung     int       `json:"rung"`
	RungName string    `json:"rung_name"`
	Code     string    `json:"code"`
	Ladder   []Attempt `json:"ladder"`
}

// noteResponseMeta extracts the rung/code/ladder of a rendered body
// into the request's carrier and returns the rung name for the
// response header.
func noteResponseMeta(ctx context.Context, body []byte) string {
	var m responseMeta
	if err := json.Unmarshal(body, &m); err != nil {
		return ""
	}
	attempts := make([]telemetry.TraceAttempt, 0, len(m.Ladder))
	for _, a := range m.Ladder {
		attempts = append(attempts, telemetry.TraceAttempt{
			Rung:       a.Name,
			Outcome:    a.Outcome,
			Detail:     a.Detail,
			DurationMS: a.DurationMS,
		})
	}
	carrierFrom(ctx).setMeta(m.RungName, m.Code, attempts)
	return m.RungName
}

// routeLabel bounds the route label to the known endpoint set: an
// arbitrary scanned path must never mint a new time series.
func routeLabel(path string) string {
	switch path {
	case "/analyze", "/batch", "/healthz", "/readyz", "/metrics", "/debug/requests":
		return path
	}
	return "other"
}

// statusWriter captures the status code a handler wrote (200 when the
// handler wrote a body without an explicit WriteHeader).
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// instrument is the outermost middleware: it assigns (or validates and
// propagates) the request's trace ID, times the request, and — after
// the handler returns — records the latency histogram, the request
// counter, the trace-ring entry, and the sampled access-log line. It
// wraps the panic boundary, so a panicking request is still counted as
// its 500.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := routeLabel(r.URL.Path)
		id := r.Header.Get(telemetry.TraceHeader)
		if !telemetry.ValidTraceID(id) {
			id = telemetry.NewTraceID()
		}
		w.Header().Set(telemetry.TraceHeader, id)

		car := &traceCarrier{}
		ctx := telemetry.WithTraceID(r.Context(), id)
		ctx = context.WithValue(ctx, carrierKey{}, car)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r.WithContext(ctx))
		elapsed := time.Since(start)

		status := strconv.Itoa(sw.status())
		cache := sw.Header().Get("X-Gnt-Cache")
		rung, code, attempts, spans := car.snapshot()
		s.inst.requests.Inc(route, status)
		s.inst.duration.Observe(elapsed.Seconds(), route, rung, cache, status)

		// The trace ring and access log follow analysis traffic only;
		// scrapes and probes would drown the signal they exist for.
		if route != "/analyze" && route != "/batch" {
			return
		}
		s.inst.traces.Add(telemetry.RequestTrace{
			ID:         id,
			Route:      route,
			Method:     r.Method,
			Start:      start,
			DurationMS: float64(elapsed.Microseconds()) / 1000,
			Status:     sw.status(),
			Cache:      cache,
			Rung:       rung,
			Code:       code,
			Attempts:   attempts,
			Spans:      spans,
		})
		s.inst.access.Log(telemetry.AccessEntry{
			Time:       start.UTC().Format(time.RFC3339Nano),
			Trace:      id,
			Method:     r.Method,
			Route:      route,
			Status:     sw.status(),
			DurationMS: float64(elapsed.Microseconds()) / 1000,
			Cache:      cache,
			Rung:       rung,
			Code:       code,
		})
	})
}

// observeQueueWait records one admission-queue wait by outcome.
func (s *Server) observeQueueWait(outcome string, start time.Time) {
	s.inst.queueWait.Observe(time.Since(start).Seconds(), outcome)
}

// Metrics exposes the server's metric registry (tests, embedding).
func (s *Server) Metrics() *telemetry.Registry { return s.inst.registry }

// Traces exposes the server's request-trace ring.
func (s *Server) Traces() *telemetry.TraceRing { return s.inst.traces }

// PprofHandler returns the profiling mux served on Config.PprofAddr:
// the standard net/http/pprof pages under /debug/pprof/. It is a
// separate handler — never mounted on the service mux — so profiling
// exposure is decided by where the caller binds it, not by a path
// convention.
func PprofHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
