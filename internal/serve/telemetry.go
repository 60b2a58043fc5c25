package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"givetake/internal/journal"
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

// registerMetrics installs the families read at scrape time, called
// once the engine and journal exist: the server's in-flight and
// readiness gauges, the engine's families (Engine.RegisterMetrics),
// and the journal's, read from journal.Stats and from the replay stats
// warm stored. Every value is read live at each scrape, so no metric
// can lag the state it reports, and no event is counted twice.
func (s *Server) registerMetrics() {
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
	s.engine.RegisterMetrics(reg)

	journalCount := func(field func(journal.Stats) int64) func() float64 {
		return func() float64 { return float64(field(s.journal.Stats())) }
	}
	reg.CounterFunc(obs.MetricJournalAppended,
		"Records enqueued for journal group commit.",
		journalCount(func(st journal.Stats) int64 { return st.Appended }))
	reg.CounterFunc(obs.MetricJournalSealedBatches,
		"Journal batches sealed (Merkle root written, fsynced).",
		journalCount(func(st journal.Stats) int64 { return st.SealedBatches }))
	reg.CounterFunc(obs.MetricJournalSealedRecords,
		"Records inside sealed journal batches.",
		journalCount(func(st journal.Stats) int64 { return st.SealedRecords }))
	replay := func() journal.ReplayStats {
		s.replayMu.Lock()
		defer s.replayMu.Unlock()
		return s.replay
	}
	reg.CounterFunc(obs.MetricJournalReplayed,
		"Records verified and delivered by journal replay.",
		func() float64 { return float64(replay().Records) })
	reg.CounterSeriesFunc(obs.MetricJournalCorrupt,
		"Journal corruption dropped at replay.", []string{"kind"},
		func() []telemetry.SeriesSample {
			rs := replay()
			return []telemetry.SeriesSample{
				{LabelVals: []string{"batch"}, Value: float64(rs.CorruptBatches)},
				{LabelVals: []string{"record"}, Value: float64(rs.CorruptRecords)},
			}
		})
	reg.CounterFunc(obs.MetricJournalTornTails,
		"Journal segments that ended mid-batch (crash shape).",
		func() float64 { return float64(replay().TornTails) })
	if s.journal != nil {
		reg.GaugeFunc(obs.MetricJournalPending,
			"Appended records not yet sealed by a group commit.",
			func() float64 { return float64(s.journal.Stats().PendingRecords) })
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
	spans    []obs.PhaseStats
}

type carrierKey struct{}

func carrierFrom(ctx context.Context) *traceCarrier {
	c, _ := ctx.Value(carrierKey{}).(*traceCarrier)
	return c
}

// setSpans records the closed stage spans of the analysis that
// computed this request (cache hits have none: no stage ran). Nil-safe.
func (c *traceCarrier) setSpans(spans []obs.PhaseStats) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.spans = spans
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

func (c *traceCarrier) snapshot() (rung, code string, attempts []telemetry.TraceAttempt, spans []obs.PhaseStats) {
	if c == nil {
		return "", "", nil, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rung, c.code, c.attempts, c.spans
}

// responseMeta is what the middleware needs of a served response for
// labeling: the rung name (also the X-Gnt-Rung header), the error code
// and the ladder attempts. It is built once per rendered response, from
// the *Response (metaOf) or, for a journal-replayed entry, from the
// stored body (decodeMeta), and stored with the cache entry, so a hit,
// a follower and a replayed hit report exactly what the miss that
// filled the entry reported, without reading the body. It is shared by
// every request served the entry and never modified.
type responseMeta struct {
	rung     string
	code     string
	attempts []telemetry.TraceAttempt
}

// metaOf builds the meta of one rendered response.
func metaOf(resp *Response) *responseMeta {
	attempts := make([]telemetry.TraceAttempt, 0, len(resp.Ladder))
	for _, a := range resp.Ladder {
		attempts = append(attempts, telemetry.TraceAttempt{
			Rung:       a.Name,
			Outcome:    a.Outcome,
			Detail:     a.Detail,
			DurationMS: a.DurationMS,
		})
	}
	return &responseMeta{rung: resp.RungName, code: resp.Code, attempts: attempts}
}

// decodeMeta recovers the meta of a stored response body: the engine
// calls it once per journal record at replay, the one place a body is
// decoded for its meta. An undecodable body has none (nil).
func decodeMeta(body []byte) any {
	var resp Response
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil
	}
	return metaOf(&resp)
}

// noteMeta records a response's meta into the request's carrier and
// returns the rung name for the response header ("" without meta).
func noteMeta(ctx context.Context, m *responseMeta) string {
	if m == nil {
		return ""
	}
	carrierFrom(ctx).setMeta(m.rung, m.code, m.attempts)
	return m.rung
}

// instrument is the outermost middleware: it assigns (or validates and
// propagates) the request's trace ID, times the request, and — after
// the handler returns — records the latency histogram, the request
// counter, the trace-ring entry, and the sampled access-log line. It
// wraps the panic boundary, so a panicking request is still counted as
// its 500.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := telemetry.RouteLabel(r.URL.Path)
		id, ctx := telemetry.AcceptTrace(w, r)
		car := &traceCarrier{}
		ctx = context.WithValue(ctx, carrierKey{}, car)
		sw := &telemetry.StatusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r.WithContext(ctx))
		elapsed := time.Since(start)

		status := strconv.Itoa(sw.Status())
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
			Status:     sw.Status(),
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
			Status:     sw.Status(),
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
