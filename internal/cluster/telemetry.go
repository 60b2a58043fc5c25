package cluster

import (
	"context"
	"net/http"
	"strconv"
	"sync"
	"time"

	"givetake/internal/obs"
	"givetake/internal/telemetry"
)

// instruments is the router's handle on its metric families. Every
// name comes from the closed vocabulary in internal/obs/names.go, the
// same contract the serve layer keeps: the registry refuses undeclared
// families, so the router cannot invent scrape vocabulary.
type instruments struct {
	registry *telemetry.Registry
	traces   *telemetry.TraceRing

	requests  telemetry.Counter   // by (route, status)
	duration  telemetry.Histogram // by (route, status)
	attempts  telemetry.Counter   // by (node, outcome)
	failovers telemetry.Counter   // by (reason)
	hedges    telemetry.Counter   // by (outcome)
	probes    telemetry.Counter   // by (node, result)
	nodeState telemetry.Gauge     // by (node)
}

func newInstruments(reg *telemetry.Registry, traces *telemetry.TraceRing) *instruments {
	return &instruments{
		registry: reg,
		traces:   traces,
		requests: reg.Counter(obs.MetricRouteRequests,
			"Requests routed, by route and status.", "route", "status"),
		duration: reg.Histogram(obs.MetricRouteDuration,
			"End-to-end routed request latency in seconds.", nil, "route", "status"),
		attempts: reg.Counter(obs.MetricRouteAttempts,
			"Forwarded attempts, by node and outcome.", "node", "outcome"),
		failovers: reg.Counter(obs.MetricRouteFailovers,
			"Descents down a replica set after a failed attempt, by reason.", "reason"),
		hedges: reg.Counter(obs.MetricRouteHedges,
			"Hedged second requests, by outcome (launched|won|lost).", "outcome"),
		probes: reg.Counter(obs.MetricRouteProbes,
			"Health-probe outcomes, by node and result.", "node", "result"),
		nodeState: reg.Gauge(obs.MetricRouteNodeState,
			"Breaker state per node: 0 open, 1 half-open, 2 closed; -0.5 while politely unavailable.", "node"),
	}
}

// refreshNodeGauge re-publishes one node's breaker state after a
// transition or probe.
func (r *Router) refreshNodeGauge(n *node) {
	r.inst.nodeState.Set(n.stateGauge(), n.name)
}

// routeCarrier rides the request context so the proxy handler can hand
// its per-attempt log back to the instrumentation middleware without
// widening signatures — the same pattern serve uses.
type routeCarrier struct {
	mu       sync.Mutex // guards attempts
	attempts []telemetry.TraceAttempt
}

type carrierKey struct{}

func carrierFrom(ctx context.Context) *routeCarrier {
	c, _ := ctx.Value(carrierKey{}).(*routeCarrier)
	return c
}

// setAttempts records the forward attempts of the response about to be
// written. Nil-safe.
func (c *routeCarrier) setAttempts(a []telemetry.TraceAttempt) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.attempts = a
	c.mu.Unlock()
}

func (c *routeCarrier) snapshot() []telemetry.TraceAttempt {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.attempts
}

// instrument is the router's outermost middleware: it validates or
// assigns the request's X-Gnt-Trace ID (telemetry.AcceptTrace, as
// serve does), times the request, counts it, and records routed
// requests in the trace ring with one attempt entry per forwarded try
// — the router half of the end-to-end failover reconstruction.
func (r *Router) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		route := telemetry.RouteLabel(req.URL.Path)
		id, ctx := telemetry.AcceptTrace(w, req)
		car := &routeCarrier{}
		ctx = context.WithValue(ctx, carrierKey{}, car)
		sw := &telemetry.StatusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, req.WithContext(ctx))
		elapsed := time.Since(start)

		status := strconv.Itoa(sw.Status())
		r.inst.requests.Inc(route, status)
		r.inst.duration.Observe(elapsed.Seconds(), route, status)

		if route != "/analyze" && route != "/batch" {
			return
		}
		r.inst.traces.Add(telemetry.RequestTrace{
			ID:         id,
			Route:      route,
			Method:     req.Method,
			Start:      start,
			DurationMS: float64(elapsed.Microseconds()) / 1000,
			Status:     sw.Status(),
			Cache:      sw.Header().Get("X-Gnt-Cache"),
			Attempts:   car.snapshot(),
		})
	})
}

// Metrics exposes the router's metric registry (tests, embedding).
func (r *Router) Metrics() *telemetry.Registry { return r.inst.registry }

// Traces exposes the router's request-trace ring.
func (r *Router) Traces() *telemetry.TraceRing { return r.inst.traces }
