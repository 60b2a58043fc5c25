// Package cluster is the fault-tolerant front door of a sharded
// GIVE-N-TAKE analysis cluster: a stdlib-only HTTP router that fronts
// N `gnt -mode serve` nodes and survives losing any of them.
//
// Routing is content-addressed. Every request is keyed by exactly the
// cache key the nodes themselves use (serve.CacheKeyFor, a SHA-256
// over source + execution parameters), and the key rendezvous-hashes
// (highest random weight) to an ordered replica set of K nodes. HRW
// gives the two properties a cache tier needs at scale-out: every
// router agrees on a key's replica set with no shared state, and
// adding or removing a node only moves the keys that hashed to it —
// the rest of the working set keeps hitting warm caches.
//
// Failure handling lifts the repo's message-level robustness moves
// (netsim's bounded saturating backoff, PR 1) and request-level moves
// (admission and the degradation ladder, PRs 4–5) to the node level:
//
//   - failover: a connect error, timeout, or 5xx sends the request
//     down the replica set with saturating-shift backoff + jitter;
//   - hedging: after a rolling-p99 delay, a second copy of a slow
//     request goes to the next replica and the first answer wins,
//     the loser is canceled — Eijkhout's "hide latency by overlapping
//     alternatives" applied to request routing;
//   - circuit breaking: active /readyz probes and passive in-band
//     errors feed a per-node closed → open → half-open breaker, so a
//     dead node stops costing connect timeouts within a probe cycle;
//   - drain awareness: a node answering /readyz 503 with reason
//     "draining" (or "warming") is alive but declining — it leaves
//     the available set without tripping the breaker, and its
//     in-flight work finishes on the node.
//
// The router serves its own /healthz (per-node breaker state, replica
// balance map, failover/hedge counters), /readyz, /metrics (gnt_route_*
// families through internal/telemetry), and /debug/requests (trace
// ring with one entry per attempt, sharing X-Gnt-Trace IDs with the
// nodes so a failed-over request reconstructs end-to-end).
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"givetake/internal/comm"
	"givetake/internal/engine"
	"givetake/internal/obs"
	"givetake/internal/serve"
	"givetake/internal/telemetry"
)

// RouteHeader names the node that answered a routed request and how
// many forward attempts it took, e.g. "127.0.0.1:8081;attempts=2" (a
// ";hedged" suffix marks a hedge win). Together with the echoed
// X-Gnt-Trace ID it lets a client see a failover without reading any
// router state.
const RouteHeader = "X-Gnt-Route"

// Defaults for the zero Config. DefaultProbeTimeout,
// DefaultRecoverThreshold and DefaultHedgeMax are not configurable:
// every router uses them as they are.
const (
	DefaultReplicas         = 2
	DefaultProbeInterval    = 250 * time.Millisecond
	DefaultProbeTimeout     = time.Second
	DefaultFailThreshold    = 3
	DefaultRecoverThreshold = 2
	DefaultAttemptTimeout   = 10 * time.Second
	DefaultBackoffBase      = 25 * time.Millisecond
	DefaultBackoffMax       = 400 * time.Millisecond
	DefaultHedgeMin         = 20 * time.Millisecond
	DefaultHedgeMax         = 2 * time.Second
	DefaultMaxBodyBytes     = 2 << 20
)

// Config parameterizes a Router.
type Config struct {
	// Nodes are the backend serve nodes ("host:port" or http URL).
	Nodes []string
	// Replicas is K, the replica-set size each key hashes to; clamped
	// to len(Nodes). Zero means DefaultReplicas.
	Replicas int
	// Addr is the router's listen address for ListenAndServe.
	Addr string

	// ProbeInterval is the active health prober's period.
	ProbeInterval time.Duration
	// FailThreshold opens a node's breaker after that many consecutive
	// failures (probe or in-band).
	FailThreshold int

	// AttemptTimeout caps each forwarded attempt's wall clock.
	AttemptTimeout time.Duration
	// BackoffBase / BackoffMax bound the failover backoff (saturating
	// doubling, netsim-style).
	BackoffBase time.Duration
	BackoffMax  time.Duration

	// HedgeMin is the floor of the hedge trigger delay around the
	// rolling p99; DisableHedge turns hedging off entirely.
	HedgeMin     time.Duration
	DisableHedge bool

	// MaxBodyBytes caps a routed request body (413 beyond it).
	MaxBodyBytes int64
	// DrainGrace mirrors serve.Config.DrainGrace for the router's own
	// shutdown: /readyz flips to draining, the listener stays open for
	// the grace window, then closes. Zero means serve's default;
	// negative disables.
	DrainGrace time.Duration
	// Seed seeds the backoff jitter; zero means 1 (deterministic
	// jitter is fine — it only needs to decorrelate routers, and every
	// production router passes its own seed or keeps the default and
	// relies on traffic phase).
	Seed int64

	// Metrics, when set, is the registry the router's families register
	// on; nil creates a private one.
	Metrics *telemetry.Registry
}

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = DefaultReplicas
	}
	if c.Replicas > len(c.Nodes) {
		c.Replicas = len(c.Nodes)
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = DefaultProbeInterval
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = DefaultFailThreshold
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = DefaultAttemptTimeout
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = DefaultBackoffBase
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = DefaultBackoffMax
	}
	if c.HedgeMin <= 0 {
		c.HedgeMin = DefaultHedgeMin
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if c.DrainGrace == 0 {
		c.DrainGrace = serve.DefaultDrainGrace
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Router fronts a set of serve nodes. Create with New, start the
// prober with Start (ListenAndServe does it for you), and mount
// Handler.
type Router struct {
	cfg    Config
	nodes  []*node
	client *http.Client
	inst   *instruments
	lat    *latTracker
	rng    *lockedRand
	mux    *http.ServeMux

	draining atomic.Bool
	started  atomic.Bool

	// healthz counters (the metric families carry the same totals with
	// labels; these feed the JSON payload without a registry scrape)
	routed         atomic.Int64
	failovers      atomic.Int64
	hedgesLaunched atomic.Int64
	hedgesWon      atomic.Int64
	exhausted      atomic.Int64
}

// New builds a Router from cfg (zero fields take defaults).
func New(cfg Config) (*Router, error) {
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("cluster: no nodes configured")
	}
	cfg = cfg.withDefaults()
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	r := &Router{
		cfg:    cfg,
		client: &http.Client{},
		inst:   newInstruments(reg, telemetry.NewTraceRing(telemetry.DefaultTraceRing)),
		lat:    &latTracker{},
		rng:    newLockedRand(cfg.Seed),
	}
	seen := map[string]bool{}
	for _, addr := range cfg.Nodes {
		n := newNode(addr)
		if seen[n.base] {
			return nil, fmt.Errorf("cluster: node %s configured twice", n.name)
		}
		seen[n.base] = true
		r.nodes = append(r.nodes, n)
		r.refreshNodeGauge(n)
	}
	reg.GaugeFunc(obs.MetricRouteHedgeDelay,
		"Current hedge trigger delay in seconds (rolling p99, clamped).",
		func() float64 { return r.lat.hedgeDelay(r.cfg.HedgeMin, DefaultHedgeMax).Seconds() })
	r.mux = http.NewServeMux()
	r.mux.HandleFunc("/analyze", r.handleProxy)
	r.mux.HandleFunc("/batch", r.handleProxy)
	r.mux.HandleFunc("/healthz", r.handleHealthz)
	r.mux.HandleFunc("/readyz", r.handleReadyz)
	r.mux.Handle("/metrics", reg.Handler())
	r.mux.Handle("/debug/requests", r.inst.traces.Handler())
	return r, nil
}

// Start launches the health prober; it runs until ctx is canceled.
// Idempotent — only the first call starts a prober.
func (r *Router) Start(ctx context.Context) {
	if r.started.Swap(true) {
		return
	}
	go r.probeLoop(ctx)
}

// Handler returns the router's HTTP handler with the trace/metrics
// middleware outermost.
func (r *Router) Handler() http.Handler { return r.instrument(r.mux) }

// BeginDrain flips the router's /readyz to draining (its own upstream
// balancer stops sending) while routed work continues to completion.
func (r *Router) BeginDrain() { r.draining.Store(true) }

// ListenAndServe runs the router until ctx is canceled, then drains
// through serve.ServeAndDrain: /readyz flips first, the listener stays
// open for the grace window, then shuts down gracefully. The listener
// binds synchronously so a bind conflict is reported immediately, and
// the prober starts only once it is bound.
func (r *Router) ListenAndServe(ctx context.Context) error {
	ln, err := serve.Listen(r.cfg.Addr)
	if err != nil {
		return err
	}
	r.Start(ctx)
	return serve.ServeAndDrain(ctx, ln, r.Handler(), r.cfg.DrainGrace, r.BeginDrain)
}

// ---- rendezvous hashing ----

// hrwScore is the highest-random-weight score of (key, node): FNV-1a
// over the node name then the key, passed through a splitmix64-style
// finalizer. The finalizer matters — raw FNV over short, similar node
// names ("host:8081" vs "host:8082") leaves correlated high bits, and
// correlated scores starve nodes of primaries. Deterministic across
// routers and restarts, which is all HRW needs.
func hrwScore(key, nodeName string) uint64 {
	h := fnv.New64a()
	_, _ = io.WriteString(h, nodeName)
	_, _ = io.WriteString(h, "\x00")
	_, _ = io.WriteString(h, key)
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// replicaSet returns the key's ordered replica set: all nodes ranked
// by descending HRW score, truncated to K. Availability is NOT
// consulted here — the forward loop skips unavailable members so that
// a recovered node resumes its old position (and its warm cache) the
// moment its breaker closes.
func (r *Router) replicaSet(key string) []*node {
	ranked := make([]*node, len(r.nodes))
	copy(ranked, r.nodes)
	sort.Slice(ranked, func(i, j int) bool {
		si, sj := hrwScore(key, ranked[i].name), hrwScore(key, ranked[j].name)
		if si != sj {
			return si > sj
		}
		return ranked[i].name < ranked[j].name
	})
	return ranked[:r.cfg.Replicas]
}

// routeKey derives the routing key for one request body. /analyze
// shares serve.CacheKeyFor — routing and node caching agree on
// identity, so a key's requests land where its cache entry lives.
// /batch bodies are routed whole by their bytes (a batch has no single
// content key; keeping it on one node preserves the envelope's
// single-admission-slot semantics).
func routeKey(route string, body []byte) (string, error) {
	if route == "/analyze" {
		var req serve.Request
		if err := json.Unmarshal(body, &req); err != nil {
			return "", err
		}
		return serve.CacheKeyFor(&req), nil
	}
	return engine.CacheKey(string(body), comm.Opts{}, "route="+route), nil
}

// ---- health probing ----

// probeLoop polls every node's /readyz at the configured interval
// until ctx is canceled.
func (r *Router) probeLoop(ctx context.Context) {
	t := time.NewTicker(r.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			r.probeAll(ctx)
		}
	}
}

// probeAll probes every node once. Exported to tests via probe_test
// helpers; production only reaches it through probeLoop.
func (r *Router) probeAll(ctx context.Context) {
	for _, n := range r.nodes {
		result := r.probeNode(ctx, n)
		r.inst.probes.Inc(n.name, result)
		r.refreshNodeGauge(n)
	}
}

// probeNode classifies one /readyz answer:
//
//	200                          → success (clears polite, feeds breaker recovery)
//	503 {"reason":"draining"}    → polite decline: out of rotation, breaker untouched
//	503 {"reason":"warming"}     → same (alive, will be back)
//	anything else / no answer    → failure (feeds the breaker)
func (r *Router) probeNode(ctx context.Context, n *node) string {
	pctx, cancel := context.WithTimeout(ctx, DefaultProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, n.base+"/readyz", nil)
	if err != nil {
		n.noteFailure(r.cfg.FailThreshold, err.Error())
		return "fail"
	}
	resp, err := r.client.Do(req)
	if err != nil {
		n.noteFailure(r.cfg.FailThreshold, err.Error())
		return "fail"
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	switch {
	case resp.StatusCode == http.StatusOK:
		n.clearPolite()
		n.noteSuccess(DefaultRecoverThreshold)
		return "ok"
	case resp.StatusCode == http.StatusServiceUnavailable:
		var rd serve.Readiness
		if err := json.Unmarshal(body, &rd); err == nil &&
			(rd.Reason == serve.ReasonDraining || rd.Reason == serve.ReasonWarming) {
			n.notePolite(rd.Reason)
			return rd.Reason
		}
		n.noteFailure(r.cfg.FailThreshold, "readyz 503")
		return "fail"
	default:
		n.noteFailure(r.cfg.FailThreshold, fmt.Sprintf("readyz %d", resp.StatusCode))
		return "fail"
	}
}

// ---- forwarding ----

// attemptOut is the resolved result of one forwarded attempt.
type attemptOut struct {
	node    *node
	hedge   bool
	status  int
	header  http.Header
	body    []byte
	err     error
	dur     time.Duration
	outcome string // ok | shed | connect | timeout | canceled | status-5xx
}

func (o *attemptOut) detail() string {
	if o.err != nil {
		return o.err.Error()
	}
	return fmt.Sprintf("status %d", o.status)
}

// maxResponseBytes caps a node response the router will relay (a
// defensive bound well above any rendered analysis).
const maxResponseBytes = 64 << 20

// attempt forwards body to one node and classifies the outcome. A
// status below 500 (other than 429) is a final answer — a 4xx belongs
// to the client, not the node.
func (r *Router) attempt(ctx context.Context, n *node, route string, body []byte, traceID string, hedge bool) *attemptOut {
	start := time.Now()
	fail := func(err error) *attemptOut {
		outcome := "connect"
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			outcome = "timeout"
		case errors.Is(err, context.Canceled):
			outcome = "canceled"
		}
		return &attemptOut{node: n, hedge: hedge, err: err, outcome: outcome, dur: time.Since(start)}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, n.base+route, bytes.NewReader(body))
	if err != nil {
		return fail(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set(telemetry.TraceHeader, traceID)
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return fail(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	if err != nil {
		// a node killed mid-body surfaces here: retryable, like connect
		return fail(err)
	}
	out := &attemptOut{
		node: n, hedge: hedge, status: resp.StatusCode,
		header: resp.Header.Clone(), body: b, dur: time.Since(start),
	}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		out.outcome = "shed"
	case resp.StatusCode >= 500:
		out.outcome = "status-5xx"
	default:
		out.outcome = "ok"
	}
	return out
}

// forwardResult is what one routed request resolved to.
type forwardResult struct {
	win      *attemptOut // nil: no replica answered (all down or all canceled)
	attempts []telemetry.TraceAttempt
	launched int
}

// forward walks the replica set: primary first, hedging to the next
// replica after the rolling-p99 delay, failing over with saturating
// backoff on connect/timeout/5xx, skipping open breakers and draining
// nodes. The first success wins and the loser is canceled. A 429 is
// failover-eligible (another replica may have capacity) but never a
// breaker failure; if every replica sheds, the last 429 is the answer
// so its Retry-After reaches the client.
func (r *Router) forward(ctx context.Context, route string, body []byte, set []*node, traceID string) forwardResult {
	resc := make(chan *attemptOut, len(set)+1) // buffered: a canceled loser never blocks
	var cancels []context.CancelFunc
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()

	res := forwardResult{}
	next, inFlight := 0, 0
	launch := func(hedge bool) bool {
		for next < len(set) {
			n := set[next]
			next++
			ok, trial := n.available()
			if !ok {
				continue
			}
			actx, cancel := context.WithTimeout(ctx, r.cfg.AttemptTimeout)
			cancels = append(cancels, cancel)
			inFlight++
			res.launched++
			go func(n *node, trial, hedge bool) {
				out := r.attempt(actx, n, route, body, traceID, hedge)
				if trial {
					n.releaseTrial()
				}
				resc <- out
			}(n, trial, hedge)
			return true
		}
		return false
	}

	if !launch(false) {
		return res // nothing available at all
	}

	var hedgeC <-chan time.Time
	if !r.cfg.DisableHedge {
		ht := time.NewTimer(r.nextHedgeDelay())
		defer ht.Stop()
		hedgeC = ht.C
	}
	hedged := false
	fails := 0
	var lastShed *attemptOut
	for inFlight > 0 {
		select {
		case <-ctx.Done():
			return res // client gone; nothing to say to no one
		case <-hedgeC:
			hedgeC = nil // at most one hedge per request
			if launch(true) {
				hedged = true
				r.hedgesLaunched.Add(1)
				r.inst.hedges.Inc("launched")
			}
		case out := <-resc:
			inFlight--
			res.attempts = append(res.attempts, telemetry.TraceAttempt{
				Rung:       out.node.name,
				Outcome:    out.outcome,
				Detail:     attemptDetail(out),
				DurationMS: float64(out.dur.Microseconds()) / 1000,
			})
			r.inst.attempts.Inc(out.node.name, out.outcome)
			switch out.outcome {
			case "ok":
				r.lat.observe(out.dur)
				if out.node.noteSuccess(DefaultRecoverThreshold) {
					r.refreshNodeGauge(out.node)
				}
				if out.hedge {
					r.hedgesWon.Add(1)
					r.inst.hedges.Inc("won")
				} else if hedged {
					r.inst.hedges.Inc("lost")
				}
				res.win = out
				return res
			case "shed":
				// alive and explicit: resets the failure streak
				if out.node.noteSuccess(DefaultRecoverThreshold) {
					r.refreshNodeGauge(out.node)
				}
				lastShed = out
				r.failovers.Add(1)
				r.inst.failovers.Inc("shed")
			default:
				if out.node.noteFailure(r.cfg.FailThreshold, out.detail()) {
					r.refreshNodeGauge(out.node)
				}
				fails++
				r.failovers.Add(1)
				r.inst.failovers.Inc(out.outcome)
			}
			if inFlight == 0 {
				if fails > 0 {
					bt := time.NewTimer(backoffDelay(r.cfg.BackoffBase, r.cfg.BackoffMax, fails-1, r.rng))
					select {
					case <-ctx.Done():
						bt.Stop()
						return res
					case <-bt.C:
					}
				}
				if !launch(false) {
					res.win = lastShed
					return res
				}
			}
		}
	}
	res.win = lastShed
	return res
}

// attemptDetail trims the detail recorded per attempt in the trace
// ring (error strings can carry long dial chains).
func attemptDetail(o *attemptOut) string {
	if o.outcome == "ok" {
		return ""
	}
	d := o.detail()
	if len(d) > 120 {
		d = d[:120]
	}
	return d
}

// ---- HTTP handlers ----

// relayHeaders are the node response headers the router passes
// through; everything else is the router's own to set.
var relayHeaders = []string{"Content-Type", "X-Gnt-Cache", "X-Gnt-Rung", "Retry-After"}

func (r *Router) handleProxy(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, &serve.Response{
			Error: "POST only", Code: "method-not-allowed",
		})
		return
	}
	route := req.URL.Path
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, r.cfg.MaxBodyBytes))
	if err != nil {
		status, code := http.StatusBadRequest, "bad-request"
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status, code = http.StatusRequestEntityTooLarge, "too-large"
		}
		writeJSON(w, status, &serve.Response{Error: err.Error(), Code: code})
		return
	}
	key, err := routeKey(route, body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, &serve.Response{Error: err.Error(), Code: "bad-json"})
		return
	}

	r.routed.Add(1)
	res := r.forward(req.Context(), route, body, r.replicaSet(key), telemetry.TraceIDFrom(req.Context()))
	carrierFrom(req.Context()).setAttempts(res.attempts)

	if res.win == nil {
		if req.Context().Err() != nil {
			writeJSON(w, 499, &serve.Response{Error: "client canceled", Code: "canceled"})
			return
		}
		r.exhausted.Add(1)
		// Retry-After spans one probe cycle — the soonest a breaker
		// could move — with the same floor-at-1 semantics as serve's
		// overload 429s.
		w.Header().Set("Retry-After", strconv.Itoa(serve.RetryAfterSeconds(r.cfg.ProbeInterval)))
		writeJSON(w, http.StatusServiceUnavailable, &serve.Response{
			Error: "no replica available for this key", Code: "unavailable",
		})
		return
	}

	win := res.win
	for _, h := range relayHeaders {
		if v := win.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	routeVal := fmt.Sprintf("%s;attempts=%d", win.node.name, res.launched)
	if win.hedge {
		routeVal += ";hedged"
	}
	w.Header().Set(RouteHeader, routeVal)
	w.WriteHeader(win.status)
	_, _ = w.Write(win.body)
}

// Health is the router's healthz payload.
type Health struct {
	OK       bool         `json:"ok"`
	Draining bool         `json:"draining"`
	Replicas int          `json:"replicas"`
	Nodes    []NodeHealth `json:"nodes"`
	// Available counts nodes currently accepting new work.
	Available int `json:"available"`
	// Balance maps each node to its share of a 256-key sample as
	// primary and as backup replica — the replica map, summarized.
	Balance map[string]BalanceEntry `json:"balance"`

	Routed         int64   `json:"routed"`
	Failovers      int64   `json:"failovers"`
	HedgesLaunched int64   `json:"hedges_launched"`
	HedgesWon      int64   `json:"hedges_won"`
	Exhausted      int64   `json:"exhausted"`
	HedgeDelayMS   float64 `json:"hedge_delay_ms"`
}

// BalanceEntry is one node's slice of the sampled replica map.
type BalanceEntry struct {
	Primary int `json:"primary"`
	Replica int `json:"replica"`
}

// balanceSample summarizes the replica map over 256 synthetic keys:
// with HRW the shares should be near-uniform, and a skew here means a
// node name change redistributed the keyspace.
func (r *Router) balanceSample() map[string]BalanceEntry {
	out := make(map[string]BalanceEntry, len(r.nodes))
	for _, n := range r.nodes {
		out[n.name] = BalanceEntry{}
	}
	for i := 0; i < 256; i++ {
		set := r.replicaSet(fmt.Sprintf("sample-%d", i))
		for j, n := range set {
			e := out[n.name]
			if j == 0 {
				e.Primary++
			} else {
				e.Replica++
			}
			out[n.name] = e
		}
	}
	return out
}

func (r *Router) availableNodes() int {
	avail := 0
	for _, n := range r.nodes {
		// peek without reserving the half-open trial slot
		nh := n.health()
		if nh.Reason == "" && nh.State != StateOpen.String() {
			avail++
		}
	}
	return avail
}

func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	nodes := make([]NodeHealth, 0, len(r.nodes))
	for _, n := range r.nodes {
		nodes = append(nodes, n.health())
	}
	writeJSON(w, http.StatusOK, Health{
		OK:             true,
		Draining:       r.draining.Load(),
		Replicas:       r.cfg.Replicas,
		Nodes:          nodes,
		Available:      r.availableNodes(),
		Balance:        r.balanceSample(),
		Routed:         r.routed.Load(),
		Failovers:      r.failovers.Load(),
		HedgesLaunched: r.hedgesLaunched.Load(),
		HedgesWon:      r.hedgesWon.Load(),
		Exhausted:      r.exhausted.Load(),
		HedgeDelayMS:   float64(r.lat.hedgeDelay(r.cfg.HedgeMin, DefaultHedgeMax).Microseconds()) / 1000,
	})
}

// handleReadyz mirrors the node readiness contract upward: draining
// while shutting down, unavailable when no node can take work, ready
// otherwise.
func (r *Router) handleReadyz(w http.ResponseWriter, req *http.Request) {
	if r.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, serve.Readiness{Reason: serve.ReasonDraining})
		return
	}
	if r.availableNodes() == 0 {
		writeJSON(w, http.StatusServiceUnavailable, serve.Readiness{Reason: "no-available-nodes"})
		return
	}
	writeJSON(w, http.StatusOK, serve.Readiness{Ready: true})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
