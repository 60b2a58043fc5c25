// Package serve turns the GIVE-N-TAKE pipeline into a long-running
// analysis service: POST a mini-Fortran program, get back a verified
// communication placement as structured JSON. The package exists to
// harden the analysis against the failure modes a batch CLI can shrug
// off but a service cannot — panics, pathological inputs, deadline
// storms, and overload — via three mechanisms:
//
//   - per-request isolation: every stage runs behind a recover
//     boundary, so one poisoned request can never take the process
//     down, and a typed solver-invariant violation (core.ErrInvariant)
//     is an error, not a crash;
//
//   - a degradation ladder (ladder.go): full placement → no-hoist
//     (STEAL_init) retry → atomic-at-consumption floor. The floor runs
//     no dataflow solver and is trivially balanced, so every
//     well-formed request ends in a statically verified placement;
//
//   - admission control: the engine's Workers slots are the one queue
//     (engine.Admit), whose timeout sheds overload as 429s, and request
//     bodies are capped before JSON decoding.
//
// The chaos subpackage replays corpus and generated programs with
// injected panics, corrupted solutions, malformed sources, and
// 1ms deadlines to demonstrate all of the above under fire.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"givetake/internal/comm"
	"givetake/internal/engine"
	"givetake/internal/journal"
	"givetake/internal/telemetry"
)

// Defaults for the zero Config.
const (
	DefaultQueueTimeout   = 2 * time.Second
	DefaultRequestTimeout = 10 * time.Second
	DefaultMaxSteps       = 2_000_000
	DefaultMaxSourceBytes = 1 << 20
	DefaultMaxBatch       = 64
	DefaultDrainGrace     = 250 * time.Millisecond
)

// Config parameterizes a Server.
type Config struct {
	// Addr is the listen address for ListenAndServe (":8075" style).
	Addr string
	// QueueTimeout bounds how long a request waits for one of the
	// engine's slots before being shed with 429.
	QueueTimeout time.Duration
	// RequestTimeout caps each request's analysis wall clock; a
	// client-supplied timeout_ms is clamped to it.
	RequestTimeout time.Duration
	// MaxSteps is the execution step budget for execute=true requests.
	MaxSteps int64
	// MaxSourceBytes caps the request body (413 beyond it).
	MaxSourceBytes int64
	// MaxBatch bounds the programs accepted in one /batch request.
	MaxBatch int
	// Workers is the number of engine slots: requests in flight and
	// programs analyzed at once, /batch items included; 0: GOMAXPROCS.
	Workers int
	// CacheBytes bounds the engine's result cache; zero means the engine
	// default, negative disables caching.
	CacheBytes int64
	// AllowChaos honors fault-injection fields on requests. Never set
	// in production; the chaos harness sets it.
	AllowChaos bool

	// JournalDir, when set, makes the result cache durable: cache fills
	// group-commit to a segment journal under this directory, and a
	// restart replays the verified records into a warm cache before
	// /readyz reports ready.
	JournalDir string
	// JournalBackend overrides the journal's storage (tests inject a
	// MemBackend or FaultBackend); it wins over JournalDir.
	JournalBackend journal.Backend
	// JournalFlushWait bounds how long an appended record may sit
	// unsealed before the group commit fires; zero means the journal
	// default (50ms).
	JournalFlushWait time.Duration

	// Metrics, when set, is the registry the server's metric families
	// register on; nil creates a private registry. Either way /metrics
	// serves it. The engine and journal families read this server's
	// state at scrape time, so a second server registering on the same
	// registry takes those families over.
	Metrics *telemetry.Registry
	// AccessLog, when set, receives one structured JSON line per
	// sampled analysis request; nil disables access logging.
	AccessLog io.Writer
	// AccessLogEvery samples every nth analysis request into the access
	// log (values below 1 log all).
	AccessLogEvery int
	// PprofAddr, when set, serves net/http/pprof on its own listener
	// (ListenAndServe starts it alongside the service listener). Kept
	// off the service mux so profiling exposure is a bind decision.
	PprofAddr string

	// DrainGrace is how long a context-canceled ListenAndServe keeps
	// the listener open after flipping /readyz to draining: routers and
	// load balancers polling readiness stop sending new work before the
	// port actually closes, so a rolling restart never bounces a request
	// off a closed socket. Zero means DefaultDrainGrace; negative
	// disables the grace window (tests).
	DrainGrace time.Duration
}

func (c Config) withDefaults() Config {
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = DefaultQueueTimeout
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = DefaultRequestTimeout
	}
	if c.MaxSteps <= 0 {
		c.MaxSteps = DefaultMaxSteps
	}
	if c.MaxSourceBytes <= 0 {
		c.MaxSourceBytes = DefaultMaxSourceBytes
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	if c.DrainGrace == 0 {
		c.DrainGrace = DefaultDrainGrace
	}
	return c
}

// Server is the analysis service. Create with New, mount Handler (or
// call ListenAndServe), and every POST /analyze gets a Response.
type Server struct {
	cfg      Config
	engine   *engine.Engine
	journal  *journal.Journal
	inst     *instruments
	inFlight atomic.Int64
	served   atomic.Int64
	mux      *http.ServeMux

	ready     atomic.Bool // journal replay complete (or no journal)
	draining  atomic.Bool // shutdown begun: finish in-flight, take no new work
	replayMu  sync.Mutex
	replay    journal.ReplayStats
	replayErr error
}

// New builds a Server from cfg (zero fields take defaults). With a
// journal configured (JournalDir or JournalBackend), New opens the
// segment log, starts replaying it into the result cache in the
// background, and /readyz reports 503 until the replay finishes; the
// error return covers journal storage that cannot be opened.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()

	// Telemetry exists before the journal does: the journal takes the
	// bridge as its collector, so its flush and replay spans feed the
	// stage histogram from the first replayed record onward.
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	inst := newInstruments(reg,
		telemetry.NewTraceRing(telemetry.DefaultTraceRing),
		telemetry.NewAccessLog(cfg.AccessLog, cfg.AccessLogEvery))

	backend := cfg.JournalBackend
	if backend == nil && cfg.JournalDir != "" {
		fb, err := journal.NewFileBackend(cfg.JournalDir)
		if err != nil {
			return nil, fmt.Errorf("journal dir: %w", err)
		}
		backend = fb
	}
	var jn *journal.Journal
	if backend != nil {
		j, err := journal.Open(journal.Config{
			Backend:   backend,
			MaxWait:   cfg.JournalFlushWait,
			Collector: inst.bridge,
		})
		if err != nil {
			return nil, fmt.Errorf("journal open: %w", err)
		}
		jn = j
	}
	s := &Server{
		cfg:     cfg,
		journal: jn,
		inst:    inst,
		engine: engine.New(engine.Config{
			Workers:    cfg.Workers,
			CacheBytes: cfg.CacheBytes,
			Journal:    jn,
		}),
	}
	s.registerMetrics()
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/analyze", s.handleAnalyze)
	s.mux.HandleFunc("/batch", s.handleBatch)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	// /metrics and /debug/requests answer regardless of readiness: a
	// warming node is exactly when an operator needs them.
	s.mux.Handle("/metrics", reg.Handler())
	s.mux.Handle("/debug/requests", inst.traces.Handler())
	if jn == nil {
		s.ready.Store(true)
	} else {
		go s.warm()
	}
	return s, nil
}

// warm replays the journal into the result cache, then flips ready.
// Corruption in the log is counted and skipped by the journal layer —
// only backend access failures surface as a replay error, and even
// then the node becomes ready (cold) rather than wedged.
func (s *Server) warm() {
	rs, err := s.engine.WarmFromJournal(context.Background(), decodeMeta)
	s.replayMu.Lock()
	s.replay, s.replayErr = rs, err
	s.replayMu.Unlock()
	s.ready.Store(true)
}

// Close drains the journal: the pending batch group-commits before the
// process exits, so a graceful shutdown loses nothing. (A crash loses
// at most the unsealed tail — that is the durability contract.) The
// engine owns no goroutine, so a request after Close is still analyzed
// and served; only its journal append is dropped.
func (s *Server) Close() error {
	return s.journal.Close()
}

// Engine exposes the server's analysis engine (stats, tests).
func (s *Server) Engine() *engine.Engine { return s.engine }

// Journal exposes the server's result journal (nil when not
// configured); the crash harness uses it to simulate SIGKILL.
func (s *Server) Journal() *journal.Journal { return s.journal }

// Ready reports whether startup replay has completed (always true
// without a journal).
func (s *Server) Ready() bool { return s.ready.Load() }

// BeginDrain flips the server into draining: /readyz answers 503 with
// reason "draining" from this moment on, so routers stop sending new
// work, while everything already in flight (and anything that still
// arrives before the listener closes) is served normally. Idempotent;
// ListenAndServe calls it on context cancellation, before the listener
// closes.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Handler returns the service's HTTP handler: the instrumentation
// middleware outside the outermost panic boundary, so even a request
// that panics its way to a structured 500 is counted, timed, and
// traced as one.
func (s *Server) Handler() http.Handler {
	boundary := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				// net/http would recover too, but would kill the
				// connection without a body; we owe every request a
				// structured answer
				writeJSON(w, http.StatusInternalServerError, &Response{
					Error: fmt.Sprintf("internal panic: %v", rec), Code: "panic",
				})
			}
		}()
		s.mux.ServeHTTP(w, r)
	})
	return s.instrument(boundary)
}

// ListenAndServe runs the service until ctx is canceled, then drains
// and shuts down gracefully (ServeAndDrain). The listener is bound
// synchronously, so a bind conflict is reported immediately and can
// never race ctx cancellation into looking like a clean shutdown.
func (s *Server) ListenAndServe(ctx context.Context) error {
	ln, err := Listen(s.cfg.Addr)
	if err != nil {
		return err
	}
	// The profiling listener is separate from the service listener by
	// design: pprof exposure is decided by where -pprof binds, and a
	// busy service port cannot starve a profile grab. Bound
	// synchronously for the same conflict-reporting reason as above.
	if s.cfg.PprofAddr != "" {
		pln, perr := net.Listen("tcp", s.cfg.PprofAddr)
		if perr != nil {
			ln.Close()
			return fmt.Errorf("pprof listen: %w", perr)
		}
		ps := &http.Server{Handler: PprofHandler()}
		go func() { _ = ps.Serve(pln) }()
		defer ps.Close()
	}
	return ServeAndDrain(ctx, ln, s.Handler(), s.cfg.DrainGrace, s.BeginDrain)
}

// Listen binds addr (":http" when empty) for ServeAndDrain.
func Listen(addr string) (net.Listener, error) {
	if addr == "" {
		addr = ":http"
	}
	return net.Listen("tcp", addr)
}

// ServeAndDrain serves h on ln until ctx is canceled, then drains:
// beginDrain advertises the shutdown (on /readyz), the listener keeps
// serving for the grace window (none when grace <= 0) so routers that
// poll readiness stop routing before the port closes, and Shutdown
// gives whatever is still in flight 5s. A serve-time listener failure
// is returned in preference to the graceful-close sentinel. The
// server and the cluster router both shut down through it.
func ServeAndDrain(ctx context.Context, ln net.Listener, h http.Handler, grace time.Duration, beginDrain func()) error {
	hs := &http.Server{Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		beginDrain()
		if grace > 0 {
			gt := time.NewTimer(grace)
			select {
			case err := <-errc:
				gt.Stop()
				return err
			case <-gt.C:
			}
		}
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		serr := hs.Shutdown(sctx)
		// Shutdown makes Serve return promptly, so this drain never
		// blocks; without it the serving goroutine's error would be
		// dropped on the floor.
		if lerr := <-errc; lerr != nil && !errors.Is(lerr, http.ErrServerClosed) {
			return lerr
		}
		return serr
	}
}

// JournalHealth is the journal block of the healthz payload: write-side
// lag and flush timing from the live journal, plus what startup replay
// verified, skipped, and delivered.
type JournalHealth struct {
	// Stats carries pending (unsealed) records/bytes — the durability
	// lag — plus sealed totals and last/max flush latency.
	Stats journal.Stats `json:"stats"`
	// Replay is the startup replay's accounting: batches and records
	// delivered, corruption counted and skipped.
	Replay journal.ReplayStats `json:"replay"`
	// ReplayDone mirrors /readyz; ReplayError is a backend access
	// failure during replay (corruption is never an error).
	ReplayDone  bool   `json:"replay_done"`
	ReplayError string `json:"replay_error,omitempty"`
}

// Health is the healthz payload.
type Health struct {
	OK       bool           `json:"ok"`
	InFlight int64          `json:"in_flight"`
	Served   int64          `json:"served"`
	Engine   engine.Stats   `json:"engine"`
	Journal  *JournalHealth `json:"journal,omitempty"`
}

func (s *Server) journalHealth() *JournalHealth {
	if s.journal == nil {
		return nil
	}
	s.replayMu.Lock()
	jh := &JournalHealth{
		Stats:      s.journal.Stats(),
		Replay:     s.replay,
		ReplayDone: s.ready.Load(),
	}
	if s.replayErr != nil {
		jh.ReplayError = s.replayErr.Error()
	}
	s.replayMu.Unlock()
	return jh
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, Health{
		OK:       true,
		InFlight: s.inFlight.Load(),
		Served:   s.served.Load(),
		Engine:   s.engine.Stats(),
		Journal:  s.journalHealth(),
	})
}

// Drain/warm-up reasons reported by /readyz alongside its 503.
const (
	// ReasonWarming: startup journal replay has not finished yet.
	ReasonWarming = "warming"
	// ReasonDraining: shutdown has begun; in-flight work completes but
	// no new work should be routed here.
	ReasonDraining = "draining"
)

// Readiness is the readyz payload.
type Readiness struct {
	Ready bool `json:"ready"`
	// Reason explains a 503: "warming" (journal replay in progress) or
	// "draining" (shutdown begun; in-flight requests still complete).
	Reason string `json:"reason,omitempty"`
	// Replayed is the records warmed into the cache (0 until ready).
	Replayed int64 `json:"replayed"`
}

// handleReadyz gates traffic on lifecycle state: 503 "warming" while
// the journal is still filling the cache, 503 "draining" as soon as
// shutdown begins — before the listener closes, so routers polling
// readiness stop sending first — and 200 in between. Load balancers
// poll this; /healthz stays 200 throughout because the process is
// alive either way.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, Readiness{Reason: ReasonDraining})
		return
	}
	if !s.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, Readiness{Reason: ReasonWarming})
		return
	}
	s.replayMu.Lock()
	replayed := s.replay.Records
	s.replayMu.Unlock()
	writeJSON(w, http.StatusOK, Readiness{Ready: true, Replayed: replayed})
}

// decodeBody decodes a JSON request body of at most maxBytes into v,
// answering 400 (bad-json) or 413 (too-large) itself when it cannot.
// It runs BEFORE admission on every path: a client trickling its body
// byte-by-byte must burn its own connection, not an analysis slot. (The
// service once acquired the slot first, which let a handful of
// slowloris uploads starve every fast request behind them.)
func decodeBody(w http.ResponseWriter, r *http.Request, maxBytes int64, v any) bool {
	body := http.MaxBytesReader(w, r.Body, maxBytes)
	if err := json.NewDecoder(body).Decode(v); err != nil {
		status, code := http.StatusBadRequest, "bad-json"
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status, code = http.StatusRequestEntityTooLarge, "too-large"
		}
		writeJSON(w, status, &Response{Error: err.Error(), Code: code})
		return false
	}
	return true
}

// validate rejects a decoded request that must not reach the ladder.
// It returns a ready-to-write error response, or nil when admissible.
func (s *Server) validate(req *Request) (int, *Response) {
	if int64(len(req.Source)) > s.cfg.MaxSourceBytes {
		return http.StatusRequestEntityTooLarge, &Response{
			Error: "source exceeds MaxSourceBytes", Code: "too-large",
		}
	}
	if req.Chaos != nil && !s.cfg.AllowChaos {
		return http.StatusUnprocessableEntity, &Response{
			Error: "chaos injection disabled on this server", Code: "chaos-disabled",
		}
	}
	return 0, nil
}

// requestTimeout is the analysis deadline of one request: the client's
// timeout_ms when it is set and shorter than RequestTimeout.
func (s *Server) requestTimeout(req *Request) time.Duration {
	timeout := s.cfg.RequestTimeout
	if req.TimeoutMS > 0 {
		if t := time.Duration(req.TimeoutMS) * time.Millisecond; t < timeout {
			timeout = t
		}
	}
	return timeout
}

// admit waits for one of the engine's slots, bounded by the queue
// timeout, and counts the request in flight. Returns a release func on
// success, nil when the request was shed (with a 429) or the client left.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) func() {
	start := time.Now()
	release, err := s.engine.Admit(r.Context(), s.cfg.QueueTimeout)
	switch {
	case err == nil:
		s.observeQueueWait("won", start)
		s.inFlight.Add(1)
		return func() { s.inFlight.Add(-1); release() }
	case errors.Is(err, engine.ErrOverloaded):
		s.observeQueueWait("shed", start)
		// Retry-After tells well-behaved clients to back off for about
		// one queue-timeout window — retrying sooner would just re-queue
		// into the same congestion and shed again.
		w.Header().Set("Retry-After", strconv.Itoa(RetryAfterSeconds(s.cfg.QueueTimeout)))
		pool := s.engine.Stats().Pool
		writeJSON(w, http.StatusTooManyRequests, &Response{
			Error: "server at capacity; retry later", Code: "overloaded",
			Admission: &AdmissionCounts{
				Won:  pool.AdmissionWon,
				Shed: pool.AdmissionShed,
			},
		})
	default:
		s.observeQueueWait("abandoned", start) // client gone while queued; nothing to say to no one
	}
	return nil
}

// RetryAfterSeconds rounds a backoff window up to whole seconds,
// floored at 1 (Retry-After: 0 invites an immediate retry storm). The
// cluster router reuses it so its all-replicas-down 503s carry the
// same semantics as the server's own overload 429s.
func RetryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// statusFor maps a structured response to its transport status.
func statusFor(resp *Response) int {
	if resp.OK {
		return http.StatusOK
	}
	switch resp.Code {
	case "parse-error":
		return http.StatusUnprocessableEntity
	case "canceled":
		return 499 // client closed request (nginx convention)
	default:
		return http.StatusInternalServerError
	}
}

// cacheable reports whether a rendered response is deterministic in the
// request content alone. Deadline- or cancellation-shaped ladders
// depend on when the request ran, not what it asked, and must never be
// replayed to a later caller.
func cacheable(resp *Response) bool {
	if !resp.OK {
		return false
	}
	for _, att := range resp.Ladder {
		if att.Outcome == "deadline" || att.Outcome == "canceled" {
			return false
		}
	}
	return true
}

// CacheKeyFor derives the content address of one request: everything
// that can change the rendered bytes — source, execution parameters,
// and the client timeout (it clamps the deadline, which shapes
// degradation). Exported because the cluster router rendezvous-hashes
// on exactly this key: routing and caching must agree on identity, or
// scale-out would scatter a key's requests across nodes and destroy
// the hit rate.
func CacheKeyFor(req *Request) string {
	// the three parameters are encoded into one buffer and passed as
	// slices of one string: "execute=<bool>", "n=<int>", "timeout_ms=<int>"
	b := make([]byte, 0, 80)
	b = strconv.AppendBool(append(b, "execute="...), req.Execute)
	i := len(b)
	b = strconv.AppendInt(append(b, "n="...), req.N, 10)
	j := len(b)
	b = strconv.AppendInt(append(b, "timeout_ms="...), req.TimeoutMS, 10)
	ex := string(b)
	return engine.CacheKey(req.Source, comm.Opts{}, ex[:i], ex[i:j], ex[j:])
}

// analyzeCached runs one admitted request through the result cache:
// repeated identical requests are served stored byte-identical bodies,
// and a thundering herd of identical requests costs one analysis.
// Chaos-bearing requests bypass cache and single-flight entirely —
// injected faults must never be stored or shared.
func (s *Server) analyzeCached(ctx context.Context, req *Request) (engine.Cached, engine.CacheSource, error) {
	compute := func(ctx context.Context) (engine.Cached, bool, error) {
		resp := s.Analyze(ctx, req)
		body, err := json.Marshal(resp)
		if err != nil {
			return engine.Cached{}, false, err
		}
		body = append(body, '\n')
		return engine.Cached{Status: statusFor(resp), Body: body, Meta: metaOf(resp)}, cacheable(resp), nil
	}
	if req.Chaos != nil {
		c, _, err := compute(ctx)
		return c, engine.CacheBypass, err
	}
	return s.engine.Do(ctx, CacheKeyFor(req), compute)
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, &Response{
			Error: "POST only", Code: "method-not-allowed",
		})
		return
	}

	// decode and validate before competing for a slot
	var req Request
	if !decodeBody(w, r, s.cfg.MaxSourceBytes, &req) {
		return
	}
	if status, errResp := s.validate(&req); errResp != nil {
		writeJSON(w, status, errResp)
		return
	}

	// admission: wait for a slot, but not forever — overload degrades to
	// fast structured 429s; the slot is held until the response is done
	release := s.admit(w, r)
	if release == nil {
		return
	}
	defer release()

	ctx, cancel := context.WithTimeout(r.Context(), s.requestTimeout(&req))
	defer cancel()

	cached, src, err := s.analyzeCached(ctx, &req)
	if err != nil {
		carrierFrom(r.Context()).setMeta("", "canceled", nil)
		writeJSON(w, 499, &Response{Error: err.Error(), Code: "canceled"})
		return
	}
	s.served.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Gnt-Cache", string(src))
	// Every cache entry carries its rung and ladder as meta, so hits and
	// misses are equally reconstructable: the meta feeds the trace ring
	// and the rung lands on a response header for the client and the
	// latency histogram's rung label.
	meta, _ := cached.Meta.(*responseMeta)
	if rung := noteMeta(r.Context(), meta); rung != "" {
		w.Header().Set("X-Gnt-Rung", rung)
	}
	w.WriteHeader(cached.Status)
	_, _ = w.Write(cached.Body)
}

// BatchRequest is one /batch body: up to MaxBatch analysis requests
// answered in order.
type BatchRequest struct {
	Requests []Request `json:"requests"`
}

// BatchResponse is the /batch envelope. Results[i] is the rendered
// Response for Requests[i], byte-identical to what /analyze would have
// returned; Cache[i] reports how it was obtained (hit | miss | follow |
// bypass). The disposition lives in the envelope, never in the result
// bytes, so cached and fresh result bodies stay comparable.
type BatchResponse struct {
	Results []json.RawMessage `json:"results"`
	Cache   []string          `json:"cache"`
}

// handleBatch analyzes a batch of programs through Engine.Map. The
// batch is admitted once, competing fairly with single requests; its
// first program runs on that slot and the rest on whatever engine slots
// free up, so the engine's bound holds across /analyze and /batch.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, &Response{
			Error: "POST only", Code: "method-not-allowed",
		})
		return
	}

	// decode before admission, same as /analyze: the batch body cap
	// scales with how many programs a batch may carry
	var breq BatchRequest
	if !decodeBody(w, r, s.cfg.MaxSourceBytes*int64(s.cfg.MaxBatch), &breq) {
		return
	}
	if len(breq.Requests) == 0 {
		writeJSON(w, http.StatusBadRequest, &Response{
			Error: "empty batch", Code: "bad-request",
		})
		return
	}
	if len(breq.Requests) > s.cfg.MaxBatch {
		writeJSON(w, http.StatusUnprocessableEntity, &Response{
			Error: fmt.Sprintf("batch of %d exceeds MaxBatch %d", len(breq.Requests), s.cfg.MaxBatch),
			Code:  "batch-too-large",
		})
		return
	}

	release := s.admit(w, r)
	if release == nil {
		return
	}
	defer release()

	out := BatchResponse{
		Results: make([]json.RawMessage, len(breq.Requests)),
		Cache:   make([]string, len(breq.Requests)),
	}
	launched := s.engine.Map(r.Context(), len(breq.Requests), func(ctx context.Context, i int) {
		req := &breq.Requests[i]
		render := func(resp *Response, src engine.CacheSource) {
			b, _ := json.Marshal(resp)
			out.Results[i], out.Cache[i] = b, string(src)
		}
		if _, errResp := s.validate(req); errResp != nil {
			render(errResp, engine.CacheBypass)
			return
		}
		ictx, cancel := context.WithTimeout(ctx, s.requestTimeout(req))
		defer cancel()
		cached, src, err := s.analyzeCached(ictx, req)
		if err != nil {
			render(&Response{Error: err.Error(), Code: "canceled"}, src)
			return
		}
		s.served.Add(1)
		out.Results[i] = json.RawMessage(trimNewline(cached.Body))
		out.Cache[i] = string(src)
	})
	// A canceled batch stops launching mid-way; the slots Map never
	// reached still owe the client an answer, not a null.
	for i := launched; i < len(breq.Requests); i++ {
		b, _ := json.Marshal(&Response{Error: context.Canceled.Error(), Code: "canceled"})
		out.Results[i], out.Cache[i] = b, string(engine.CacheBypass)
	}
	writeJSON(w, http.StatusOK, out)
}

// trimNewline drops the trailing newline a stored body carries
// from its stream encoding, keeping batch JSON arrays tidy.
func trimNewline(b []byte) []byte {
	if n := len(b); n > 0 && b[n-1] == '\n' {
		return b[:n-1]
	}
	return b
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
