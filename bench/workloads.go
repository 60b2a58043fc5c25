package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	gt "givetake"
	"givetake/internal/cluster"
	"givetake/internal/progen"
	"givetake/internal/serve"
	"givetake/internal/telemetry"
)

// Workload shapes. Run length comes from BENCHMARK.json; everything else
// is fixed here, so one seed always sends the same inputs on the same
// schedule.
const (
	coldRate      = 80.0   // serve-cold arrivals per second, one node
	warmRate      = 1000.0 // route-warm arrivals per second, through the router
	warmKeys      = 64     // distinct route-warm programs, all warmed in set-up
	warmZipfS     = 1.2    // route-warm key skew
	warmNodes     = 3
	warmReplicas  = 2
	poolPrograms  = 512 // distinct programs behind serve-cold
	smallMin      = 20  // serving programs have 20..59 statements
	smallSpan     = 40
	largePrograms = 16 // compile-large programs have 1000..4000 statements
	largeMin      = 1000
	largeMax      = 4000
	progDepth     = 3
	// replayPrograms bounds the serving workloads' layer replay; the
	// sizes cycle every smallSpan programs, so it covers all of them.
	replayPrograms = 64
	// openTail and closedTail are the percentiles tail_ms reports: the
	// highest each workload's sample count supports with at least
	// minBeyond samples beyond it.
	openTail   = 0.99
	closedTail = 0.9
)

// program is one generated input and its flow-graph node count.
type program struct {
	src   string
	nodes int
}

// generate makes one program per entry of sizes (statements each) from
// seed, on every core. Sizes are fixed by position rather than drawn,
// so every seed has the same size mix and seeds differ only in program
// shape.
//
// With screen set, a program whose full placement the static verifier
// rejects is replaced by a fresh draw, until none is left. The server
// answers such a program on a degraded rung, and the serving workloads
// measure the full one. They are rare — one of the 6144 serving-size
// programs of seeds 1–12 — but a run sends hundreds. The screen is the
// sequential library path the reference check uses.
func generate(ctx context.Context, seed int64, sizes []int, screen bool) ([]program, error) {
	rng := rand.New(rand.NewSource(seed))
	out := make([]program, len(sizes))
	todo := make([]int, len(sizes))
	for i := range todo {
		todo[i] = i
	}
	for round := 0; len(todo) > 0; round++ {
		if round == maxRedraws {
			return nil, fmt.Errorf("%d programs still rejected after %d draws", len(todo), maxRedraws)
		}
		seeds := make([]int64, len(todo))
		for k := range seeds {
			seeds[k] = rng.Int63()
		}
		rejected := make([]bool, len(todo))
		err := parallel(len(todo), func(k int) error {
			i := todo[k]
			p := progen.Generate(seeds[k], progen.Config{Stmts: sizes[i], MaxDepth: progDepth, Arrays: true})
			g, err := gt.BuildGraph(p)
			if err != nil {
				return fmt.Errorf("program %d: %w", i, err)
			}
			out[i] = program{src: gt.Format(p), nodes: len(g.Nodes)}
			if screen {
				_, err := reference(ctx, out[i].src)
				if ctx.Err() != nil {
					return ctx.Err()
				}
				rejected[k] = err != nil
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		next := todo[:0]
		for k, i := range todo {
			if rejected[k] {
				next = append(next, i)
			}
		}
		todo = next
	}
	return out, nil
}

// maxRedraws bounds generate's screen: a program slot still rejected
// after this many draws means the analysis is broken, not unlucky.
const maxRedraws = 8

// parallel calls f(0), ..., f(n-1) on GOMAXPROCS goroutines and returns
// the errors it returned, joined.
func parallel(n int, f func(i int) error) error {
	var next atomic.Int64
	errs := make([]error, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	wg.Add(len(errs))
	for w := range errs {
		go func() {
			defer wg.Done()
			for errs[w] == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				errs[w] = f(i)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func smallSizes(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = smallMin + i%smallSpan
	}
	return s
}

func largeSizes() []int {
	s := make([]int, largePrograms)
	for i := range s {
		s[i] = largeMin + i*(largeMax-largeMin)/(largePrograms-1)
	}
	return s
}

// distinct appends a comment carrying tag, so one pool program can be
// sent many times as distinct sources: a distinct cache key, a full
// analysis each time. Comments do not reach the annotated output.
func distinct(src, tag string) string { return src + "! " + tag + "\n" }

// env is what every workload's set-up and run share.
type env struct {
	seed    int64
	window  time.Duration
	setups  int       // set-ups per run; setup_s is their median
	workDir string    // journal directories, inside the checkout
	senders int       // sender goroutines, and connections per host
	rec     *recorder // nil unless traced
	// tamper, when set, wraps every node's handler; the validation test
	// corrupts answers through it.
	tamper func(http.Handler) http.Handler
}

// instance is one set-up workload, ready to measure.
type instance struct {
	stack *stack // nil for the library workload
	// progs are the workload's distinct programs, replayed layer by
	// layer in the traced run; verifyEvery says whether the replay runs
	// the verifier on all of them.
	progs       []program
	verifyEvery bool
	openLoop    bool
	// answers kept at set-up for the reference check (route-warm's
	// warmed keys).
	answers []answer
	run     func(ctx context.Context, m *meter)
}

func (in *instance) close() {
	if in.stack != nil {
		in.stack.close()
	}
}

var workloadByName = map[string]func(context.Context, *env) (*instance, error){
	"serve-cold":    setupServeCold,
	"route-warm":    setupRouteWarm,
	"compile-large": setupCompileLarge,
}

// warmup is how long the load runs before the measured window opens, so
// that the heap, the collector's pacing and the connections have settled
// by then. Warm-up requests are validated like any other but not timed.
const warmup = 2 * time.Second

// schedule is an open loop's request count at rate over the warm-up and
// the window, and how many of them are due in the warm-up.
func schedule(rate float64, window time.Duration) (n, warm int) {
	warm = int(rate * warmup.Seconds())
	return warm + int(rate*window.Seconds()), warm
}

// meter collects one run's samples from every sender. Only samples that
// begin (are due, or start) in the window count.
type meter struct {
	load  time.Time       // first due time (open loop) or start (closed loop) of the warm-up
	start time.Time       // the same for the window: load + warmup
	lag   []time.Duration // the open-loop generator's lateness per request in the window
	v     verdict

	mu         sync.Mutex // guards every field below
	lat        []float64  // ms per sample
	nodes      int64      // flow-graph nodes answered correctly
	end        time.Time  // last answer
	answers    []answer
	decoded    int // served answers decoded
	rung1      int // ... of which the full placement
	routed     int // answers through the router
	firstTry   int // ... answered by the first attempt
	hedged     int // ... answered by a hedge
	answeredBy map[string]string
}

// observe records a sample that began at from and answered at to.
func (m *meter) observe(from, to time.Time) {
	if from.Before(m.start) {
		return
	}
	m.mu.Lock()
	m.lat = append(m.lat, ms(to.Sub(from)))
	if to.After(m.end) {
		m.end = to
	}
	m.mu.Unlock()
}

// answered counts the nodes of a correct answer to a sample that began
// at from.
func (m *meter) answered(from time.Time, nodes int) {
	if from.Before(m.start) {
		return
	}
	m.mu.Lock()
	m.nodes += int64(nodes)
	m.mu.Unlock()
}

func (m *meter) keep(a answer) {
	m.mu.Lock()
	m.answers = append(m.answers, a)
	m.mu.Unlock()
}

// noteAnswer counts a decoded answer's rung and, for a routed answer,
// how the router got it (X-Gnt-Route: "node;attempts=N[;hedged]").
func (m *meter) noteAnswer(r *serve.Response, hdr http.Header, trace string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if r != nil {
		m.decoded++
		if r.Rung == serve.RungFull {
			m.rung1++
		}
	}
	route := hdr.Get(cluster.RouteHeader)
	if route == "" {
		return
	}
	m.routed++
	parts := strings.Split(route, ";")
	for _, p := range parts[1:] {
		switch p {
		case "attempts=1":
			m.firstTry++
		case "hedged":
			m.hedged++
		}
	}
	if m.answeredBy == nil {
		m.answeredBy = map[string]string{}
	}
	m.answeredBy[trace] = parts[0]
}

// post sends one JSON body and reads the whole answer.
func post(ctx context.Context, c *http.Client, url string, body []byte, trace string) (int, http.Header, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(telemetry.TraceHeader, trace)
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, b, err
}

// node is one serve node behind a loopback listener.
type node struct {
	name string // host:port, as the router names it
	srv  *serve.Server
	hs   *httptest.Server
	reg  *telemetry.Registry
	dir  string
}

// stack is the system under test: serve nodes in their production
// configuration (defaults plus a file journal), optionally fronted by
// the cluster router, and the client the load generator sends with.
type stack struct {
	nodes    []*node
	router   *httptest.Server
	stop     context.CancelFunc // the router's health prober
	target   string             // base URL of the router, or of the single node
	client   *http.Client
	clientTr *http.Transport
}

func startStack(ctx context.Context, e *env, nodes int, routed bool) (st *stack, err error) {
	st = &stack{}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	for i := 0; i < nodes; i++ {
		n := &node{reg: telemetry.NewRegistry()}
		st.nodes = append(st.nodes, n)
		if n.dir, err = os.MkdirTemp(e.workDir, "journal-"); err != nil {
			return st, err
		}
		if n.srv, err = serve.New(serve.Config{JournalDir: n.dir, Metrics: n.reg}); err != nil {
			return st, err
		}
		h := n.srv.Handler()
		if e.tamper != nil {
			h = e.tamper(h)
		}
		n.hs = httptest.NewUnstartedServer(e.rec.wrap(spanNode, &n.name, h))
		n.name = n.hs.Listener.Addr().String()
		n.hs.Start()
	}
	st.target = st.nodes[0].hs.URL
	if routed {
		addrs := make([]string, len(st.nodes))
		for i, n := range st.nodes {
			addrs[i] = n.name
		}
		r, err := cluster.New(cluster.Config{Nodes: addrs, Replicas: warmReplicas, Metrics: telemetry.NewRegistry()})
		if err != nil {
			return st, err
		}
		pctx, stop := context.WithCancel(context.Background())
		st.stop = stop
		r.Start(pctx)
		name := "router"
		st.router = httptest.NewServer(e.rec.wrap(spanRouter, &name, r.Handler()))
		st.target = st.router.URL
	}
	st.clientTr = &http.Transport{MaxConnsPerHost: e.senders, MaxIdleConnsPerHost: e.senders}
	st.client = &http.Client{Transport: st.clientTr, Timeout: 30 * time.Second}
	return st, st.waitReady(ctx)
}

// waitReady polls /readyz on every node and the target until each
// answers 200.
func (st *stack) waitReady(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	urls := []string{st.target}
	for _, n := range st.nodes {
		urls = append(urls, n.hs.URL)
	}
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for _, u := range urls {
		for {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, u+"/readyz", nil)
			if err != nil {
				return err
			}
			resp, err := st.client.Do(req)
			if err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			select {
			case <-ctx.Done():
				return fmt.Errorf("%s never became ready: %w", u, ctx.Err())
			case <-tick.C:
			}
		}
	}
	return nil
}

// close stops the router, then every node (draining its journal), and
// removes the journals.
func (st *stack) close() {
	if st.router != nil {
		st.router.Close()
	}
	if st.stop != nil {
		st.stop()
	}
	if st.clientTr != nil {
		st.clientTr.CloseIdleConnections()
	}
	for _, n := range st.nodes {
		if n.hs != nil {
			n.hs.Close()
		}
		if n.srv != nil {
			_ = n.srv.Close()
		}
		if n.dir != "" {
			_ = os.RemoveAll(n.dir)
		}
	}
}

// setupServeCold: open loop at coldRate against one node, every request
// a distinct program, so every request misses the cache, runs the whole
// pipeline and the verifier, and appends a journal record.
func setupServeCold(ctx context.Context, e *env) (*instance, error) {
	pool, err := generate(ctx, e.seed, smallSizes(poolPrograms), true)
	if err != nil {
		return nil, err
	}
	n, warm := schedule(coldRate, e.window)
	source := func(i int) string { return distinct(pool[i%len(pool)].src, fmt.Sprintf("r%d", i)) }
	bodies := make([][]byte, n)
	for i := range bodies {
		if bodies[i], err = json.Marshal(serve.Request{Source: source(i)}); err != nil {
			return nil, err
		}
	}
	st, err := startStack(ctx, e, 1, false)
	if err != nil {
		return nil, err
	}
	in := &instance{stack: st, progs: pool[:replayPrograms], verifyEvery: true, openLoop: true}
	in.run = func(ctx context.Context, m *meter) {
		lag := openLoop(ctx, m.load, n, coldRate, e.senders, func(i int, due time.Time) {
			trace := fmt.Sprintf("cold-%d", i)
			m.v.attempt(1)
			r, ok := sendAnalyze(ctx, st, m, e.rec, bodies[i], trace, due)
			if !ok {
				return
			}
			m.answered(due, pool[i%len(pool)].nodes)
			if sampled(e.seed, i) {
				m.keep(answer{label: "request " + trace, src: source(i), annotated: r.Annotated})
			}
		})
		m.lag = lag[min(warm, len(lag)):]
	}
	return in, nil
}

// sendAnalyze posts one /analyze request due at due, records its latency
// from due and its spans, and validates the answer. ok is false when
// the request failed (already counted).
func sendAnalyze(ctx context.Context, st *stack, m *meter, rec *recorder, body []byte, trace string, due time.Time) (*serve.Response, bool) {
	sent := time.Now()
	status, hdr, b, err := post(ctx, st.client, st.target+"/analyze", body, trace)
	done := time.Now()
	m.observe(due, done)
	if err != nil {
		m.v.fail("%s: %v", trace, err)
		return nil, false
	}
	rec.add(span{name: spanRequest, trace: trace, start: due, end: done})
	rec.add(span{name: spanSend, trace: trace, start: sent, end: done})
	r, err := checkAnswer(status, b)
	m.noteAnswer(r, hdr, trace)
	if err != nil {
		m.v.fail("%s: %v", trace, err)
		return nil, false
	}
	return r, true
}

// setupRouteWarm: open loop at warmRate through the router (K replicas
// over warmNodes nodes) over warmKeys programs with zipf skew, every key
// warmed during set-up, so nearly every request is a cache hit that
// never reaches the analysis.
func setupRouteWarm(ctx context.Context, e *env) (*instance, error) {
	keys, err := generate(ctx, e.seed, smallSizes(warmKeys), true)
	if err != nil {
		return nil, err
	}
	bodies := make([][]byte, len(keys))
	for k, p := range keys {
		if bodies[k], err = json.Marshal(serve.Request{Source: p.src}); err != nil {
			return nil, err
		}
	}
	n, warm := schedule(warmRate, e.window)
	zipf := rand.NewZipf(rand.New(rand.NewSource(e.seed)), warmZipfS, 1, warmKeys-1)
	seq := make([]int, n)
	for i := range seq {
		seq[i] = int(zipf.Uint64())
	}
	st, err := startStack(ctx, e, warmNodes, true)
	if err != nil {
		return nil, err
	}
	// Warm every key through the router; its answer is the one every
	// later request for the key must repeat byte for byte.
	in := &instance{stack: st, progs: keys, verifyEvery: true, openLoop: true}
	warmed := make([]string, len(keys))
	for k, p := range keys {
		status, _, b, err := post(ctx, st.client, st.target+"/analyze", bodies[k], fmt.Sprintf("warm-%d", k))
		if err == nil {
			var r *serve.Response
			if r, err = checkAnswer(status, b); err == nil {
				warmed[k] = r.Annotated
			}
		}
		if err != nil {
			st.close()
			return nil, fmt.Errorf("warming key %d: %w", k, err)
		}
		in.answers = append(in.answers, answer{label: fmt.Sprintf("key %d", k), src: p.src, annotated: warmed[k]})
	}
	in.run = func(ctx context.Context, m *meter) {
		lag := openLoop(ctx, m.load, n, warmRate, e.senders, func(i int, due time.Time) {
			k := seq[i]
			trace := fmt.Sprintf("warm-%d-%d", k, i)
			m.v.attempt(1)
			r, ok := sendAnalyze(ctx, st, m, e.rec, bodies[k], trace, due)
			if !ok {
				return
			}
			if r.Annotated != warmed[k] {
				m.v.fail("%s: answer differs from the warmed answer for key %d", trace, k)
				return
			}
			m.answered(due, keys[k].nodes)
		})
		m.lag = lag[min(warm, len(lag)):]
	}
	return in, nil
}

// setupCompileLarge: one goroutine compiles largePrograms programs of
// 1000–4000 statements in turn through the library path of `gnt -mode
// comm` (parse, GenerateComm, AnnotatedSource). No verifier runs.
func setupCompileLarge(ctx context.Context, e *env) (*instance, error) {
	// Not screened: this path never runs the verifier, so no answer can
	// fail it, and verifying programs this large takes seconds each.
	progs, err := generate(ctx, e.seed, largeSizes(), false)
	if err != nil {
		return nil, err
	}
	in := &instance{progs: progs}
	in.run = func(ctx context.Context, m *meter) { compileLoop(ctx, m, e, progs) }
	return in, nil
}

// compileLoop compiles progs in turn from the start of the warm-up until
// the window ends, checking every compile's solver counters and that each
// program's output never changes from its first compile. A compile
// started before the window ends is finished.
func compileLoop(ctx context.Context, m *meter, e *env, progs []program) {
	end := m.start.Add(e.window)
	sums := make([]string, len(progs))
	for k := 0; ctx.Err() == nil && time.Now().Before(end); k++ {
		i := k % len(progs)
		m.v.attempt(1)
		start := time.Now()
		out, cg, err := compile(progs[i].src)
		done := time.Now()
		m.observe(start, done)
		e.rec.add(span{name: spanCompile, trace: fmt.Sprintf("compile-%d", k), start: start, end: done})
		if err == nil {
			err = onePass(cg)
		}
		if err != nil {
			m.v.fail("program %d: %v", i, err)
			continue
		}
		sum := sha256.Sum256([]byte(out))
		digest := hex.EncodeToString(sum[:])
		if sums[i] == "" {
			sums[i] = digest
		} else if sums[i] != digest {
			m.v.fail("program %d: output differs from its first compile", i)
			continue
		}
		m.answered(start, progs[i].nodes)
	}
}

// compile is the library compile path: source to annotated source.
func compile(src string) (string, *gt.CommGen, error) {
	p, err := gt.Parse(src)
	if err != nil {
		return "", nil, err
	}
	cg, err := gt.GenerateComm(p)
	if err != nil {
		return "", nil, err
	}
	return cg.AnnotatedSource(gt.SplitComm), cg, nil
}

// onePass checks the paper's §5.2 claim on both solves: every equation
// evaluated exactly once per node and mode, 20 evaluations per node.
func onePass(cg *gt.CommGen) error {
	for _, c := range cg.Counters() {
		if err := c.OnePass(); err != nil {
			return err
		}
		if c.EquationEvals != int64(20*c.Nodes) {
			return fmt.Errorf("%s solve: %d equation evaluations for %d nodes, want 20 per node", c.Problem, c.EquationEvals, c.Nodes)
		}
	}
	return nil
}
