package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"givetake/internal/check"
	"givetake/internal/comm"
	"givetake/internal/frontend"
	"givetake/internal/ir"
	"givetake/internal/telemetry"
)

// layerMetric is one per-layer metric of the traced run: its unit, which
// way is better, and the end-to-end metrics it is predicted to move.
type layerMetric struct {
	name, unit, better string
	// everywhere: the metric is reported on every workload. Module
	// timings are measured on each workload's own programs; a ratio or
	// count reads 0 where its layer is off the workload's path. The
	// others are timings of layers only some workloads run; they are
	// printed and kept in results.json but stay out of BENCHMARK.json,
	// whose per-layer metrics every traced run must report.
	everywhere bool
	moves      []move
}

// move names an end-to-end metric on a workload.
type move struct{ metric, workload string }

func moves(pairs ...string) []move {
	out := make([]move, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		out = append(out, move{pairs[i], pairs[i+1]})
	}
	return out
}

// pipelineStages are the engine pipeline's stages in flow order, as
// engine.PipelineStats names them.
var pipelineStages = []string{"parse", "cfg-build", "interval-reduce", "section-universe", "solve", "check", "render"}

var (
	toCompile = moves("nodes_per_s", "compile-large")
	// The verifier also screens the serving workloads' inputs in set-up.
	toVerifier = moves("p50_ms", "serve-cold", "p90_ms", "serve-cold", "cpu_ms_per_program", "serve-cold",
		"setup_s", "serve-cold")
	toPipeline = moves("p50_ms", "serve-cold", "p90_ms", "serve-cold")
	toRouteHit = moves("p50_ms", "route-warm", "p90_ms", "route-warm")
)

// layers is the layer → end-to-end map. Module names are the repo's
// package names.
var layers = func() []layerMetric {
	ls := []layerMetric{
		{"cluster.hop_ms_p50", "ms", "lower", false, toRouteHit},
		{"cluster.first_try_ratio", "ratio", "higher", true, toRouteHit},
		{"cluster.hedge_ratio", "ratio", "lower", true, moves("p90_ms", "route-warm")},
		{"serve.handler_ms_p50", "ms", "lower", false, moves("p50_ms", "route-warm")},
		{"serve.admission_wait_ms_mean", "ms", "lower", false, moves("p90_ms", "serve-cold")},
		{"serve.rung1_ratio", "ratio", "higher", true, moves("cpu_ms_per_program", "serve-cold", "p50_ms", "serve-cold")},
		{"engine.cache_hit_ratio", "ratio", "higher", true, moves("p50_ms", "route-warm")},
		{"engine.cache_evictions", "count", "lower", true, moves("p50_ms", "route-warm")},
		{"journal.flush_ms_max", "ms", "lower", false, moves("cpu_ms_per_program", "serve-cold", "p90_ms", "serve-cold")},
		{"journal.sealed_records", "count", "higher", true, moves("cpu_ms_per_program", "serve-cold")},
		{"pipeline.bottleneck_ratio", "ratio", "higher", true, toPipeline},
		{"frontend.parse_us_per_node", "us", "lower", true, toCompile},
		{"cfg.build_us_per_node", "us", "lower", true, toCompile},
		{"interval.reduce_us_per_node", "us", "lower", true, toCompile},
		{"comm.universe_us_per_node", "us", "lower", true, toCompile},
		{"core.solve_read_us_per_node", "us", "lower", true, toCompile},
		{"core.solve_write_us_per_node", "us", "lower", true, toCompile},
		{"comm.annotate_us_per_node", "us", "lower", true, toCompile},
		{"core.solve_allocs_per_node", "allocs/node", "lower", true, toCompile},
		{"check.verify_us_per_node", "us", "lower", true, toVerifier},
		{"check.verify_allocs_per_node", "allocs/node", "lower", true, toVerifier},
		{"check.verify_bytes_per_node", "B/node", "lower", true, toVerifier},
		{"remainder_ms_mean", "ms", "lower", false, moves("p50_ms", "serve-cold", "p50_ms", "route-warm")},
	}
	for _, st := range pipelineStages {
		hot := st == "solve" || st == "check"
		ls = append(ls,
			layerMetric{"pipeline." + st + ".busy_ms_per_item", "ms", "lower", false, toPipeline},
			layerMetric{"pipeline." + st + ".queue_depth_max", "count", "lower", hot, toPipeline})
	}
	return ls
}()

var layerByName = func() map[string]layerMetric {
	m := map[string]layerMetric{}
	for _, l := range layers {
		m[l.name] = l
	}
	return m
}()

// span is one timed interval recorded by the benchmark around a call
// into a layer. Spans of one request share its X-Gnt-Trace ID.
type span struct {
	name       string
	trace      string
	where      string // node or router address; the answering node on client spans
	start, end time.Time
}

// gauge is one sampled value (a pipeline queue depth), written as a
// Chrome counter event.
type gauge struct {
	name  string
	at    time.Time
	value float64
}

// recorder keeps spans and gauge samples in memory for the traced run
// and writes them as Chrome trace-event JSON at the end. A nil recorder
// records nothing: the untraced run pays no tracing cost.
type recorder struct {
	epoch time.Time

	mu     sync.Mutex // guards spans, gauges
	spans  []span
	gauges []gauge
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) add(s span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// reset drops everything recorded so far (set-up and warm-up traffic),
// so the trace holds the measured window only.
func (r *recorder) reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans, r.gauges = nil, nil
	r.epoch = time.Now()
	r.mu.Unlock()
}

func (r *recorder) addGauge(g gauge) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.gauges = append(r.gauges, g)
	r.mu.Unlock()
}

// byName returns the recorded spans with the given name.
func (r *recorder) byName(name string) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.name == name {
			out = append(out, s)
		}
	}
	return out
}

// Span names the benchmark records.
const (
	spanRequest = "client.request" // due time to answer
	spanSend    = "client.send"    // send to answer
	spanRouter  = "cluster.handler"
	spanNode    = "serve.handler"
	spanCompile = "compile"
)

// wrap records a span named name around every analysis request next
// serves, keyed by the request's trace ID. Probes and scrapes are not
// recorded.
func (r *recorder) wrap(name string, where *string, next http.Handler) http.Handler {
	if r == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/analyze" {
			next.ServeHTTP(w, req)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, req)
		r.add(span{name: name, trace: req.Header.Get(telemetry.TraceHeader), where: *where, start: start, end: time.Now()})
	})
}

// parentOf is the causal parent of each span name: a request's send is
// caused by its due arrival, the router's handling by the send, and a
// node's handling by the router when there is one.
var parentOf = map[string][]string{
	spanSend:   {spanRequest},
	spanRouter: {spanSend},
	spanNode:   {spanRouter, spanSend},
}

// writeChrome writes the spans as Chrome trace-event JSON under process
// pid (named process): one async begin/end pair per span, grouped by
// trace ID so each request shows as its own waterfall, each span
// carrying its id and its parent's.
func (r *recorder) writeChrome(path string, pid int, process string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)

	ids := map[string]int{} // trace + name → span id
	for i, s := range r.spans {
		ids[s.trace+"\x00"+s.name] = i + 1
	}
	us := func(t time.Time) float64 { return float64(t.Sub(r.epoch).Nanoseconds()) / 1e3 }
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		ID   string         `json:"id,omitempty"`
		Args map[string]any `json:"args,omitempty"`
	}
	if _, err := w.WriteString("{\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(ev event) error {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if !first {
			if _, err := w.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err = w.Write(b)
		return err
	}
	if err := emit(event{Name: "process_name", Ph: "M", PID: pid, Args: map[string]any{"name": process}}); err != nil {
		return err
	}
	for i, s := range r.spans {
		parent := 0
		for _, p := range parentOf[s.name] {
			if id, ok := ids[s.trace+"\x00"+p]; ok {
				parent = id
				break
			}
		}
		args := map[string]any{"span": i + 1, "parent": parent, "trace": s.trace, "where": s.where}
		id := s.trace
		if id == "" {
			id = fmt.Sprint(i + 1)
		}
		if err := emit(event{Name: s.name, Cat: "span", Ph: "b", TS: us(s.start), PID: pid, TID: 1, ID: id, Args: args}); err != nil {
			return err
		}
		if err := emit(event{Name: s.name, Cat: "span", Ph: "e", TS: us(s.end), PID: pid, TID: 1, ID: id}); err != nil {
			return err
		}
	}
	for _, g := range r.gauges {
		if err := emit(event{Name: g.name, Ph: "C", TS: us(g.at), PID: pid, Args: map[string]any{"depth": g.value}}); err != nil {
			return err
		}
	}
	if _, err := w.WriteString("\n]}\n"); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// durationsMS returns the span durations in milliseconds, sorted.
func durationsMS(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = ms(s.end.Sub(s.start))
	}
	sort.Float64s(out)
	return out
}

// hopsMS joins router and node spans by trace ID and returns, per
// routed request, the router's span minus the answering node's span:
// the time the router hop adds. answered maps trace ID to the node
// that answered (from X-Gnt-Route).
func hopsMS(router, node []span, answered map[string]string) []float64 {
	nodeSpan := map[string]span{}
	for _, s := range node {
		nodeSpan[s.trace+"\x00"+s.where] = s
	}
	var out []float64
	for _, r := range router {
		n, ok := nodeSpan[r.trace+"\x00"+answered[r.trace]]
		if !ok {
			continue
		}
		out = append(out, ms(r.end.Sub(r.start))-ms(n.end.Sub(n.start)))
	}
	sort.Float64s(out)
	return out
}

// replayed is what the uncontended replay measured: total time per
// call, nodes covered, and allocations of the isolated solve and verify
// runs.
type replayed struct {
	per                       map[string]time.Duration
	nodes, verifyNodes        int
	solveAllocs, verifyAllocs uint64
	verifyBytes               uint64
}

// Module call names of the replay, as reported: <module>.<call>_us_per_node.
const (
	callParse     = "frontend.parse"
	callCFG       = "cfg.build"
	callIntervals = "interval.reduce"
	callUniverse  = "comm.universe"
	callSolveR    = "core.solve_read"
	callSolveW    = "core.solve_write"
	callVerify    = "check.verify"
	callAnnotate  = "comm.annotate"
)

// replayPasses is how many times the replay runs the program set; each
// call's per-node time is the median over passes.
const replayPasses = 3

// replay runs programs one at a time through each layer's public entry
// point — frontend.Parse, the three front-half stages, both solves,
// the static verifier per problem, and the renderer — timing every call
// with nothing else running. With verifyEvery the verifier runs on
// every program in every pass; otherwise it runs once, on progs[0]:
// on large programs it is far slower than everything else together,
// and the workload that compiles them never runs it. The first pass
// also counts the allocations of each solve and verify in isolation
// (ReadMemStats stops the world, so it stays outside the timed calls).
func replay(ctx context.Context, progs []program, verifyEvery bool) (map[string]float64, error) {
	perPass := map[string][]float64{}
	var allocs replayed
	for pass := 0; pass < replayPasses; pass++ {
		r := replayed{per: map[string]time.Duration{}}
		for i, p := range progs {
			verify := verifyEvery || (i == 0 && pass == 0)
			if err := replayOne(ctx, p.src, verify, pass == 0, &r); err != nil {
				return nil, err
			}
		}
		for call, d := range r.per {
			nodes := r.nodes
			if call == callVerify {
				nodes = r.verifyNodes
			}
			if nodes > 0 {
				perPass[call] = append(perPass[call], float64(d.Nanoseconds())/1e3/float64(nodes))
			}
		}
		if pass == 0 {
			allocs = r
		}
	}
	out := map[string]float64{}
	for call, xs := range perPass {
		_, med, _ := quartiles(xs)
		out[call+"_us_per_node"] = med
	}
	if allocs.nodes > 0 {
		out["core.solve_allocs_per_node"] = float64(allocs.solveAllocs) / float64(allocs.nodes)
	}
	if allocs.verifyNodes > 0 {
		out["check.verify_allocs_per_node"] = float64(allocs.verifyAllocs) / float64(allocs.verifyNodes)
		out["check.verify_bytes_per_node"] = float64(allocs.verifyBytes) / float64(allocs.verifyNodes)
	}
	return out, nil
}

func replayOne(ctx context.Context, src string, verify, countAllocs bool, r *replayed) error {
	timed := func(call string, f func() error) error {
		t := time.Now()
		err := f()
		r.per[call] += time.Since(t)
		if err != nil {
			return fmt.Errorf("replay %s: %w", call, err)
		}
		return nil
	}
	var ms0, ms1 runtime.MemStats
	isolated := func(call string, f func() error) (mallocs, bytes uint64, err error) {
		if countAllocs {
			runtime.ReadMemStats(&ms0)
		}
		err = timed(call, f)
		if countAllocs {
			runtime.ReadMemStats(&ms1)
			mallocs, bytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
		}
		return mallocs, bytes, err
	}

	var prog *ir.Program
	var a *comm.Analysis
	steps := []struct {
		call string
		f    func() error
	}{
		{callParse, func() (err error) { prog, err = frontend.Parse(src); return err }},
		{callCFG, func() (err error) { a, err = comm.StageCFG(ctx, prog, nil); return err }},
		{callIntervals, func() error { return a.StageIntervals(ctx, nil) }},
		{callUniverse, func() error { return a.StageUniverse(ctx, nil) }},
	}
	for _, s := range steps {
		if err := timed(s.call, s.f); err != nil {
			return err
		}
	}
	nodes := len(a.Graph.Nodes)
	r.nodes += nodes

	m1, _, err := isolated(callSolveR, func() error { return a.SolveRead(ctx, nil, nil) })
	if err != nil {
		return err
	}
	m2, _, err := isolated(callSolveW, func() error { return a.SolveWrite(ctx, nil, nil) })
	if err != nil {
		return err
	}
	r.solveAllocs += m1 + m2
	if verify {
		for _, p := range a.Problems() {
			m, b, err := isolated(callVerify, func() error {
				res, err := check.VerifyCtx(ctx, p)
				if err == nil && !res.Ok() {
					err = fmt.Errorf("%s placement fails verification", p.Name)
				}
				return err
			})
			if err != nil {
				return err
			}
			r.verifyAllocs += m
			r.verifyBytes += b
		}
		r.verifyNodes += nodes
	}
	return timed(callAnnotate, func() error {
		if a.AnnotatedSource(comm.DefaultOptions) == "" {
			return fmt.Errorf("empty annotated program")
		}
		return nil
	})
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
