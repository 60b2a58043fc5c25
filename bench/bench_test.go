package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"givetake/internal/serve"
)

func loadRepoSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestBenchmarkJSONLint(t *testing.T) {
	sp := loadRepoSpec(t)
	for _, p := range sp.lint() {
		t.Error(p)
	}
	// The layer → end-to-end map must hold for every layer metric the
	// runner reports, not only those BENCHMARK.json lists.
	e2e := map[string]bool{}
	for _, m := range sp.EndToEnd {
		e2e[m.Name] = true
	}
	for _, l := range layers {
		if !nameRe.MatchString(l.name) {
			t.Errorf("layer metric %q: bad name", l.name)
		}
		if len(l.moves) == 0 {
			t.Errorf("layer metric %q moves nothing", l.name)
		}
		for _, mv := range l.moves {
			if _, ok := workloadByName[mv.workload]; !ok || !e2e[mv.metric] {
				t.Errorf("layer metric %q moves unknown %s on %s", l.name, mv.metric, mv.workload)
			}
		}
	}
}

func TestLintRejects(t *testing.T) {
	for name, mutate := range map[string]func(*spec){
		"one workload":      func(sp *spec) { sp.Workloads = sp.Workloads[:1] },
		"bad name":          func(sp *spec) { sp.EndToEnd[1].Name = "p50 ms" },
		"bound too large":   func(sp *spec) { sp.EndToEnd[1].Bound = 0.5 },
		"no setup_s":        func(sp *spec) { sp.EndToEnd = sp.EndToEnd[1:] },
		"unknown layer":     func(sp *spec) { sp.PerLayer[0].Name = "frontend.lex_us_per_node" },
		"partial layer":     func(sp *spec) { sp.PerLayer[0].Name = "cluster.hop_ms_p50"; sp.PerLayer[0].Unit = "ms" },
		"wrong unit":        func(sp *spec) { sp.EndToEnd[1].Unit = "us" },
		"duplicate":         func(sp *spec) { sp.PerLayer[1].Name = sp.PerLayer[0].Name },
		"unknown workload":  func(sp *spec) { sp.Workloads[0].Name = "serve-hot" },
		"too many e2e":      func(sp *spec) { sp.EndToEnd = append(sp.EndToEnd, make([]specMetric, 16)...) },
		"run too long":      func(sp *spec) { sp.RunSeconds = 61 },
		"multi-line why":    func(sp *spec) { sp.Workloads[0].Why = "a\nb" },
		"layer with bound":  func(sp *spec) { sp.PerLayer[0].Bound = 0.1 },
		"better is unknown": func(sp *spec) { sp.PerLayer[0].Better = "more" },
	} {
		sp := loadRepoSpec(t)
		mutate(sp)
		if len(sp.lint()) == 0 {
			t.Errorf("%s: lint found nothing", name)
		}
	}
}

func TestPercentileAndTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{seq(100), 0.5, 50},
		{seq(100), 0.99, 99},
		{seq(100), 1, 100},
		{seq(10), 0.9, 9},
		{seq(1), 0.5, 1},
		{nil, 0.5, 0},
	} {
		if got := percentile(c.xs, c.q); got != c.want {
			t.Errorf("percentile(%d values, %v) = %v, want %v", len(c.xs), c.q, got, c.want)
		}
	}
	for _, c := range []struct {
		n     int
		wantQ float64
		ok    bool
	}{
		{10000, 0.999, true}, // 10 beyond p99.9
		{9999, 0.99, true},   // 9 beyond p99.9
		{1000, 0.99, true},
		{999, 0.9, true},
		{100, 0.9, true},
		{99, 0.5, true},
		{20, 0.5, true},
		{19, 0, false},
	} {
		q, v, ok := tail(seq(c.n))
		if q != c.wantQ || ok != c.ok {
			t.Errorf("tail(%d samples) = q %v ok %v, want q %v ok %v", c.n, q, ok, c.wantQ, c.ok)
		}
		if ok && beyond(c.n, q) < minBeyond {
			t.Errorf("tail(%d samples) picked p%v with %d beyond", c.n, 100*q, beyond(c.n, q))
		}
		if ok && v != percentile(seq(c.n), q) {
			t.Errorf("tail(%d samples) value %v", c.n, v)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs         []float64
		q1, m, q3  float64
		spreadWant float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25, 1},
		{[]float64{5, 4, 3, 2, 1}, 1.5, 3, 4.5, 1},
		{[]float64{3, 1}, 0.5, 2, 3.5, 1.5},
		{[]float64{10, 20, 30, 40}, 12.5, 25, 37.5, 1},
		{[]float64{7}, 7, 7, 7, 0},
	} {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
		if s := spread(c.xs); math.Abs(s-c.spreadWant) > 1e-12 {
			t.Errorf("spread(%v) = %v, want %v", c.xs, s, c.spreadWant)
		}
	}
}

func TestCompare(t *testing.T) {
	sp := loadRepoSpec(t)
	mk := func(scale map[string]float64) *results {
		r := &results{}
		for _, w := range sp.Workloads {
			wr := workloadResult{Name: w.Name}
			for k := 0; k < 3; k++ {
				rec := record{Metrics: map[string]float64{}}
				for _, m := range sp.EndToEnd {
					f := scale[m.Name]
					if f == 0 {
						f = 1
					}
					rec.Metrics[m.Name] = f * (10 + float64(k))
				}
				wr.Runs = append(wr.Runs, rec)
			}
			r.Workloads = append(r.Workloads, wr)
		}
		r.summarize(sp)
		return r
	}
	bound := map[string]float64{}
	for _, m := range sp.EndToEnd {
		bound[m.Name] = m.Bound
	}
	base := mk(nil)
	var out bytes.Buffer
	within := map[string]float64{"p50_ms": 1 + bound["p50_ms"]/2, "nodes_per_s": 1.5}
	if !compare(sp, base, mk(within), &out) {
		t.Errorf("p50 slower by half its bound and higher throughput reported outside bounds:\n%s", &out)
	}
	out.Reset()
	if compare(sp, base, mk(map[string]float64{"p50_ms": 1 + 2*bound["p50_ms"]}), &out) {
		t.Errorf("p50 slower by twice its bound reported within it:\n%s", &out)
	}
	if !strings.Contains(out.String(), "OUTSIDE") {
		t.Errorf("no OUTSIDE line:\n%s", &out)
	}
	out.Reset()
	if compare(sp, base, mk(map[string]float64{"nodes_per_s": 1 - 2*bound["nodes_per_s"]}), &out) {
		t.Errorf("throughput lower by twice its bound reported within it:\n%s", &out)
	}
	out.Reset()
	missing := mk(nil)
	missing.Workloads = missing.Workloads[1:]
	if compare(sp, base, missing, &out) {
		t.Error("a missing workload compared as within bounds")
	}
}

func TestNormalizeArgs(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "serve-cold", "--trace", "1", "--seed", "3", "-trace", "--trace", "0"})
	want := []string{"--workload", "serve-cold", "-trace=1", "--seed", "3", "-trace", "-trace=0"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("normalizeArgs = %q, want %q", got, want)
	}
}

// TestOpenLoopTimesFromDue stalls a stub server for 200 ms mid-run, the
// way a collector pause or a blocked lock would. Requests due during
// the stall wait behind it, and because every request is timed from
// when it was due, the stall shows in p99 — a generator timing from the
// send (or skipping ticks while stalled) would report a fast server.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const (
		n     = 400
		rate  = 400.0
		stall = 200 * time.Millisecond
	)
	var (
		gate sync.Mutex
		seen atomic.Int64
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gate.Lock()
		if seen.Add(1) == n/4 {
			time.Sleep(stall) // everyone behind the gate waits too
		}
		gate.Unlock()
		_, _ = io.Copy(io.Discard, r.Body)
	}))
	defer srv.Close()
	tr := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}

	var mu sync.Mutex
	var fromDue, fromSend []float64
	lag := openLoop(context.Background(), time.Now().Add(startDelay), n, rate, 2, func(i int, due time.Time) {
		sent := time.Now()
		_, _, _, err := post(context.Background(), client, srv.URL, nil, "t")
		done := time.Now()
		if err != nil {
			t.Error(err)
		}
		mu.Lock()
		fromDue = append(fromDue, ms(done.Sub(due)))
		fromSend = append(fromSend, ms(done.Sub(sent)))
		mu.Unlock()
	})
	if len(lag) != n || len(fromDue) != n {
		t.Fatalf("dispatched %d, answered %d of %d", len(lag), len(fromDue), n)
	}
	sort.Float64s(fromDue)
	sort.Float64s(fromSend)
	if p99 := percentile(fromDue, 0.99); p99 < 150 {
		t.Errorf("p99 from due = %.1f ms, want the 200 ms stall to show (≥ 150 ms)", p99)
	}
	// ~80 requests were due during the stall: far more than 1%.
	if p90 := percentile(fromDue, 0.9); p90 < 20 {
		t.Errorf("p90 from due = %.1f ms, want the stall to spread over the requests due during it", p90)
	}
	// Only the requests in flight when the stall began waited after
	// their send: timed from the send, the stall all but disappears.
	if p99 := percentile(fromSend, 0.99); p99 > 50 {
		t.Errorf("p99 from send = %.1f ms, want the contrast: only in-flight requests saw the stall", p99)
	}
	lags := millis(lag)
	sort.Float64s(lags)
	if p99 := percentile(lags, 0.99); p99 > 50 {
		t.Errorf("generator lag p99 = %.1f ms: the dispatcher must not wait for the stalled server", p99)
	}
}

func testEnv(t *testing.T, seed int64) *env {
	return &env{seed: seed, window: time.Second, setups: 1, workDir: t.TempDir(), senders: 2}
}

// TestEveryWorkloadReportsEveryMetric runs every workload on a
// one-second schedule and checks that every end-to-end metric of
// BENCHMARK.json is printed with its unit, and that the result line
// carries exactly those metrics.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	sp := loadRepoSpec(t)
	for _, w := range sp.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			rec, err := runWorkload(context.Background(), w.Name, testEnv(t, 1))
			if err != nil {
				t.Fatal(err)
			}
			if rec.Failed != 0 || rec.Attempted == 0 {
				t.Fatalf("attempted %d, failed %d: %v", rec.Attempted, rec.Failed, rec.Failures)
			}
			var out bytes.Buffer
			printRecord(&out, sp, rec)
			for _, m := range sp.EndToEnd {
				re := regexp.MustCompile(`(?m)^\s+` + regexp.QuoteMeta(m.Name) + `\s+\S+ ` + regexp.QuoteMeta(m.Unit) + `$`)
				if !re.MatchString(out.String()) {
					t.Errorf("metric %s [%s] not printed:\n%s", m.Name, m.Unit, &out)
				}
			}
			checkResultLine(t, sp, rec, sp.EndToEnd)
		})
	}
}

func checkResultLine(t *testing.T, sp *spec, rec *record, want []specMetric) {
	t.Helper()
	line, err := resultLine(sp, rec)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Correct   *bool `json:"correct"`
		Attempted *int  `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("result line %s: %v", line, err)
	}
	if got.Correct == nil || !*got.Correct || got.Attempted == nil || *got.Attempted < 1 || got.Failed == nil {
		t.Errorf("result line %s", line)
	}
	if len(got.Metrics) != len(want) {
		t.Errorf("result line has %d metrics, want %d", len(got.Metrics), len(want))
	}
	for _, m := range want {
		v, ok := got.Metrics[m.Name]
		if !ok || v.Value == nil || v.Unit != m.Unit || math.IsNaN(*v.Value) {
			t.Errorf("result line lacks %s [%s]: %s", m.Name, m.Unit, line)
		}
	}
}

// TestTracedRunReportsEveryLayerMetric runs the serving workloads
// traced and checks every per-layer metric of BENCHMARK.json, and the
// reconciliation, is reported.
func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs traced workloads")
	}
	sp := loadRepoSpec(t)
	for _, name := range []string{"serve-cold", "route-warm"} {
		t.Run(name, func(t *testing.T) {
			e := testEnv(t, 2)
			e.rec = newRecorder()
			rec, err := runWorkload(context.Background(), name, e)
			if err != nil {
				t.Fatal(err)
			}
			checkResultLine(t, sp, rec, sp.PerLayer)
			if _, ok := rec.Metrics["remainder_ms_mean"]; !ok {
				t.Error("no remainder_ms_mean")
			}
			if name == "route-warm" {
				if hr := rec.Metrics["engine.cache_hit_ratio"]; hr < 0.99 {
					t.Errorf("route-warm cache hit ratio %v, want ≥ 0.99", hr)
				}
				if _, ok := rec.Metrics["cluster.hop_ms_p50"]; !ok {
					t.Error("no cluster.hop_ms_p50")
				}
			}
			path := filepath.Join(t.TempDir(), "trace.json")
			if err := e.rec.writeChrome(path, 1, name); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestReplayLargeVerifiesFirstOnly checks the library workload's replay
// shape on small inputs: every module timing is reported, and without
// verifyEvery the verifier covers the first program only.
func TestReplayLargeVerifiesFirstOnly(t *testing.T) {
	progs, err := generate(context.Background(), 3, smallSizes(4), false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := replay(context.Background(), progs, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range layers {
		if l.everywhere && strings.Contains(l.name, "_per_node") {
			if v, ok := got[l.name]; !ok || v <= 0 {
				t.Errorf("%s = %v, %v", l.name, v, ok)
			}
		}
	}
	all, err := replay(context.Background(), progs[:1], true)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := got["check.verify_allocs_per_node"], all["check.verify_allocs_per_node"]; math.Abs(a-b) > 0.05*b {
		t.Errorf("verify allocs/node over the first program %v, verifying it alone %v", a, b)
	}
}

// TestScreenReplacesRejectedPrograms: the 346th serving program of seed
// 12 is one whose full placement the static verifier rejects. The
// screen replaces it with one the verifier accepts and leaves every
// program before it as drawn.
func TestScreenReplacesRejectedPrograms(t *testing.T) {
	ctx := context.Background()
	const seed, bad = 12, 345
	sizes := smallSizes(bad + 1)
	drawn, err := generate(ctx, seed, sizes, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reference(ctx, drawn[bad].src); err == nil {
		t.Skipf("seed %d program %d now passes the verifier: nothing to screen", seed, bad)
	}
	screened, err := generate(ctx, seed, sizes, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reference(ctx, screened[bad].src); err != nil {
		t.Errorf("screened program %d: %v", bad, err)
	}
	for i := 0; i < bad; i++ {
		if screened[i] != drawn[i] {
			t.Fatalf("screen changed program %d, which the verifier accepts", i)
		}
	}
}

// TestTamperedAnswerFailsRun corrupts one served answer through a
// middleware in front of the node and checks the run counts exactly
// that program as failed: a wrong rung is caught on every answer, a
// wrong annotated program by the reference comparison of the sample.
func TestTamperedAnswerFailsRun(t *testing.T) {
	const seed = 1
	suffix := regexp.MustCompile(`! r(\d+)\n$`)
	for name, corrupt := range map[string]func(i int, body []byte) ([]byte, bool){
		"rung": func(i int, body []byte) ([]byte, bool) {
			return bytes.Replace(body, []byte(`"rung":1,`), []byte(`"rung":2,`), 1), i == 10
		},
		"annotated": func(i int, body []byte) ([]byte, bool) {
			return bytes.Replace(body, []byte(`"annotated":"`), []byte(`"annotated":" `), 1), sampled(seed, i)
		},
	} {
		t.Run(name, func(t *testing.T) {
			var done atomic.Bool
			e := testEnv(t, seed)
			e.tamper = func(next http.Handler) http.Handler {
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					body, _ := io.ReadAll(r.Body)
					r.Body = io.NopCloser(bytes.NewReader(body))
					var req serve.Request
					_ = json.Unmarshal(body, &req)
					match := suffix.FindStringSubmatch(req.Source)
					if r.URL.Path != "/analyze" || match == nil {
						next.ServeHTTP(w, r)
						return
					}
					i, _ := strconv.Atoi(match[1])
					rr := httptest.NewRecorder()
					next.ServeHTTP(rr, r)
					out := rr.Body.Bytes()
					if c, pick := corrupt(i, out); pick && !done.Swap(true) {
						out = c
					}
					for k, v := range rr.Header() {
						w.Header()[k] = v
					}
					w.WriteHeader(rr.Code)
					_, _ = w.Write(out)
				})
			}
			rec, err := runWorkload(context.Background(), "serve-cold", e)
			if err != nil {
				t.Fatal(err)
			}
			if !done.Load() {
				t.Fatal("no answer was tampered")
			}
			if rec.Failed != 1 {
				t.Errorf("failed = %d, want exactly the tampered answer: %v", rec.Failed, rec.Failures)
			}
			line, err := resultLine(loadRepoSpec(t), rec)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(line, []byte(`"correct":false`)) {
				t.Errorf("result line claims correct: %s", line)
			}
			t.Log(rec.Failures)
		})
	}
}
