package engine

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"givetake/internal/frontend"
	"givetake/internal/ir"
	"givetake/internal/obs"
	"givetake/internal/telemetry"
)

// doneProbe is a context that reports when Do first asks for its Done
// channel. Do does that only while it waits on an in-flight leader, so
// a closed waiting channel proves the caller became a single-flight
// follower.
type doneProbe struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func (c *doneProbe) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return c.Context.Done()
}

// leadAndFollow sends one leader and one follower for key through Do.
// The leader's compute returns only once the follower waits on its
// flight, so the outcome is exactly one miss and one follower.
func leadAndFollow(t *testing.T, e *Engine, key string) {
	t.Helper()
	probe := &doneProbe{Context: context.Background(), waiting: make(chan struct{})}
	computing := make(chan struct{})
	led := make(chan CacheSource, 1)
	go func() {
		_, src, _ := e.Do(context.Background(), key, func(context.Context) (Cached, bool, error) {
			close(computing)
			<-probe.waiting
			return Cached{Status: 200, Body: []byte("shared")}, true, nil
		})
		led <- src
	}()
	<-computing
	_, src, err := e.Do(probe, key, func(context.Context) (Cached, bool, error) {
		t.Error("follower computed")
		return Cached{}, false, nil
	})
	if lsrc := <-led; lsrc != CacheMiss || src != CacheFollow || err != nil {
		t.Fatalf("leader %v, follower %v (%v); want miss and follow", lsrc, src, err)
	}
}

// scrapeFamilies renders reg and parses it with the strict parser.
func scrapeFamilies(t *testing.T, reg *telemetry.Registry) telemetry.Families {
	t.Helper()
	var b strings.Builder
	if err := reg.Expose(&b); err != nil {
		t.Fatal(err)
	}
	fams, err := telemetry.ParseExposition(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("exposition does not round-trip: %v\n%s", err, b.String())
	}
	return fams
}

// sample names one expected /metrics sample.
type sample struct {
	name   string
	labels map[string]string
	want   float64
}

func checkSamples(t *testing.T, fams telemetry.Families, samples []sample) {
	t.Helper()
	for _, s := range samples {
		if v, ok := fams.Value(s.name, s.labels); !ok || v != s.want {
			t.Errorf("%s%v = %v, %v; want %v", s.name, s.labels, v, ok, s.want)
		}
	}
}

func parseLoop(t *testing.T) *ir.Program {
	t.Helper()
	prog, err := frontend.Parse(loopSrc)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestRegisterMetrics drives every event an engine family counts, each
// an exact number of times, and reads them back from /metrics: the
// admission outcomes, a cache miss with its single-flight follower, a
// hit and an eviction, a stage panic, and a caller shed while it waited
// in Admit for the engine's only slot. The serve counter golden covers
// the same families end to end but cannot time a follower or a stage
// panic.
func TestRegisterMetrics(t *testing.T) {
	e := New(Config{Workers: 1, CacheBytes: 200})
	reg := telemetry.NewRegistry()
	e.RegisterMetrics(reg)

	// "a" weighs 6+1+64 bytes, "b" 100+1+64: storing b evicts a
	leadAndFollow(t, e, "a")
	if _, src, _ := e.Do(context.Background(), "a", nil); src != CacheHit {
		t.Fatalf("second a: %v, want hit", src)
	}
	e.Do(context.Background(), "b", func(context.Context) (Cached, bool, error) {
		return Cached{Status: 200, Body: bytes.Repeat([]byte("b"), 100)}, true, nil
	})

	// the first job's interval-reduce body panics; the second job is
	// admitted (won 1) and held inside cfg-build, so a third caller
	// waits in Admit and is shed when its ctx dies, and a fourth times
	// out (admission shed 1); a fifth is admitted once the slot is free
	// (won 2)
	var pe *PanicError
	if _, err := e.Analyze(context.Background(), Job{Prog: parseLoop(t), Collector: panicCollector{}}); !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %v", err)
	}

	col := newGateCollector()
	heldProg, queued := parseLoop(t), parseLoop(t)
	ran := make(chan error, 1)
	go func() { ran <- analyzeAdmitted(context.Background(), e, Job{Prog: heldProg, Collector: col}) }()
	<-col.started
	ctx, cancel := context.WithCancel(context.Background())
	shed := make(chan error, 1)
	go func() { shed <- analyzeAdmitted(ctx, e, Job{Prog: queued}) }()
	waitQueueDepth(t, e, 1)
	cancel()
	if err := <-shed; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued job: %v, want context.Canceled", err)
	}
	if _, err := e.Admit(context.Background(), time.Millisecond); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Admit on a full engine: %v, want ErrOverloaded", err)
	}
	close(col.gate)
	if err := <-ran; err != nil {
		t.Fatalf("held job: %v", err)
	}
	release, err := e.Admit(context.Background(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	release()

	fams := scrapeFamilies(t, reg)
	for name, typ := range map[string]string{
		obs.MetricAdmissionTotal: "counter", obs.MetricCacheEvents: "counter",
		obs.MetricPoolPanics: "counter", obs.MetricPipelineItems: "counter",
		obs.MetricPipelineShed: "counter", obs.MetricPoolWorkers: "gauge",
		obs.MetricCacheEntries: "gauge", obs.MetricCacheBytes: "gauge",
		obs.MetricPipelineQueueDepth: "gauge", obs.MetricPipelineOccupancy: "gauge",
	} {
		if f := fams[name]; f == nil || f.Type != typ {
			t.Errorf("%s: family %+v, want TYPE %s", name, f, typ)
		}
	}
	stage := func(s string) map[string]string { return map[string]string{"stage": s} }
	checkSamples(t, fams, []sample{
		{obs.MetricAdmissionTotal, map[string]string{"outcome": "won"}, 2},
		{obs.MetricAdmissionTotal, map[string]string{"outcome": "shed"}, 1},
		{obs.MetricCacheEvents, map[string]string{"event": "miss"}, 2},
		{obs.MetricCacheEvents, map[string]string{"event": "follow"}, 1},
		{obs.MetricCacheEvents, map[string]string{"event": "hit"}, 1},
		{obs.MetricCacheEvents, map[string]string{"event": "evict"}, 1},
		{obs.MetricPoolPanics, nil, 1},
		{obs.MetricPipelineShed, nil, 1},
		{obs.MetricPipelineItems, stage(obs.SpanCFGBuild), 2},
		{obs.MetricPipelineItems, stage(obs.SpanIntervalReduce), 2},
		{obs.MetricPipelineItems, stage(obs.SpanSectionUniverse), 1},
		{obs.MetricPipelineItems, stage("solve"), 1},
		{obs.MetricPipelineItems, stage(obs.SpanCheck), 1},
		{obs.MetricPoolWorkers, nil, 1},
		{obs.MetricCacheEntries, nil, 1},
		{obs.MetricCacheBytes, nil, 165},
		{obs.MetricPipelineQueueDepth, stage(obs.SpanCFGBuild), 0},
		{obs.MetricPipelineOccupancy, stage(obs.SpanCheck), 0},
	})
}

// TestDisabledCacheStillCounts: with caching disabled the cache has
// zero capacity, so nothing is stored, but misses and followers are
// counted in Stats and on /metrics all the same.
func TestDisabledCacheStillCounts(t *testing.T) {
	e := New(Config{Workers: 1, CacheBytes: -1})
	reg := telemetry.NewRegistry()
	e.RegisterMetrics(reg)

	leadAndFollow(t, e, "a")
	if _, src, _ := e.Do(context.Background(), "a", func(context.Context) (Cached, bool, error) {
		return Cached{Status: 200, Body: []byte("again")}, true, nil
	}); src != CacheMiss {
		t.Fatalf("disabled cache served %v, want miss", src)
	}
	if cs := e.Stats().Cache; cs != (CacheStats{Misses: 2, Followers: 1}) {
		t.Fatalf("stats %+v, want 2 misses, 1 follower, nothing stored", cs)
	}
	fams := scrapeFamilies(t, reg)
	checkSamples(t, fams, []sample{
		{obs.MetricCacheEvents, map[string]string{"event": "miss"}, 2},
		{obs.MetricCacheEvents, map[string]string{"event": "follow"}, 1},
		{obs.MetricCacheEntries, nil, 0},
	})
	if _, ok := fams.Value(obs.MetricCacheEvents, map[string]string{"event": "hit"}); ok {
		t.Error("disabled cache rendered a hit series")
	}
}
