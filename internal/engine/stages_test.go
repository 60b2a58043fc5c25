package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"givetake/internal/frontend"
	"givetake/internal/ir"
	"givetake/internal/obs"
	"givetake/internal/progen"
)

// gateCollector blocks every cfg-build span until released and counts
// the cfg-build spans begun and the programs between the start of
// their cfg-build and the end of their check — the probe the
// cancellation and concurrency tests use to pin jobs mid-stage and
// then prove what starts after.
type gateCollector struct {
	mu      sync.Mutex
	builds  int
	active  int           // programs past cfg-build's start and before check's end
	peak    int           // the most programs active at once
	gate    chan struct{} // close to release the pinned cfg-builds
	started chan struct{} // closed when the first cfg-build begins
	once    sync.Once
}

func newGateCollector() *gateCollector {
	return &gateCollector{gate: make(chan struct{}), started: make(chan struct{})}
}

func (c *gateCollector) BeginSpan(name string, kv ...any) obs.EndFunc {
	switch name {
	case obs.SpanCFGBuild:
		c.mu.Lock()
		c.builds++
		c.active++
		c.peak = max(c.peak, c.active)
		c.mu.Unlock()
		c.once.Do(func() { close(c.started) })
		<-c.gate
	case obs.SpanCheck:
		return func(kv ...any) {
			c.mu.Lock()
			c.active--
			c.mu.Unlock()
		}
	}
	return func(kv ...any) {}
}

func (c *gateCollector) counts() (builds, peak int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.builds, c.peak
}

// panicCollector panics when the interval-reduce span begins, which
// happens inside that stage's body.
type panicCollector struct{}

func (panicCollector) BeginSpan(name string, kv ...any) obs.EndFunc {
	if name == obs.SpanIntervalReduce {
		panic("boom")
	}
	return func(kv ...any) {}
}

// waitQueueDepth waits until exactly want Analyze calls wait for a
// slot.
func waitQueueDepth(t *testing.T, e *Engine, want int) {
	t.Helper()
	waitFor(t, "callers waiting in Admit for a slot", want,
		func() int { return e.PipelineStats()[stageCFG].QueueDepth })
}

// waitFor polls get until it returns want, failing after 5 seconds.
func waitFor(t *testing.T, what string, want int, get func() int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); get() != want; {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d, want %d", what, get(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// analyzeAdmitted runs job the way serve does: admitted to a slot
// first, then analyzed on it.
func analyzeAdmitted(ctx context.Context, e *Engine, job Job) error {
	release, err := e.Admit(ctx, time.Minute)
	if err != nil {
		return err
	}
	defer release()
	_, err = e.Analyze(ctx, job)
	return err
}

// TestMapCancelStopsLaunching is the regression test for Map ignoring
// its context: with the caller's one slot pinned by body 0, canceling
// must stop the launch loop — no body past the in-flight one starts,
// and the return value reports exactly how many launched.
func TestMapCancelStopsLaunching(t *testing.T) {
	e := New(Config{Workers: 1})
	release, err := e.Admit(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	block := make(chan struct{})
	first := make(chan struct{})
	var bodies atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan int, 1)
	go func() {
		done <- e.Map(ctx, 10, func(ctx context.Context, i int) {
			bodies.Add(1)
			if i == 0 {
				close(first)
			}
			<-block
		})
	}()
	<-first // body 0 holds the only slot
	cancel()
	close(block)
	launched := <-done
	if launched != 1 {
		t.Fatalf("Map launched %d bodies after cancel, want only the in-flight one", launched)
	}
	if got := bodies.Load(); got != int64(launched) {
		t.Fatalf("Map reported %d launches but %d bodies ran", launched, got)
	}
}

// TestMapLateCancelReleasesSlots is the regression test for a slot
// leak: when Map's launch select wins one of the engine's slots just as
// ctx dies, that slot must go back. Each round cancels from inside the
// first body while slots are free, so the select often picks a free
// slot over the dead ctx; after every round all Workers slots are free
// again.
func TestMapLateCancelReleasesSlots(t *testing.T) {
	const workers = 4
	e := New(Config{Workers: workers})
	for round := range 50 {
		release, err := e.Admit(context.Background(), 0)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		var bodies atomic.Int64
		launched := e.Map(ctx, 100, func(ctx context.Context, i int) {
			bodies.Add(1)
			if i == 0 {
				cancel()
			}
		})
		cancel()
		release()
		if got := bodies.Load(); got != int64(launched) {
			t.Fatalf("round %d: Map reported %d launches but %d bodies ran", round, launched, got)
		}
		var frees []func()
		for k := range workers {
			free, err := e.Admit(context.Background(), 0)
			if err != nil {
				t.Fatalf("round %d: slot %d of %d not free after Map returned: %v", round, k+1, workers, err)
			}
			frees = append(frees, free)
		}
		for _, free := range frees {
			free()
		}
	}
}

// TestAnalyzeCancelShedsInFlight is the in-flight cancellation
// regression test. On one slot, the first of n jobs is admitted and
// pinned inside cfg-build and the other n-1 wait in Admit. After
// cancel: (a) no further cfg-build ever starts, (b) every job returns
// context.Canceled, and (c) PipelineShed is exactly n — the n-1 jobs
// that gave up waiting for the slot, and the pinned one at its next
// stage boundary. No job's context was dead on entry, so every job is
// shed.
func TestAnalyzeCancelShedsInFlight(t *testing.T) {
	const n = 8
	col := newGateCollector()
	e := New(Config{Workers: 1})

	release := sync.OnceFunc(func() { close(col.gate) })
	defer release()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errs := make(chan error, n)
	analyze := func(prog *ir.Program) {
		errs <- analyzeAdmitted(ctx, e, Job{Prog: prog, Collector: col})
	}
	go analyze(parseLoop(t))
	<-col.started // job 0 holds the slot, pinned inside cfg-build
	for i := 1; i < n; i++ {
		go analyze(parseLoop(t))
	}
	waitQueueDepth(t, e, n-1)
	cancel()
	// the n-1 waiting jobs return while job 0 is still pinned, so none
	// of them can take the slot after cancel
	var got []error
	for len(got) < n-1 {
		got = append(got, <-errs)
	}
	release()
	got = append(got, <-errs)

	if b, _ := col.counts(); b != 1 {
		t.Fatalf("%d cfg-build spans ran, want only the one in flight at cancel", b)
	}
	for i, err := range got {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("job %d: err = %v, want context.Canceled", i, err)
		}
	}
	if shed := e.Stats().PipelineShed; shed != n {
		t.Errorf("shed %d jobs, want %d (the %d waiting ones and the pinned one)", shed, n, n-1)
	}
}

// TestCanceledAnalyzeRunsNoSolves: a job whose context is already dead
// returns before occupying anything — no stage services it, and it is
// not counted as shed.
func TestCanceledAnalyzeRunsNoSolves(t *testing.T) {
	e := New(Config{Workers: 2})
	prog, err := frontend.Parse(loopSrc)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := e.Analyze(ctx, Job{Prog: prog}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	for _, st := range e.PipelineStats() {
		if st.Items != 0 {
			t.Errorf("canceled job serviced %d items in stage %s, want 0", st.Items, st.Stage)
		}
	}
	if shed := e.Stats().PipelineShed; shed != 0 {
		t.Errorf("shed %d, want 0 for a job dead on entry", shed)
	}
}

// TestAnalyzeBoundsConcurrency: on two slots, eight concurrent
// admitted jobs, two of them held inside cfg-build, leave six waiting
// in Admit, never more than two programs are inside the stages at
// once, and every job finishes once the gate opens.
func TestAnalyzeBoundsConcurrency(t *testing.T) {
	const n, workers = 8, 2
	col := newGateCollector()
	e := New(Config{Workers: workers})
	release := sync.OnceFunc(func() { close(col.gate) })
	defer release()

	errs := make(chan error, n)
	for range n {
		prog := parseLoop(t)
		go func() {
			errs <- analyzeAdmitted(context.Background(), e, Job{Prog: prog, Collector: col})
		}()
	}
	waitQueueDepth(t, e, n-workers)
	waitFor(t, "cfg-builds started", workers, func() int { b, _ := col.counts(); return b })
	release()
	for range n {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if _, peak := col.counts(); peak > workers {
		t.Errorf("%d programs inside the stages at once, want at most %d", peak, workers)
	}
	for _, st := range e.PipelineStats() {
		if st.Items != n || st.Busy != 0 || st.QueueDepth != 0 || st.Workers != workers {
			t.Errorf("stage %+v, want %d items, none busy or waiting, %d workers", st, n, workers)
		}
	}
}

// TestStageSpansRunInOrder: one program's stages run on the calling
// goroutine one after another, READ before WRITE included. Over 20
// progen programs of 1000 statements each recorded span lies inside
// engine.analyze, the stage spans come in run order, and no two of them
// overlap in time.
func TestStageSpansRunInOrder(t *testing.T) {
	want := []string{
		obs.SpanCFGBuild, obs.SpanIntervalReduce, obs.SpanSectionUniverse,
		obs.SpanSolveRead, obs.SpanReverseGraph, obs.SpanSolveWrite, obs.SpanCheck,
	}
	e := New(Config{Workers: 2})
	for seed := int64(0); seed < 20; seed++ {
		prog := progen.Generate(seed, progen.Config{Stmts: 1000, MaxDepth: 3, Arrays: true})
		rec := obs.NewRecorder()
		if _, err := e.Analyze(context.Background(), Job{Prog: prog, Collector: rec}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		spans := rec.Spans()
		var names []string
		for _, sp := range spans {
			names = append(names, sp.Name)
		}
		if len(spans) != len(want)+1 || spans[0].Name != obs.SpanEngineAnalyze {
			t.Fatalf("seed %d: spans %v, want %s around %v", seed, names, obs.SpanEngineAnalyze, want)
		}
		outer, stages := spans[0], spans[1:]
		for i, sp := range stages {
			if sp.Name != want[i] {
				t.Fatalf("seed %d: stage spans %v, want %v", seed, names[1:], want)
			}
			if sp.Start < outer.Start || sp.Start+sp.Dur > outer.Start+outer.Dur {
				t.Errorf("seed %d: %s [%v, %v) outside %s [%v, %v)", seed, sp.Name,
					sp.Start, sp.Start+sp.Dur, outer.Name, outer.Start, outer.Start+outer.Dur)
			}
			if i > 0 {
				if prev := stages[i-1]; prev.Start+prev.Dur > sp.Start {
					t.Errorf("seed %d: %s ends at %v, after %s starts at %v",
						seed, prev.Name, prev.Start+prev.Dur, sp.Name, sp.Start)
				}
			}
		}
	}
}
