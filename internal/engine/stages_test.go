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
	waitFor(t, "Analyze calls waiting for a slot", want,
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

// TestMapCancelStopsLaunching is the regression test for Map ignoring
// its context: with one worker pinned, canceling must stop the launch
// loop — no body past the in-flight one starts, and the return value
// reports exactly how many launched.
func TestMapCancelStopsLaunching(t *testing.T) {
	e := New(Config{Workers: 1})
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
	<-first // body 0 holds the only semaphore slot
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

// TestAnalyzeCancelShedsInFlight is the in-flight cancellation
// regression test. On one slot, the first of n jobs is pinned inside
// cfg-build and the other n-1 wait for the slot. After cancel: (a) no
// further cfg-build ever starts, (b) every job returns
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
		_, err := e.Analyze(ctx, Job{Prog: prog, Collector: col})
		errs <- err
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

// TestAnalyzeBoundsConcurrency: on two slots, eight concurrent jobs
// held inside cfg-build leave six waiting for a slot, never more than
// two programs are inside the stages at once, and every job finishes
// once the gate opens.
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
			_, err := e.Analyze(context.Background(), Job{Prog: prog, Collector: col})
			errs <- err
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
