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

// gateCollector blocks the first cfg-build span until released and
// counts every cfg-build span begun — the probe the cancellation test
// uses to pin one job mid-stage and then prove no further cfg-build
// ever starts.
type gateCollector struct {
	mu      sync.Mutex
	builds  int
	gate    chan struct{} // close to release the pinned cfg-build
	started chan struct{} // closed when the first cfg-build begins
	once    sync.Once
}

func (c *gateCollector) BeginSpan(name string, kv ...any) obs.EndFunc {
	if name == obs.SpanCFGBuild {
		c.mu.Lock()
		c.builds++
		c.mu.Unlock()
		c.once.Do(func() { close(c.started) })
		<-c.gate
	}
	return func(kv ...any) {}
}

func (c *gateCollector) buildCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.builds
}

// TestMapCancelStopsLaunching is the regression test for Map ignoring
// its context: with one worker pinned, canceling must stop the launch
// loop — no body past the in-flight one starts, and the return value
// reports exactly how many launched.
func TestMapCancelStopsLaunching(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
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
// regression test. The first of n jobs is pinned inside cfg-build (one
// worker, queue of one), so one job waits in the queue and the rest
// block on submission. After cancel: (a) no further cfg-build ever
// starts, (b) every job returns context.Canceled, and (c) the pipeline
// sheds exactly the jobs that entered it — the queued one when its
// worker polls it, the pinned one at its next stage boundary — while
// the jobs still waiting to submit never enter.
func TestAnalyzeCancelShedsInFlight(t *testing.T) {
	const n = 8
	col := &gateCollector{gate: make(chan struct{}), started: make(chan struct{})}
	widths := stageWidths(2)
	widths[stageCFG] = 1
	e := newEngine(Config{Workers: 2}, widths, 1)
	defer e.Close()

	release := sync.OnceFunc(func() { close(col.gate) })
	defer release() // before Close, which waits for the pinned job

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errs := make(chan error, n)
	analyze := func(prog *ir.Program) {
		_, err := e.Analyze(ctx, Job{Prog: prog, Collector: col})
		errs <- err
	}
	go analyze(parseLoop(t))
	<-col.started // job 0 is pinned inside the cfg-build stage
	for i := 1; i < n; i++ {
		go analyze(parseLoop(t))
	}
	for deadline := time.Now().Add(5 * time.Second); len(e.pipe.stages[stageCFG].in) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("no job queued behind the pinned one")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	// the n-2 jobs outside the pipeline return while job 0 is still
	// pinned, so none of them can slip into the queue after cancel
	var got []error
	for len(got) < n-2 {
		got = append(got, <-errs)
	}
	release()
	for len(got) < n {
		got = append(got, <-errs)
	}

	if b := col.buildCount(); b != 1 {
		t.Fatalf("%d cfg-build spans ran, want only the one in flight at cancel", b)
	}
	for i, err := range got {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("job %d: err = %v, want context.Canceled", i, err)
		}
	}
	if shed := e.Stats().PipelineShed; shed != 2 {
		t.Errorf("pipeline shed %d jobs, want 2 (the queued one and the pinned one)", shed)
	}
}

// TestCanceledAnalyzeRunsNoSolves: a job whose context is already dead
// sheds before occupying anything — the pipeline services zero stages.
func TestCanceledAnalyzeRunsNoSolves(t *testing.T) {
	e := New(Config{Workers: 2})
	defer e.Close()
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
}

// TestPipelineThroughputTracksSlowestStage makes one stage 10× slower
// than the rest and checks the two properties the pipeline exists for:
// the wall time of n concurrent Analyze calls tracks the slowest
// stage's serial floor — NOT the sum of all stages per job, which is
// what a barriered design would cost — and the queue-depth gauge
// reports the backlog piling up in front of the bottleneck.
func TestPipelineThroughputTracksSlowestStage(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const (
		n    = 20
		fast = 2 * time.Millisecond
		slow = 20 * time.Millisecond // 10× the others
	)
	e := newEngine(Config{Workers: 4}, [numStages]int{1, 1, 1, 1, 1}, 4)
	defer e.Close()
	e.pipe.delay = func(stage string) {
		if stage == "solve" {
			time.Sleep(slow)
		} else {
			time.Sleep(fast)
		}
	}

	stop := make(chan struct{})
	var maxSolveQ atomic.Int64
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			if d := int64(e.PipelineStats()[stageSolve].QueueDepth); d > maxSolveQ.Load() {
				maxSolveQ.Store(d)
			}
			time.Sleep(time.Millisecond)
		}
	}()

	progs := make([]*ir.Program, n)
	for i := range progs {
		progs[i] = parseLoop(t)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	start := time.Now()
	for i := range progs {
		go func() {
			defer wg.Done()
			_, errs[i] = e.Analyze(context.Background(), Job{Prog: progs[i]})
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	close(stop)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}

	serial := n * (4*fast + slow) // what per-job stage barriers would cost
	floor := n * slow             // the slow stage alone, serviced serially
	if wall >= serial*9/10 {
		t.Errorf("no pipelining: wall %v within 10%% of the barriered cost %v", wall, serial)
	}
	if wall < floor {
		t.Errorf("wall %v beat the slowest stage's serial floor %v — the sleeps are broken", wall, floor)
	}
	if maxSolveQ.Load() == 0 {
		t.Error("queue-depth gauge never showed backlog at the slow solve stage")
	}
}
