package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"givetake/internal/frontend"
	"givetake/internal/obs"
)

// gateCollector blocks the first parse span until released and counts
// every parse span begun — the probe the cancellation tests use to pin
// one item mid-stage and then prove no further parse ever starts.
type gateCollector struct {
	mu      sync.Mutex
	parses  int
	gate    chan struct{} // close to release the pinned parse
	started chan struct{} // closed when the first parse begins
	once    sync.Once
}

func (c *gateCollector) BeginSpan(name string, kv ...any) obs.EndFunc {
	if name == obs.SpanParse {
		c.mu.Lock()
		c.parses++
		c.mu.Unlock()
		c.once.Do(func() { close(c.started) })
		<-c.gate
	}
	return func(kv ...any) {}
}

func (c *gateCollector) parseCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.parses
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

// TestAnalyzeBatchCancelSheds is the batch-cancellation regression
// test: cancel while the first item is pinned mid-parse, and (a) no
// further parse ever starts — not for queued items, not for unsubmitted
// ones — and (b) the trailing slots carry context.Canceled instead of
// silently missing results.
func TestAnalyzeBatchCancelSheds(t *testing.T) {
	col := &gateCollector{gate: make(chan struct{}), started: make(chan struct{})}
	widths := stageWidths(2)
	widths[stageParse] = 1
	e := newEngine(Config{Workers: 2}, widths, 1)
	defer e.Close()

	items := make([]BatchItem, 8)
	for i := range items {
		items[i] = BatchItem{Source: loopSrc}
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan []BatchResult, 1)
	go func() { done <- e.AnalyzeBatch(ctx, items, col) }()

	<-col.started // item 0 is pinned inside the parse stage
	cancel()
	close(col.gate)
	out := <-done

	if got := col.parseCount(); got != 1 {
		t.Fatalf("%d parse spans ran, want only the one in flight at cancel", got)
	}
	for i, r := range out {
		if r.Res != nil {
			r.Res.Release()
		}
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("item %d: err = %v, want context.Canceled", i, r.Err)
		}
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
// batch wall time tracks the slowest stage's serial floor — NOT the sum
// of all stages per item, which is what a barriered design would cost —
// and the queue-depth gauge reports the backlog piling up in front of
// the bottleneck.
func TestPipelineThroughputTracksSlowestStage(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const (
		n    = 20
		fast = 2 * time.Millisecond
		slow = 20 * time.Millisecond // 10× the others
	)
	e := newEngine(Config{Workers: 4}, [numStages]int{1, 1, 1, 1, 1, 1}, 4)
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

	items := make([]BatchItem, n)
	for i := range items {
		items[i] = BatchItem{Source: loopSrc}
	}
	start := time.Now()
	out := e.AnalyzeBatch(context.Background(), items, nil)
	wall := time.Since(start)
	close(stop)
	for i, r := range out {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
		r.Res.Release()
	}

	serial := n * (5*fast + slow) // what per-item stage barriers would cost
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
