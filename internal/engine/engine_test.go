package engine

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"givetake/internal/comm"
	"givetake/internal/frontend"
	"givetake/internal/progen"
)

const loopSrc = `distributed x(1000)
real y(1000)

do i = 1, n
    y(i) = x(i) + 1
enddo
`

// corpusSources loads every .f program of the repo corpus.
func corpusSources(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	root := filepath.Join("..", "..", "testdata")
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".f") {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		out[path] = string(b)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("empty corpus")
	}
	return out
}

// TestAnalyzeMatchesSequential proves the task-parallel pipeline is
// observationally identical to the sequential one on the whole corpus:
// same annotated source, same verification verdict and diagnostics.
func TestAnalyzeMatchesSequential(t *testing.T) {
	e := New(Config{Workers: 4})
	for path, src := range corpusSources(t) {
		prog1, err := frontend.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		prog2, _ := frontend.Parse(src)

		seq, err := comm.Analyze(context.Background(), prog1, nil, comm.Opts{})
		if err != nil {
			t.Fatalf("%s: sequential: %v", path, err)
		}
		seqCheck, err := seq.CheckPlacementCtx(context.Background(), nil)
		if err != nil {
			t.Fatalf("%s: sequential check: %v", path, err)
		}

		res, err := e.Analyze(context.Background(), Job{Prog: prog2})
		if err != nil {
			t.Fatalf("%s: engine: %v", path, err)
		}
		gotAnn := res.Analysis.AnnotatedSource(comm.DefaultOptions)
		wantAnn := seq.AnnotatedSource(comm.DefaultOptions)
		if gotAnn != wantAnn {
			t.Errorf("%s: parallel annotation differs from sequential:\n--- got\n%s\n--- want\n%s",
				path, gotAnn, wantAnn)
		}
		if got, want := len(res.Check.Diagnostics), len(seqCheck.Diagnostics); got != want {
			t.Errorf("%s: diagnostics %d != sequential %d", path, got, want)
		}
		for i := range res.Check.Diagnostics {
			if res.Check.Diagnostics[i].String() != seqCheck.Diagnostics[i].String() {
				t.Errorf("%s: diagnostic %d differs: %s vs %s",
					path, i, res.Check.Diagnostics[i], seqCheck.Diagnostics[i])
			}
		}
	}
}

// TestResultOutlivesLaterJobs keeps the first job's Result while eight
// more programs of other shapes run through the same one-worker engine,
// then renders it again: a result shares no memory with later jobs, so
// its annotation must not change.
func TestResultOutlivesLaterJobs(t *testing.T) {
	e := New(Config{Workers: 1})
	prog, err := frontend.Parse(loopSrc)
	if err != nil {
		t.Fatal(err)
	}
	first, err := e.Analyze(context.Background(), Job{Prog: prog})
	if err != nil {
		t.Fatal(err)
	}
	want := first.Analysis.AnnotatedSource(comm.DefaultOptions)
	for seed := int64(0); seed < 8; seed++ {
		prog := progen.Generate(seed, progen.Config{Stmts: 20 + int(seed)*10, MaxDepth: 3, Arrays: true})
		if _, err := e.Analyze(context.Background(), Job{Prog: prog}); err != nil {
			t.Fatalf("job %d: %v", seed+1, err)
		}
	}
	if got := first.Analysis.AnnotatedSource(comm.DefaultOptions); got != want {
		t.Fatalf("first result's annotation changed after later jobs:\n%s\nwant:\n%s", got, want)
	}
	if !first.Check.Ok() {
		t.Fatalf("first result failed verification: %v", first.Check.Errors())
	}
}

// TestPostSolvePanicPropagates: a panic in the PostSolve hook reaches
// the caller as a *PanicError with no result (the solve stage recovers
// it), and does not wedge the engine.
func TestPostSolvePanicPropagates(t *testing.T) {
	e := New(Config{Workers: 2})
	prog, err := frontend.Parse(loopSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Analyze(context.Background(), Job{
		Prog:      prog,
		PostSolve: func(*comm.Analysis) { panic("chaos") },
	})
	var pe *PanicError
	if res != nil || !errors.As(err, &pe) || pe.Value != "chaos" {
		t.Fatalf("want nil result and *PanicError(chaos), got %v, %v", res, err)
	}
	if n := e.Stats().Pool.Panics; n != 1 {
		t.Fatalf("panic counter = %d, want 1", n)
	}
	// the engine still works afterwards
	prog2, _ := frontend.Parse(loopSrc)
	res, err = e.Analyze(context.Background(), Job{Prog: prog2})
	if err != nil || !res.Check.Ok() {
		t.Fatalf("engine wedged after hook panic: %v", err)
	}
}

// TestPoolPanicBecomesError: a panicking stage body surfaces as a
// *PanicError, not a process crash. The panic comes from the collector
// as the interval-reduce span begins, inside that stage's body, so the
// stage's own recover catches it: the panic counter records it, the
// stage counts the item, no later stage runs, and the engine's only
// slot is free for the next job.
func TestPoolPanicBecomesError(t *testing.T) {
	e := New(Config{Workers: 1})
	res, err := e.Analyze(context.Background(), Job{Prog: parseLoop(t), Collector: panicCollector{}})
	var pe *PanicError
	if res != nil || !errors.As(err, &pe) || pe.Value != "boom" {
		t.Fatalf("want nil result and *PanicError(boom), got %v, %v", res, err)
	}
	if n := e.Stats().Pool.Panics; n != 1 {
		t.Fatalf("panic counter = %d, want 1", n)
	}
	st := e.PipelineStats()
	if st[stageIntervals].Items != 1 || st[stageIntervals].Busy != 0 || st[stageUniverse].Items != 0 {
		t.Fatalf("stages after the panic: %+v; want interval-reduce to count it and section-universe never to run", st)
	}
	res, err = e.Analyze(context.Background(), Job{Prog: parseLoop(t)})
	if err != nil || !res.Check.Ok() {
		t.Fatalf("engine wedged after a stage panic: %v", err)
	}
}

// TestMapBoundsFanOut: Map never runs more than Workers bodies at once.
func TestMapBoundsFanOut(t *testing.T) {
	e := New(Config{Workers: 3})
	var mu sync.Mutex
	cur, peak := 0, 0
	e.Map(context.Background(), 20, func(ctx context.Context, i int) {
		mu.Lock()
		cur++
		if cur > peak {
			peak = cur
		}
		mu.Unlock()
		mu.Lock()
		cur--
		mu.Unlock()
	})
	if peak > 3 {
		t.Fatalf("fan-out peak %d exceeds worker bound 3", peak)
	}
}
