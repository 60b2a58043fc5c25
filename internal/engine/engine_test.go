package engine

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"givetake/internal/comm"
	"givetake/internal/frontend"
	"givetake/internal/obs"
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
	defer e.Close()
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
		res.Release()
	}
}

// TestArenaReuseAcrossJobs runs the same program repeatedly through one
// engine, releasing between runs, and asserts results stay correct —
// stale arena bits leaking into a later solve would corrupt the
// annotation or the verification.
func TestArenaReuseAcrossJobs(t *testing.T) {
	e := New(Config{Workers: 1}) // one worker: maximal arena reuse
	defer e.Close()
	var want string
	for i := 0; i < 8; i++ {
		prog, err := frontend.Parse(loopSrc)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Analyze(context.Background(), Job{Prog: prog})
		if err != nil {
			t.Fatal(err)
		}
		got := res.Analysis.AnnotatedSource(comm.DefaultOptions)
		if !res.Check.Ok() {
			t.Fatalf("run %d failed verification: %v", i, res.Check.Errors())
		}
		res.Release()
		if i == 0 {
			want = got
		} else if got != want {
			t.Fatalf("run %d annotation drifted after arena reuse:\n%s\nwant:\n%s", i, got, want)
		}
	}
}

// TestPostSolvePanicPropagates: a panic in the PostSolve hook reaches
// the caller as a *PanicError with no result (the solve stage recovers
// it), and does not leak arenas or wedge the engine.
func TestPostSolvePanicPropagates(t *testing.T) {
	e := New(Config{Workers: 2})
	defer e.Close()
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
	res.Release()
}

// TestPoolPanicBecomesError: a panicking stage body surfaces as a
// *PanicError, not a process crash, the panic counter records it, and
// the stage's only worker survives to run the next job.
func TestPoolPanicBecomesError(t *testing.T) {
	e := newEngine(Config{Workers: 1}, [numStages]int{1, 1, 1, 1, 1}, 1)
	defer e.Close()
	var armed atomic.Bool
	armed.Store(true)
	e.pipe.delay = func(stage string) {
		if stage == obs.SpanIntervalReduce && armed.CompareAndSwap(true, false) {
			panic("boom")
		}
	}
	prog, err := frontend.Parse(loopSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Analyze(context.Background(), Job{Prog: prog})
	var pe *PanicError
	if res != nil || !errors.As(err, &pe) || pe.Value != "boom" {
		t.Fatalf("want nil result and *PanicError(boom), got %v, %v", res, err)
	}
	if n := e.Stats().Pool.Panics; n != 1 {
		t.Fatalf("panic counter = %d, want 1", n)
	}
	prog2, _ := frontend.Parse(loopSrc)
	res, err = e.Analyze(context.Background(), Job{Prog: prog2})
	if err != nil || !res.Check.Ok() {
		t.Fatalf("stage worker died after panic: %v", err)
	}
	res.Release()
}

// TestMapBoundsFanOut: Map never runs more than Workers bodies at once.
func TestMapBoundsFanOut(t *testing.T) {
	e := New(Config{Workers: 3})
	defer e.Close()
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
