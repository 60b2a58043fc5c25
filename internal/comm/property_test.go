package comm

import (
	"context"
	"testing"
	"testing/quick"

	"givetake/internal/core"
	"givetake/internal/interp"
	"givetake/internal/progen"
)

// Property tests over randomly generated distributed-array programs: the
// full pipeline (universe construction, both placement problems, source
// annotation, execution) must preserve the paper's correctness criteria
// both statically (path oracle) and dynamically (trace balance).

func TestPropertyCommPlacements(t *testing.T) {
	f := func(seed int64) bool {
		prog := progen.Generate(seed, progen.Config{Stmts: 25, MaxDepth: 3, Arrays: true})
		a, err := Analyze(context.Background(), prog, nil, Opts{})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if vs := core.Verify(a.Read, a.ReadInit, core.VerifyConfig{CheckSafety: true, MaxPaths: 800}); len(vs) > 0 {
			t.Logf("seed %d READ: %v", seed, vs[0])
			return false
		}
		for _, v := range core.Verify(a.Write, a.WriteInit, core.VerifyConfig{MaxPaths: 800}) {
			if v.Criterion != "O1" {
				t.Logf("seed %d WRITE: %v", seed, v)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyDynamicBalance executes annotated programs and checks that
// every Send has exactly one matching Recv at runtime — criterion C1
// observed on real traces rather than enumerated paths.
func TestPropertyDynamicBalance(t *testing.T) {
	f := func(seed int64) bool {
		prog := progen.Generate(seed, progen.Config{Stmts: 20, MaxDepth: 3, Arrays: true})
		a, err := Analyze(context.Background(), prog, nil, Opts{})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		annotated := a.Annotate(DefaultOptions)
		for _, n := range []int64{0, 1, 7} {
			for _, condSeed := range []int64{1, 2} {
				tr, err := interp.Run(annotated, interp.Config{N: n, Seed: condSeed, MaxSteps: 500000})
				if err != nil {
					t.Logf("seed %d run: %v", seed, err)
					return false
				}
				if s, r := tr.UnmatchedSplit(); s != 0 || r != 0 {
					t.Logf("seed %d (N=%d cond=%d): unmatched sends=%d recvs=%d\n%s",
						seed, n, condSeed, s, r, a.AnnotatedSource(DefaultOptions))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyVectorizationWins: on every generated program, GIVE-N-TAKE
// never issues more messages than the naive placement, and the annotated
// program does the same compute.
func TestPropertyVectorizationWins(t *testing.T) {
	f := func(seed int64) bool {
		prog := progen.Generate(seed, progen.Config{Stmts: 20, MaxDepth: 3, Arrays: true})
		a, err := Analyze(context.Background(), prog, nil, Opts{})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		cfg := interp.Config{N: 9, Seed: 4, MaxSteps: 500000}
		naive, err := interp.Run(NaiveAnnotate(prog, Options{Reads: true, Writes: true}), cfg)
		if err != nil {
			return false
		}
		gnt, err := interp.Run(a.Annotate(Options{Reads: true, Writes: true}), cfg)
		if err != nil {
			return false
		}
		plain, err := interp.Run(prog, cfg)
		if err != nil {
			return false
		}
		if gnt.Messages() > naive.Messages() {
			t.Logf("seed %d: gnt %d msgs > naive %d", seed, gnt.Messages(), naive.Messages())
			return false
		}
		// annotation adds communication, never compute: step counts net of
		// comm statements agree
		if plain.Steps != gnt.Steps-int64(len(commEvents(gnt))) {
			t.Logf("seed %d: compute steps diverged: %d vs %d-%d",
				seed, plain.Steps, gnt.Steps, len(commEvents(gnt)))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// commEvents returns the distinct executed communication statements: the
// interpreter traces one event per section, but each comm statement
// costs one step, so count by (step, half, op).
func commEvents(tr *interp.Trace) []interp.CommEvent {
	type key struct {
		step int64
		op   string
		half string
	}
	seen := map[key]bool{}
	var out []interp.CommEvent
	for _, e := range tr.Events {
		k := key{e.Step, e.Op, e.Half}
		if !seen[k] {
			seen[k] = true
			out = append(out, e)
		}
	}
	return out
}
