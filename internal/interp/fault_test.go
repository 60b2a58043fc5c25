package interp_test

// Fault-runtime tests: determinism of seeded fault injection, the
// no-fault regression guard, and the acceptance sweep over every
// example program under a lossy profile.

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"

	"givetake/internal/comm"
	"givetake/internal/frontend"
	"givetake/internal/interp"
	"givetake/internal/ir"
	"givetake/internal/netsim"
)

const fig1Src = `
distributed x(1000)
real y(1000), z(1000), a(1000)

do i = 1, n
    y(i) = ...
enddo
if test then
    do j = 1, n
        z(j) = ...
    enddo
    do k = 1, n
        ... = x(a(k))
    enddo
else
    do l = 1, n
        ... = x(a(l))
    enddo
endif
`

// corpus returns every mini-Fortran program the repo ships: the
// testdata figures and kernels, plus the programs embedded in the
// examples (extracted from their raw string literals).
func corpus(t *testing.T) map[string]*ir.Program {
	t.Helper()
	progs := map[string]*ir.Program{}
	files, err := filepath.Glob("../../testdata/*.f")
	if err != nil {
		t.Fatal(err)
	}
	kernels, err := filepath.Glob("../../testdata/kernels/*.f")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range append(files, kernels...) {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		p, err := frontend.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		progs[filepath.Base(f)] = p
	}
	// examples embed their programs as backtick literals
	mains, err := filepath.Glob("../../examples/*/main.go")
	if err != nil {
		t.Fatal(err)
	}
	lit := regexp.MustCompile("(?s)`[^`]+`")
	for _, f := range mains {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range lit.FindAllString(string(src), -1) {
			body := m[1 : len(m)-1]
			p, err := frontend.Parse(body)
			if err != nil || len(p.Body) == 0 {
				continue // not a program literal
			}
			name := filepath.Base(filepath.Dir(f))
			if i > 0 {
				name = name + string(rune('a'+i))
			}
			progs[name] = p
		}
	}
	if len(progs) < 8 {
		t.Fatalf("corpus too small (%d programs) — extraction broke?", len(progs))
	}
	return progs
}

// annotations returns the three placements of a program, skipping
// programs the comm analysis rejects (none today, but the corpus walks
// everything it finds).
func annotations(t *testing.T, name string, p *ir.Program) map[string]*ir.Program {
	t.Helper()
	a, err := comm.Analyze(context.Background(), p, nil, comm.Opts{})
	if err != nil {
		t.Fatalf("%s: analyze: %v", name, err)
	}
	return map[string]*ir.Program{
		"naive":  comm.NaiveAnnotate(p, comm.Options{Reads: true, Writes: true}),
		"atomic": a.Annotate(comm.Options{Reads: true, Writes: true}),
		"split":  a.Annotate(comm.DefaultOptions),
	}
}

func mustRun(t *testing.T, name string, p *ir.Program, cfg interp.Config) *interp.Trace {
	t.Helper()
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 2_000_000
	}
	tr, err := interp.Run(p, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return tr
}

// TestFaultDeterminism: the same (Seed, FaultSeed, FaultConfig) yields
// identical traces and FaultReports across runs — the property the
// whole measurement methodology rests on.
func TestFaultDeterminism(t *testing.T) {
	prog, err := frontend.Parse(fig1Src)
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range annotations(t, "fig1", prog) {
		for seed := int64(1); seed <= 10; seed++ {
			cfg := interp.Config{N: 40, Seed: 3, Faults: netsim.Default, FaultSeed: seed}
			a := mustRun(t, name, p, cfg)
			b := mustRun(t, name, p, cfg)
			if !reflect.DeepEqual(a.Events, b.Events) || a.Steps != b.Steps {
				t.Fatalf("%s seed %d: traces differ", name, seed)
			}
			if a.Faults == nil || b.Faults == nil || *a.Faults != *b.Faults {
				t.Fatalf("%s seed %d: fault reports differ: %v vs %v", name, seed, a.Faults, b.Faults)
			}
		}
	}
}

// TestFaultsDoNotPerturbExecution: fault injection annotates the trace
// but never changes what executed — steps and the (Op, Half, Step,
// Elems, Args) sequence are identical to the reliable run, because the
// transport draws from its own seeded stream.
func TestFaultsDoNotPerturbExecution(t *testing.T) {
	for name, prog := range corpus(t) {
		for vname, p := range annotations(t, name, prog) {
			plain := mustRun(t, name, p, interp.Config{N: 24, Seed: 5})
			faulty := mustRun(t, name, p, interp.Config{N: 24, Seed: 5, Faults: netsim.Default})
			if plain.Steps != faulty.Steps {
				t.Fatalf("%s/%s: faults changed step count %d → %d", name, vname, plain.Steps, faulty.Steps)
			}
			if len(plain.Events) != len(faulty.Events) {
				t.Fatalf("%s/%s: faults changed event count", name, vname)
			}
			for i := range plain.Events {
				pe, fe := plain.Events[i], faulty.Events[i]
				if pe.Op != fe.Op || pe.Half != fe.Half || pe.Step != fe.Step ||
					pe.Elems != fe.Elems || pe.Args != fe.Args {
					t.Fatalf("%s/%s: event %d diverged: %+v vs %+v", name, vname, i, pe, fe)
				}
			}
		}
	}
}

// TestZeroProbabilityMatchesReliable: a FaultConfig whose probabilities
// are all zero bypasses the transport and reproduces today's traces
// exactly, for every program in the corpus — the no-fault regression
// guard.
func TestZeroProbabilityMatchesReliable(t *testing.T) {
	zero := netsim.FaultConfig{Timeout: 64, MaxRetries: 3} // protocol set, no fault can fire
	for name, prog := range corpus(t) {
		for vname, p := range annotations(t, name, prog) {
			plain := mustRun(t, name, p, interp.Config{N: 24, Seed: 5})
			zeroed := mustRun(t, name, p, interp.Config{N: 24, Seed: 5, Faults: zero})
			if !reflect.DeepEqual(plain, zeroed) {
				t.Fatalf("%s/%s: drop-probability 0 must reproduce the reliable trace byte for byte", name, vname)
			}
			if zeroed.Faults != nil {
				t.Fatalf("%s/%s: reliable run must not carry a fault report", name, vname)
			}
		}
	}
}

// TestExamplesSurviveFaultProfile is the acceptance sweep: under
// drop=0.2, dup=0.1 every program completes with zero permanently
// unmatched Send/Recv halves and a FaultReport that accounts for every
// injected fault.
func TestExamplesSurviveFaultProfile(t *testing.T) {
	profile := netsim.FaultConfig{Drop: 0.2, Dup: 0.1, Delay: 0.1, Reorder: 0.05}
	for name, prog := range corpus(t) {
		for vname, p := range annotations(t, name, prog) {
			for seed := int64(1); seed <= 5; seed++ {
				tr := mustRun(t, name, p, interp.Config{N: 24, Seed: 5, Faults: profile, FaultSeed: seed})
				if us, ur := tr.UnmatchedSplit(); us != 0 || ur != 0 {
					t.Fatalf("%s/%s seed %d: unmatched halves %d/%d", name, vname, seed, us, ur)
				}
				rep := tr.Faults
				if rep == nil {
					t.Fatalf("%s/%s seed %d: missing fault report", name, vname, seed)
				}
				if rep.UnmatchedSends != 0 || rep.UnmatchedRecvs != 0 {
					t.Fatalf("%s/%s seed %d: transport saw unmatched halves: %s", name, vname, seed, rep)
				}
				if !rep.Accounted() {
					t.Fatalf("%s/%s seed %d: fault report does not balance: %s", name, vname, seed, rep)
				}
			}
		}
	}
}

// TestDegradationRecordedNotFailed: with certain loss the split pair
// exhausts its budget, degrades to an atomic re-issue at the Recv
// point, and the run still completes balanced.
func TestDegradationRecordedNotFailed(t *testing.T) {
	prog, err := frontend.Parse(fig1Src)
	if err != nil {
		t.Fatal(err)
	}
	split := annotations(t, "fig1", prog)["split"]
	tr := mustRun(t, "fig1", split, interp.Config{
		N: 40, Seed: 3,
		Faults: netsim.FaultConfig{Drop: 1, MaxRetries: 2},
	})
	if tr.Faults.Degraded == 0 {
		t.Fatalf("certain loss must degrade the split transfer: %s", tr.Faults)
	}
	degraded := false
	for _, e := range tr.Events {
		if e.Half == "Recv" && e.Degraded {
			degraded = true
			if e.Retries != 2 {
				t.Fatalf("degraded recv should carry the burned budget, got %d retries", e.Retries)
			}
		}
	}
	if !degraded {
		t.Fatal("no Recv event flagged as degraded")
	}
	if us, ur := tr.UnmatchedSplit(); us != 0 || ur != 0 {
		t.Fatalf("degraded run must stay balanced: %d/%d", us, ur)
	}
	if !tr.Faults.Accounted() {
		t.Fatalf("degraded run must account: %s", tr.Faults)
	}
}
