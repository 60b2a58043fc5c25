package givetake_test

import (
	"strings"
	"testing"

	gt "givetake"
	"givetake/internal/bitset"
)

// Facade-level tests: the public API drives the whole pipeline.

func TestAPIPipeline(t *testing.T) {
	prog, err := gt.Parse(fig1Src)
	if err != nil {
		t.Fatal(err)
	}
	// parse → format round trip
	again, err := gt.Parse(gt.Format(prog))
	if err != nil {
		t.Fatalf("formatted program does not re-parse: %v", err)
	}
	if gt.Format(again) != gt.Format(prog) {
		t.Fatal("format is not a fixed point")
	}

	cg, err := gt.GenerateComm(prog)
	if err != nil {
		t.Fatal(err)
	}
	split := cg.AnnotatedSource(gt.SplitComm)
	if !strings.Contains(split, "READ_Send{x(a(1:n))}") {
		t.Fatalf("split placement missing vectorized send:\n%s", split)
	}
	if vs := gt.Verify(cg.Read, cg.ReadInit, gt.VerifyConfig{CheckSafety: true}); len(vs) > 0 {
		t.Fatalf("verification failed: %v", vs[0])
	}

	trace, err := gt.Execute(cg.Annotate(gt.SplitComm), gt.ExecConfig{N: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if trace.Messages() != 1 {
		t.Fatalf("messages = %d, want 1", trace.Messages())
	}
	cost := gt.CostModelHighLatency.Cost(trace)
	if cost.Total <= 0 || cost.Messages != 1 {
		t.Fatalf("cost = %+v", cost)
	}
}

func TestAPIFaultyExecution(t *testing.T) {
	prog, err := gt.Parse(fig1Src)
	if err != nil {
		t.Fatal(err)
	}
	cg, err := gt.GenerateComm(prog)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gt.ExecConfig{N: 64, Seed: 1, Faults: gt.DefaultFaultConfig, FaultSeed: 9}
	trace, err := gt.Execute(cg.Annotate(gt.SplitComm), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if trace.Faults == nil {
		t.Fatal("faulty execution must carry a FaultReport")
	}
	var rep gt.FaultReport = *trace.Faults
	if !rep.Accounted() {
		t.Fatalf("report does not balance: %s", rep)
	}
	if s, r := trace.UnmatchedSplit(); s != 0 || r != 0 {
		t.Fatalf("faults broke balance: %d/%d unmatched", s, r)
	}
	cost := gt.CostModelHighLatency.Cost(trace)
	if cost.Total != cost.Compute+cost.Wait+cost.Retrans {
		t.Fatalf("cost identity broken: %+v", cost)
	}
	// a custom profile flows through the facade type
	var fc gt.FaultConfig
	if fc.Enabled() {
		t.Fatal("zero FaultConfig must be disabled")
	}
}

func TestAPISolverDirect(t *testing.T) {
	prog, err := gt.Parse("a = 1\ns = x(1)\n")
	if err != nil {
		t.Fatal(err)
	}
	g, err := gt.BuildGraph(prog)
	if err != nil {
		t.Fatal(err)
	}
	init := gt.NewInit(len(g.Nodes), 1)
	for _, n := range g.Nodes {
		if strings.Contains(n.String(), "s = x(1)") {
			init.AddTake(n, bitset.Of(1, 0))
		}
	}
	s := gt.MustSolve(g, 1, init)
	eagerSites, lazySites := 0, 0
	for _, n := range g.Nodes {
		eagerSites += s.Place(gt.Eager).ResIn.At(n.ID).Count()
		lazySites += s.Place(gt.Lazy).ResIn.At(n.ID).Count()
	}
	if eagerSites != 1 || lazySites != 1 {
		t.Fatalf("production sites eager=%d lazy=%d, want 1 each", eagerSites, lazySites)
	}
	if vs := gt.Verify(s, init, gt.VerifyConfig{CheckSafety: true}); len(vs) > 0 {
		t.Fatalf("verify: %v", vs)
	}
}

func TestAPIAfterProblem(t *testing.T) {
	prog, err := gt.Parse("x(1) = 5\nb = 2\n")
	if err != nil {
		t.Fatal(err)
	}
	g, err := gt.BuildGraph(prog)
	if err != nil {
		t.Fatal(err)
	}
	rev, err := gt.ReverseGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	init := gt.NewInit(len(g.Nodes), 1)
	for _, n := range rev.Nodes {
		if strings.Contains(n.String(), "x(1) = 5") {
			init.AddTake(n, bitset.Of(1, 0))
		}
	}
	s := gt.MustSolve(rev, 1, init)
	if vs := gt.Verify(s, init, gt.VerifyConfig{CheckSafety: true}); len(vs) > 0 {
		t.Fatalf("verify: %v", vs)
	}
}

func TestAPINaiveComm(t *testing.T) {
	prog, err := gt.Parse(fig1Src)
	if err != nil {
		t.Fatal(err)
	}
	naive := gt.NaiveComm(prog, gt.AtomicComm)
	tr, err := gt.Execute(naive, gt.ExecConfig{N: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Messages() != 10 {
		t.Fatalf("naive messages = %d, want N = 10", tr.Messages())
	}
}
