package check_test

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"givetake/internal/bitset"
	"givetake/internal/check"
	"givetake/internal/comm"
	"givetake/internal/frontend"
	"givetake/internal/progen"
)

// corpusFiles returns every mini-Fortran program under testdata/,
// including the kernels.
func corpusFiles(t *testing.T) []string {
	t.Helper()
	var files []string
	for _, dir := range []string{"../../testdata", "../../testdata/kernels"} {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("read %s: %v", dir, err)
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".f") {
				files = append(files, filepath.Join(dir, e.Name()))
			}
		}
	}
	if len(files) == 0 {
		t.Fatal("no corpus files found")
	}
	return files
}

func analyzeFile(t *testing.T, file string) *comm.Analysis {
	t.Helper()
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("read %s: %v", file, err)
	}
	prog, err := frontend.Parse(string(src))
	if err != nil {
		t.Fatalf("parse %s: %v", file, err)
	}
	a, err := comm.Analyze(context.Background(), prog, nil, comm.Opts{})
	if err != nil {
		t.Fatalf("analyze %s: %v", file, err)
	}
	return a
}

// TestCorpusClean is the headline guarantee: the static verifier proves
// C1–C3 and O1 for the solver's output on every testdata program and
// kernel, with zero error diagnostics.
func TestCorpusClean(t *testing.T) {
	for _, file := range corpusFiles(t) {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			a := analyzeFile(t, file)
			res := a.CheckPlacement(nil)
			for _, d := range res.Errors() {
				t.Errorf("%s: %s", file, d)
			}
			for name, s := range res.Stats {
				if s.Contexts == 0 {
					t.Errorf("%s/%s: verifier discovered no contexts", file, name)
				}
			}
		})
	}
}

// freshProblem re-analyzes fig1 and returns its READ placement
// problem, so each corruption scenario starts from a clean solution.
func freshProblem(t *testing.T) *check.Problem {
	t.Helper()
	probs := analyzeFile(t, "../../testdata/fig1.f").Problems()
	if len(probs) == 0 {
		t.Fatal("fig1 produced no placement problems")
	}
	return probs[0]
}

func clearRows(rows ...[]*bitset.Set) {
	for _, row := range rows {
		for _, s := range row {
			if s != nil {
				s.Clear()
			}
		}
	}
}

func codesOf(res *check.Result) map[string]bool {
	m := map[string]bool{}
	for _, d := range res.Diagnostics {
		m[d.Code] = true
	}
	return m
}

// TestDiagnosticCodes hand-corrupts a solved placement and asserts the
// verifier names the specific violated criterion.
func TestDiagnosticCodes(t *testing.T) {
	t.Run("unmatched Recv is GNT002", func(t *testing.T) {
		p := freshProblem(t)
		clearRows(p.Sol.Eager.ResIn, p.Sol.Eager.ResOut)
		if c := codesOf(check.Verify(p)); !c[check.CodeStopWithoutStart] {
			t.Fatalf("dropping every Send yielded codes %v, want %s", c, check.CodeStopWithoutStart)
		}
	})
	t.Run("leaked region is GNT003", func(t *testing.T) {
		p := freshProblem(t)
		clearRows(p.Sol.Lazy.ResIn, p.Sol.Lazy.ResOut)
		if c := codesOf(check.Verify(p)); !c[check.CodeOpenAtExit] {
			t.Fatalf("dropping every Recv yielded codes %v, want %s", c, check.CodeOpenAtExit)
		}
	})
	t.Run("starved consumer is GNT006", func(t *testing.T) {
		p := freshProblem(t)
		clearRows(p.Sol.Eager.ResIn, p.Sol.Eager.ResOut, p.Sol.Lazy.ResIn, p.Sol.Lazy.ResOut)
		if c := codesOf(check.Verify(p)); !c[check.CodeConsumerStarved] {
			t.Fatalf("dropping all production yielded codes %v, want %s", c, check.CodeConsumerStarved)
		}
	})
	t.Run("double open is GNT001", func(t *testing.T) {
		p := freshProblem(t)
		injected := false
		for id, s := range p.Sol.Eager.ResIn {
			if s == nil || s.IsEmpty() {
				continue
			}
			item := s.Items()[0]
			p.Sol.Eager.ResOut[id].Add(item)
			injected = true
			break
		}
		if !injected {
			t.Skip("fig1 READ has no eager RES_in site to double")
		}
		if c := codesOf(check.Verify(p)); !c[check.CodeStartedTwice] {
			t.Fatalf("doubling a Send yielded codes %v, want %s", c, check.CodeStartedTwice)
		}
	})
	t.Run("Recv without Send lints GNT101", func(t *testing.T) {
		p := freshProblem(t)
		clearRows(p.Sol.Eager.ResIn, p.Sol.Eager.ResOut)
		found := false
		for _, d := range check.Lint(p) {
			if d.Code == check.CodeRecvBeforeSend {
				found = true
			}
		}
		if !found {
			t.Fatalf("dropping every Send produced no %s lint", check.CodeRecvBeforeSend)
		}
	})
}

// TestResultHelpers covers severity partitioning and ordering.
func TestResultHelpers(t *testing.T) {
	r := &check.Result{Diagnostics: []check.Diagnostic{
		{Code: check.CodeZeroOverlap, Severity: check.Warning, Pre: 1, Item: 0},
		{Code: check.CodeStartedTwice, Severity: check.Error, Pre: 5, Item: 1},
		{Code: check.CodeStartedTwice, Severity: check.Error, Pre: 2, Item: 0},
	}}
	if r.Ok() {
		t.Fatal("result with errors reported Ok")
	}
	if len(r.Errors()) != 2 || len(r.Warnings()) != 1 {
		t.Fatalf("partition wrong: %d errors, %d warnings", len(r.Errors()), len(r.Warnings()))
	}
	r.Sort()
	if r.Diagnostics[0].Pre != 2 || r.Diagnostics[2].Severity != check.Warning {
		t.Fatalf("sort order wrong: %+v", r.Diagnostics)
	}
}

// TestVerifyAllocsScale guards the verifier's flat state representation:
// allocations per flow-graph node must not grow with program size. At
// 800 statements they may be at most twice the figure at 50. The count
// is deterministic, unlike a timing.
func TestVerifyAllocsScale(t *testing.T) {
	perNode := map[int]float64{}
	for _, stmts := range []int{50, 200, 800} {
		prog := progen.Generate(9, progen.Config{Stmts: stmts, MaxDepth: 3, Arrays: true})
		a, err := comm.Analyze(context.Background(), prog, nil, comm.Opts{})
		if err != nil {
			t.Fatalf("%d statements: analyze: %v", stmts, err)
		}
		probs := a.Problems()
		allocs := testing.AllocsPerRun(2, func() { check.VerifyAll(probs...) })
		perNode[stmts] = allocs / float64(len(a.Graph.Nodes))
		t.Logf("%d statements, %d nodes: %.1f allocs/node", stmts, len(a.Graph.Nodes), perNode[stmts])
	}
	if perNode[800] > 2*perNode[50] {
		t.Errorf("allocs/node grew from %.1f at 50 statements to %.1f at 800", perNode[50], perNode[800])
	}
}
