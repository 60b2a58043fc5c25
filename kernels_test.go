package givetake_test

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	gt "givetake"
	"givetake/internal/comm"
	"givetake/internal/core"
)

// Integration tests over the kernel corpus in testdata/kernels: each
// kernel runs the full pipeline — parse, placement for both problems,
// static verification against the paper's correctness criteria, source
// annotation, execution, and dynamic balance — plus a per-kernel
// expectation pinning its characteristic behaviour.
func TestKernelCorpus(t *testing.T) {
	expectations := map[string]func(t *testing.T, a *comm.Analysis, annotated string){
		"redblack.f": func(t *testing.T, a *comm.Analysis, annotated string) {
			// disjoint residue classes: the odd fetch for the first sweep
			// survives the even writes
			if !strings.Contains(annotated, "READ_Send{x(3:2 * n + 1:2)}") {
				t.Errorf("missing strided odd fetch:\n%s", annotated)
			}
		},
		"spmv.f": func(t *testing.T, a *comm.Analysis, annotated string) {
			// the irregular gather vectorizes through the index array
			if !strings.Contains(annotated, "v(col(1:n))") {
				t.Errorf("missing indirect gather of v(col(1:n)):\n%s", annotated)
			}
		},
		"particle.f": func(t *testing.T, a *comm.Analysis, annotated string) {
			// the charge deposit is a SUM reduction: no gather of rho
			if !strings.Contains(annotated, "WRITE_SUM_Send{rho(cell(1:n))}") {
				t.Errorf("missing reduction deposit:\n%s", annotated)
			}
			if strings.Contains(annotated, "READ_Send{rho(cell(1:n))}") {
				t.Errorf("reduction should not gather its own item:\n%s", annotated)
			}
		},
		"jacobi2d.f": func(t *testing.T, a *comm.Analysis, annotated string) {
			// four shifted planes exchanged per step
			if !strings.Contains(annotated, "u(1:n - 1, 2:n)") ||
				!strings.Contains(annotated, "u(2:n, 3:n + 1)") {
				t.Errorf("missing 2-D plane sections:\n%s", annotated)
			}
		},
		"pipeline.f": func(t *testing.T, a *comm.Analysis, annotated string) {
			// the tail read x(4:n+3) must be fetched on both the early-exit
			// and fall-through paths (or once above both)
			if !strings.Contains(annotated, "x(4:n + 3)") {
				t.Errorf("missing tail section:\n%s", annotated)
			}
		},
	}

	files, err := filepath.Glob("testdata/kernels/*.f")
	if err != nil || len(files) == 0 {
		t.Fatalf("kernel corpus missing: %v", err)
	}
	for _, file := range files {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := gt.Parse(string(src))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			a, err := comm.Analyze(context.Background(), prog, nil, comm.Opts{})
			if err != nil {
				t.Fatalf("analyze: %v", err)
			}

			// static criteria on both problems
			if vs := core.Verify(a.Read, a.ReadInit, core.VerifyConfig{CheckSafety: true, MaxPaths: 1000}); len(vs) > 0 {
				t.Fatalf("READ: %v", vs[0])
			}
			if vs := core.Verify(a.Write, a.WriteInit, core.VerifyConfig{MaxPaths: 1000}); len(vs) > 0 {
				t.Fatalf("WRITE: %v", vs[0])
			}

			annotated := a.AnnotatedSource(comm.DefaultOptions)
			if check := expectations[filepath.Base(file)]; check != nil {
				check(t, a, annotated)
			} else {
				t.Errorf("kernel %s has no expectation registered", file)
			}

			// dynamic: run at two sizes, require balance and a message win
			// over the naive placement
			for _, n := range []int64{8, 64} {
				cfg := gt.ExecConfig{N: n, Seed: 2,
					Scalars: map[string]int64{"steps": 2, "limit": 1 << 60}}
				tr, err := gt.Execute(a.Annotate(comm.DefaultOptions), cfg)
				if err != nil {
					t.Fatalf("execute (n=%d): %v", n, err)
				}
				if s, r := tr.UnmatchedSplit(); s != 0 || r != 0 {
					t.Fatalf("n=%d: unbalanced trace: %d sends, %d recvs", n, s, r)
				}
				naive, err := gt.Execute(gt.NaiveComm(prog, gt.AtomicComm), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if tr.Messages() > naive.Messages() {
					t.Fatalf("n=%d: GNT %d messages > naive %d", n, tr.Messages(), naive.Messages())
				}
			}
		})
	}
}
