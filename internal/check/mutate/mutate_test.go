package mutate_test

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"givetake/internal/check"
	"givetake/internal/check/mutate"
	"givetake/internal/comm"
	"givetake/internal/frontend"
)

func corpusProblems(t *testing.T) []*check.Problem {
	t.Helper()
	var probs []*check.Problem
	for _, dir := range []string{"../../../testdata", "../../../testdata/kernels"} {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("read %s: %v", dir, err)
		}
		for _, e := range ents {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".f") {
				continue
			}
			file := filepath.Join(dir, e.Name())
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
			for _, p := range a.Problems() {
				p.Name = e.Name() + "/" + p.Name
				probs = append(probs, p)
			}
		}
	}
	if len(probs) == 0 {
		t.Fatal("no corpus problems found")
	}
	return probs
}

// TestMutationDetection is the acceptance gate for the verifier's
// power: seeded single-bit RES corruptions across the whole corpus
// must be flagged with a GNT0xx error naming the violated criterion at
// a rate of at least 95%.
func TestMutationDetection(t *testing.T) {
	const trials = 40
	r := rand.New(rand.NewSource(1))
	total, detected := 0, 0
	for _, p := range corpusProblems(t) {
		if res := check.Verify(p); !res.Ok() {
			t.Fatalf("%s: corpus not clean before mutation: %s", p.Name, res.Errors()[0])
		}
		for trial := 0; trial < trials; trial++ {
			m, undo, ok := mutate.Apply(r, p.Sol, p.Universe)
			if !ok {
				continue
			}
			total++
			res := check.Verify(p)
			undo()
			errs := res.Errors()
			if len(errs) == 0 {
				t.Logf("%s: undetected mutation: %s", p.Name, m)
				continue
			}
			d := errs[0]
			if !strings.HasPrefix(d.Code, "GNT0") {
				t.Errorf("%s: detection carries non-verifier code %s", p.Name, d.Code)
			}
			if d.Criterion == "" {
				t.Errorf("%s: diagnostic %s names no criterion", p.Name, d.Code)
			}
			detected++
		}
		// The undo must restore a clean solution.
		if res := check.Verify(p); !res.Ok() {
			t.Fatalf("%s: undo left the solution corrupted: %s", p.Name, res.Errors()[0])
		}
	}
	rate := float64(detected) / float64(total)
	t.Logf("mutation detection: %d/%d = %.1f%%", detected, total, 100*rate)
	if rate < 0.95 {
		t.Fatalf("detection rate %.1f%% below the 95%% bar (%d/%d)", 100*rate, detected, total)
	}
}

// TestApplyDeterministic pins the seeded behavior: the same source
// yields the same mutation sequence.
func TestApplyDeterministic(t *testing.T) {
	probs := corpusProblems(t)
	p := probs[0]
	var a, b []string
	for _, out := range []*[]string{&a, &b} {
		r := rand.New(rand.NewSource(7))
		for i := 0; i < 10; i++ {
			m, undo, ok := mutate.Apply(r, p.Sol, p.Universe)
			if !ok {
				t.Fatal("no mutation site found")
			}
			*out = append(*out, m.String())
			undo()
		}
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("mutation %d differs: %q vs %q", i, a[i], b[i])
		}
	}
}
