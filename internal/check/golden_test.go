package check_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"testing"

	"givetake/internal/check"
	"givetake/internal/check/mutate"
	"givetake/internal/comm"
	"givetake/internal/frontend"
	"givetake/internal/ir"
	"givetake/internal/progen"
)

// goldenDigest is the SHA-256 of every Verify result of TestGoldenIdentity,
// recorded from the verifier before its state representation was
// rewritten. Any change to a diagnostic, a witness path or a Stats
// counter changes it; a deliberate change of verifier output must say
// so and re-record it.
const goldenDigest = "d602f6728e19c27e4a56eb9bd1bc71d154792d48071af90a557207fd16c5a0ab"

// goldenMutations is the number of seeded single-bit corruptions hashed
// per placement problem, on top of the clean solution.
const goldenMutations = 8

// hashVerify appends one Verify result — diagnostics with their witness
// paths, and the work Stats — to h.
func hashVerify(t *testing.T, h hash.Hash, label string, p *check.Problem) int {
	t.Helper()
	res := check.Verify(p)
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("%s: marshal: %v", label, err)
	}
	fmt.Fprintf(h, "%s %d\n", label, len(b))
	h.Write(b)
	return len(res.Diagnostics)
}

// hashProgram hashes the clean result of every placement problem of
// prog and its results under goldenMutations seeded RES flips, and
// returns the number of diagnostics hashed.
func hashProgram(t *testing.T, h hash.Hash, label string, prog *ir.Program, seed int64) int {
	t.Helper()
	a, err := comm.Analyze(context.Background(), prog, nil, comm.Opts{})
	if err != nil {
		t.Fatalf("%s: analyze: %v", label, err)
	}
	diags := 0
	for _, p := range a.Problems() {
		pl := label + "/" + p.Name
		diags += hashVerify(t, h, pl, p)
		r := rand.New(rand.NewSource(seed))
		for k := 0; k < goldenMutations; k++ {
			m, undo, ok := mutate.Apply(r, p.Sol, p.Universe)
			if !ok {
				break
			}
			diags += hashVerify(t, h, fmt.Sprintf("%s/%s", pl, m), p)
			undo()
		}
	}
	return diags
}

// serveColdRejected regenerates the one serving-size program of the
// benchmark's seed-12 pool that the verifier rejects (program 345, a
// GNT007 on the lazy WRITE placement): the 346th seed drawn from
// source 12, at 20 + 345 mod 40 statements.
func serveColdRejected() *ir.Program {
	rng := rand.New(rand.NewSource(12))
	var seed int64
	for i := 0; i <= 345; i++ {
		seed = rng.Int63()
	}
	return progen.Generate(seed, progen.Config{Stmts: 20 + 345%40, MaxDepth: 3, Arrays: true})
}

// TestGoldenIdentity pins the verifier's complete output — every
// diagnostic, witness path and Stats counter — on the testdata corpus,
// 200 small and 6 medium generated programs, each clean and under
// seeded mutations, and the benchmark's rejected serving program. The
// state representation is free to change; what it computes is not.
func TestGoldenIdentity(t *testing.T) {
	h := sha256.New()
	diags := 0
	for i, file := range corpusFiles(t) {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("read %s: %v", file, err)
		}
		prog, err := frontend.Parse(string(src))
		if err != nil {
			t.Fatalf("parse %s: %v", file, err)
		}
		diags += hashProgram(t, h, fmt.Sprintf("corpus%d", i), prog, int64(i))
	}
	for seed := int64(0); seed < 200; seed++ {
		prog := progen.Generate(seed, progen.Config{Stmts: 20 + int(seed%40), MaxDepth: 3, Arrays: true})
		diags += hashProgram(t, h, fmt.Sprintf("small%d", seed), prog, seed)
	}
	for seed := int64(0); seed < 6; seed++ {
		prog := progen.Generate(1000+seed, progen.Config{Stmts: 100 + int(seed*10), MaxDepth: 3, Arrays: true})
		diags += hashProgram(t, h, fmt.Sprintf("medium%d", seed), prog, seed)
	}

	a, err := comm.Analyze(context.Background(), serveColdRejected(), nil, comm.Opts{})
	if err != nil {
		t.Fatalf("serve-cold program: analyze: %v", err)
	}
	res := check.VerifyAll(a.Problems()...)
	if res.Ok() {
		t.Fatal("serve-cold seed-12 program 345 verifies clean; expected the GNT007 rejection")
	}
	for _, d := range res.Errors() {
		if d.Code != check.CodeReproduction || d.Problem != "WRITE" || d.Mode != "lazy" {
			t.Errorf("serve-cold program: unexpected error %s", d)
		}
	}
	diags += hashProgram(t, h, "serve-cold-12-345", serveColdRejected(), 345)
	t.Logf("hashed %d diagnostics", diags)

	if got := hex.EncodeToString(h.Sum(nil)); got != goldenDigest {
		t.Fatalf("verifier output digest %s, want %s", got, goldenDigest)
	}
}
