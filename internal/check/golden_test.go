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

// verdictDigest and statsDigest are the SHA-256 of every Verify result
// of TestGoldenIdentity, split in two: the verdict digest hashes the
// diagnostics with their witness paths, the Stats digest the verifier's
// work counters. Both hash the same inputs. They were recorded when the
// one combined digest (first recorded before the verifier's state
// representation was rewritten) was split, on code that still matched
// it. A change to how the verifier works but not to what it decides may
// move only statsDigest, and must say so when it re-records it; a
// change of verdict must say so and re-record verdictDigest.
const (
	verdictDigest = "bc10c88ea621ab8848a226aaf2e49bacf2647b0ab98c8a3fa873f0eec639e69a"
	statsDigest   = "f5d7ae68dcd1a54c5cf4b4acd58db1f036ef0987a3d460498d9fc9803d36b97f"
)

// goldenMutations is the number of seeded single-bit corruptions hashed
// per placement problem, on top of the clean solution.
const goldenMutations = 8

// goldenHash is the pair of digests TestGoldenIdentity accumulates.
type goldenHash struct{ verdict, stats hash.Hash }

// hashVerify appends one Verify result to h: its diagnostics with their
// witness paths to the verdict digest, its work Stats to the Stats
// digest, each under the same label.
func hashVerify(t *testing.T, h goldenHash, label string, p *check.Problem) int {
	t.Helper()
	res := check.Verify(p)
	for _, part := range []struct {
		h hash.Hash
		v any
	}{{h.verdict, res.Diagnostics}, {h.stats, res.Stats}} {
		b, err := json.Marshal(part.v)
		if err != nil {
			t.Fatalf("%s: marshal: %v", label, err)
		}
		fmt.Fprintf(part.h, "%s %d\n", label, len(b))
		part.h.Write(b)
	}
	return len(res.Diagnostics)
}

// hashProgram hashes the clean result of every placement problem of
// prog and its results under goldenMutations seeded RES flips, and
// returns the number of diagnostics hashed.
func hashProgram(t *testing.T, h goldenHash, label string, prog *ir.Program, seed int64) int {
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
// diagnostic and witness path in verdictDigest, every Stats counter in
// statsDigest — on the testdata corpus,
// 200 small and 6 medium generated programs, each clean and under
// seeded mutations, and the benchmark's rejected serving program. The
// state representation is free to change; what it computes is not.
func TestGoldenIdentity(t *testing.T) {
	h := goldenHash{verdict: sha256.New(), stats: sha256.New()}
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

	if got := hex.EncodeToString(h.verdict.Sum(nil)); got != verdictDigest {
		t.Errorf("verifier verdict digest %s, want %s", got, verdictDigest)
	}
	if got := hex.EncodeToString(h.stats.Sum(nil)); got != statsDigest {
		t.Errorf("verifier Stats digest %s, want %s", got, statsDigest)
	}
}

// lintGoldenDigest is the SHA-256 of every Lint result of
// TestLintGoldenIdentity, recorded from the linter before its passes
// moved from Set operations to slab words.
const lintGoldenDigest = "18fb6facd8fc271cc7d3c19cbd7a1a55df59a72e3310db2675b703e00aaee9e6"

// TestLintGoldenIdentity pins the linter's complete output — every
// warning, in order — on the testdata corpus and 200 small generated
// programs with jumps out of loops, each clean and under seeded
// mutations. TestGoldenIdentity hashes Verify results only.
func TestLintGoldenIdentity(t *testing.T) {
	h := sha256.New()
	warnings := 0
	hashLint := func(label string, prog *ir.Program, seed int64) {
		a, err := comm.Analyze(context.Background(), prog, nil, comm.Opts{})
		if err != nil {
			t.Fatalf("%s: analyze: %v", label, err)
		}
		for _, p := range a.Problems() {
			hash := func(label string) {
				diags := check.Lint(p)
				b, err := json.Marshal(diags)
				if err != nil {
					t.Fatalf("%s: marshal: %v", label, err)
				}
				fmt.Fprintf(h, "%s %d\n", label, len(b))
				h.Write(b)
				warnings += len(diags)
			}
			pl := label + "/" + p.Name
			hash(pl)
			r := rand.New(rand.NewSource(seed))
			for k := 0; k < goldenMutations; k++ {
				m, undo, ok := mutate.Apply(r, p.Sol, p.Universe)
				if !ok {
					break
				}
				hash(fmt.Sprintf("%s/%s", pl, m))
				undo()
			}
		}
	}
	for i, file := range corpusFiles(t) {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("read %s: %v", file, err)
		}
		prog, err := frontend.Parse(string(src))
		if err != nil {
			t.Fatalf("parse %s: %v", file, err)
		}
		hashLint(fmt.Sprintf("corpus%d", i), prog, int64(i))
	}
	for seed := int64(0); seed < 200; seed++ {
		prog := progen.Generate(seed, progen.Config{Stmts: 20 + int(seed%60), MaxDepth: 3, Arrays: true, PGoto: 0.2})
		hashLint(fmt.Sprintf("small%d", seed), prog, seed)
	}
	t.Logf("hashed %d warnings", warnings)
	if got := hex.EncodeToString(h.Sum(nil)); got != lintGoldenDigest {
		t.Fatalf("lint output digest %s, want %s", got, lintGoldenDigest)
	}
}
