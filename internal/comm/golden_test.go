package comm

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"givetake/internal/memopt"
	"givetake/internal/progen"
)

// annotatedDigest is the SHA-256 of every annotated source hashed by
// TestAnnotatedGoldenIdentity. How the annotator and the printer build
// their output is free to change; the bytes they produce are not.
const annotatedDigest = "a078402338c0002eb7c1e860b88b3cc8e33059a6ebbaa895885efc052cbb0264"

// goldenOptions are the option sets TestAnnotatedGoldenIdentity renders
// every program with.
var goldenOptions = []struct {
	name string
	opt  Options
}{
	{"split", DefaultOptions},
	{"atomic", Options{Reads: true, Writes: true}},
	{"reads-split", Options{Reads: true, Split: true}},
	{"coalesce", Options{Reads: true, Writes: true, Split: true, Coalesce: true}},
}

// TestAnnotatedGoldenIdentity pins the annotated source of the testdata
// corpus and of generated programs of 20 to 4000 statements under four
// option sets, and memopt's prefetch annotation of the corpus. The
// generated programs include the compile-large shape (seed 7, depth 3)
// and programs with jumps out of loops, whose anchors and pads the
// annotator must materialize.
func TestAnnotatedGoldenIdentity(t *testing.T) {
	var files []string
	for _, pat := range []string{"../../testdata/*.f", "../../testdata/kernels/*.f"} {
		m, err := filepath.Glob(pat)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	if len(files) == 0 {
		t.Fatal("no corpus files")
	}
	type program struct{ label, src string }
	var corpus, progs []program
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("read %s: %v", file, err)
		}
		corpus = append(corpus, program{filepath.Base(file), string(src)})
	}
	progs = append(progs, corpus...)
	for i := 0; i < 16; i++ {
		stmts := 20 + 380*i/15
		cfg := progen.Config{Stmts: stmts, Arrays: true}
		if i%2 == 1 {
			cfg.PGoto = 0.2
		}
		progs = append(progs, program{fmt.Sprintf("progen%d/%d", stmts, i), progen.GenerateSource(int64(26000+i), cfg)})
	}
	for _, stmts := range []int{1000, 2500, 4000} {
		src := progen.GenerateSource(7, progen.Config{Stmts: stmts, MaxDepth: 3, Arrays: true})
		progs = append(progs, program{fmt.Sprintf("seed7/%d", stmts), src})
	}
	for _, seed := range []int64{8, 9} {
		src := progen.GenerateSource(seed, progen.Config{Stmts: 2000, MaxDepth: 3, Arrays: true, PGoto: 0.2})
		progs = append(progs, program{fmt.Sprintf("goto%d/2000", seed), src})
	}

	sum := sha256.New()
	failed := 0
	for _, p := range progs {
		a, err := analyzeSource(p.src)
		if err != nil {
			failed++
			fmt.Fprintf(sum, "%s error %v\n", p.label, err)
			continue
		}
		for _, o := range goldenOptions {
			out := a.AnnotatedSource(o.opt)
			fmt.Fprintf(sum, "%s %s %d\n%s", p.label, o.name, len(out), out)
		}
	}
	for _, p := range corpus {
		a, err := memopt.AnalyzeSource(p.src)
		if err != nil {
			fmt.Fprintf(sum, "%s memopt error %v\n", p.label, err)
			continue
		}
		out := a.AnnotatedSource()
		fmt.Fprintf(sum, "%s memopt %d\n%s", p.label, len(out), out)
	}
	t.Logf("hashed %d programs (%d failed analysis), %d corpus files with memopt", len(progs), failed, len(corpus))
	if got := hex.EncodeToString(sum.Sum(nil)); got != annotatedDigest {
		t.Fatalf("annotated source digest %s, want %s", got, annotatedDigest)
	}
}
