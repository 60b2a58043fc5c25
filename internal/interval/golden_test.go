package interval_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"testing"

	"givetake/internal/cfg"
	"givetake/internal/frontend"
	"givetake/internal/interval"
	"givetake/internal/ir"
	"givetake/internal/progen"
)

// intervalDigest is the SHA-256 of every graph hashed by
// TestIntervalGoldenIdentity, recorded before dominance queries were
// rewritten. Any change to an edge type, the preorder, the loop forest
// or the reversed view changes it; a deliberate change of interval
// construction must say so and re-record it.
const intervalDigest = "92b2cb8e637313e524faad7464d6e08731b48b46d8e3911f5f6e22f0a240106d"

// nodeID names a node in the digest; ROOT is -1 and nil is -2.
func nodeID(n *interval.Node) int {
	if n == nil {
		return -2
	}
	return n.ID
}

// hashGraph appends the rendering of g and the loop-forest fields of
// every node that String does not show to h.
func hashGraph(h hash.Hash, label string, g *interval.Graph) {
	s := g.String()
	fmt.Fprintf(h, "%s %d\n%s", label, len(s), s)
	for _, n := range g.Nodes {
		fmt.Fprintf(h, "%d p%d l%d h%t lc%d eh%d nh%t\n", n.ID, nodeID(n.Parent), n.Level,
			n.IsHeader, nodeID(n.LastChild), nodeID(n.EntryHeader), n.NoHoist)
	}
}

func hashIntervals(t *testing.T, h hash.Hash, label string, prog *ir.Program) int {
	t.Helper()
	c, err := cfg.Build(prog)
	if err != nil {
		t.Fatalf("%s: cfg: %v", label, err)
	}
	g, err := interval.FromCFG(c)
	if err != nil {
		t.Fatalf("%s: interval: %v", label, err)
	}
	r, err := interval.Reverse(g)
	if err != nil {
		t.Fatalf("%s: reverse: %v", label, err)
	}
	hashGraph(h, label, g)
	hashGraph(h, label+"/reverse", r)
	return len(g.Nodes)
}

// TestIntervalGoldenIdentity pins the forward and reversed interval
// flow graphs of the testdata corpus and of generated programs from 20
// to 4000 statements. How FromCFG answers its dominance and nesting
// queries is free to change; the graphs it builds are not.
func TestIntervalGoldenIdentity(t *testing.T) {
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
	h := sha256.New()
	nodes := 0
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("read %s: %v", file, err)
		}
		prog, err := frontend.Parse(string(src))
		if err != nil {
			t.Fatalf("parse %s: %v", file, err)
		}
		nodes += hashIntervals(t, h, filepath.Base(file), prog)
	}
	for i, stmts := range []int{20, 35, 50, 100, 250, 500, 1000, 2000, 4000} {
		for seed := int64(0); seed < 3; seed++ {
			prog := progen.Generate(int64(i)*100+seed, progen.Config{Stmts: stmts, MaxDepth: 3, Arrays: true})
			nodes += hashIntervals(t, h, fmt.Sprintf("progen%d/%d", stmts, seed), prog)
		}
	}
	for seed := int64(0); seed < 20; seed++ {
		prog := progen.Generate(seed, progen.Config{Stmts: 60, MaxDepth: 5, PGoto: 0.3})
		nodes += hashIntervals(t, h, fmt.Sprintf("gotos%d", seed), prog)
	}
	t.Logf("hashed %d nodes", nodes)

	if got := hex.EncodeToString(h.Sum(nil)); got != intervalDigest {
		t.Fatalf("interval graph digest %s, want %s", got, intervalDigest)
	}
}
