package givetake_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	gt "givetake"
	"givetake/internal/comm"
	"givetake/internal/frontend"
	"givetake/internal/progen"
)

// compileSource is a generated program of about stmts statements in the
// shape of bench/'s compile-large workload, as source text.
func compileSource(stmts int) string {
	return progen.GenerateSource(7, progen.Config{Stmts: stmts, MaxDepth: 3, Arrays: true})
}

// frontHalf parses src and builds its CFG and interval flow graph, and
// returns the graph's node count.
func frontHalf(tb testing.TB, src string) int {
	ctx := context.Background()
	prog, err := frontend.Parse(src)
	if err != nil {
		tb.Fatal(err)
	}
	a, err := comm.StageCFG(ctx, prog, nil)
	if err != nil {
		tb.Fatal(err)
	}
	if err := a.StageIntervals(ctx, nil); err != nil {
		tb.Fatal(err)
	}
	return len(a.Graph.Nodes)
}

// frontHalfBytesPerNode bounds the heap bytes that parsing, CFG
// construction and interval reduction allocate per interval node: 897
// at 1000 statements and 915 at 4000. The parser pulls tokens from the
// scanner instead of a token slice (a slice adds about 930 B/node), and
// the cfg and interval side tables are indexed by block ID and FromCFG
// carved from slabs instead of pointer-keyed maps and per-edge appends
// (those add about 340 B/node); reverting either crosses the bound.
const frontHalfBytesPerNode = 1000

// The front half allocates a bounded number of bytes per node, the same
// at 1000 and at 4000 statements.
func TestFrontHalfAllocs(t *testing.T) {
	for _, stmts := range []int{1000, 4000} {
		t.Run(fmt.Sprintf("stmts=%d", stmts), func(t *testing.T) {
			src := compileSource(stmts)
			nodes := frontHalf(t, src) // warm up
			const runs = 3
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				frontHalf(t, src)
			}
			runtime.ReadMemStats(&after)
			perNode := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(nodes)
			t.Logf("%d statements, %d nodes: %.0f B/node", stmts, nodes, perNode)
			if perNode > frontHalfBytesPerNode {
				t.Fatalf("front half allocates %.0f B/node, want at most %d", perNode, frontHalfBytesPerNode)
			}
		})
	}
}

// renderBytesPerNode and renderAllocsPerNode bound what
// AnnotatedSource(SplitComm) allocates per interval node. Before the
// per-render section table, the append-only printer and the single-pass
// annotator it took 595 B and 14.7 allocations per node at 1000
// statements and 614 B and 14.7 at 4000; now it takes 213 B and 2.0 at
// 1000 and 196 B and 1.7 at 4000. Printing through strings and Sprintf
// again (about +150 B and +6 allocations per node) or deriving a section
// expression per rendered production again (about +150 B and +3.5)
// crosses both bounds.
const (
	renderBytesPerNode  = 300
	renderAllocsPerNode = 4
)

// TestRenderAllocs measures AnnotatedSource alone: the analysis is built
// outside the measurement.
func TestRenderAllocs(t *testing.T) {
	for _, stmts := range []int{1000, 4000} {
		t.Run(fmt.Sprintf("stmts=%d", stmts), func(t *testing.T) {
			p, err := gt.Parse(compileSource(stmts))
			if err != nil {
				t.Fatal(err)
			}
			cg, err := gt.GenerateComm(p)
			if err != nil {
				t.Fatal(err)
			}
			nodes := len(cg.Graph.Nodes)
			cg.AnnotatedSource(gt.SplitComm) // warm up
			const runs = 3
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				cg.AnnotatedSource(gt.SplitComm)
			}
			runtime.ReadMemStats(&after)
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(nodes)
			allocs := float64(after.Mallocs-before.Mallocs) / runs / float64(nodes)
			t.Logf("%d statements, %d nodes: %.0f B/node, %.2f allocs/node", stmts, nodes, bytes, allocs)
			if bytes > renderBytesPerNode {
				t.Errorf("rendering allocates %.0f B/node, want at most %d", bytes, renderBytesPerNode)
			}
			if allocs > renderAllocsPerNode {
				t.Errorf("rendering makes %.2f allocs/node, want at most %d", allocs, renderAllocsPerNode)
			}
		})
	}
}
