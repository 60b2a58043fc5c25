// Benchmarks regenerating the paper's evaluation artifacts (experiments
// E1–E9 of DESIGN.md / EXPERIMENTS.md). The paper has no numeric tables;
// its evaluation is the worked figures plus the O(E) complexity claim, so
// each benchmark both times the relevant pipeline stage and reports the
// figures' headline quantities as custom metrics.
package givetake_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	gt "givetake"
	"givetake/internal/bitset"
	"givetake/internal/cfg"
	"givetake/internal/check"
	"givetake/internal/comm"
	"givetake/internal/core"
	"givetake/internal/frontend"
	"givetake/internal/interval"
	"givetake/internal/machine"
	"givetake/internal/pre"
	"givetake/internal/progen"
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

const fig3Src = `
distributed x(1000)
real a(1000)

if test then
    do i = 1, n
        x(a(i)) = ...
    enddo
    do j = 1, n
        ... = x(j+5)
    enddo
endif
do k = 1, n
    ... = x(k+5)
enddo
`

const fig11Src = `
distributed x(1000), y(1000)
real a(1000), b(1000)

do i = 1, n
    y(a(i)) = ...
    if test(i) goto 77
enddo
do j = 1, n
    ... = ...
enddo
77 do k = 1, n
    ... = x(k+10) + y(b(k))
enddo
`

func mustParse(b *testing.B, src string) *gt.Program {
	b.Helper()
	p, err := gt.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkFig2ReadPlacement — experiment E1 (Figures 1 and 2): the READ
// problem on Figure 1's code. Reported metrics: dynamic message counts
// at N=100 for the naive per-element placement (= N) and GIVE-N-TAKE
// (= 1 vectorized message), and the send→recv distance hiding the
// latency behind the i-loop.
func BenchmarkFig2ReadPlacement(b *testing.B) {
	prog := mustParse(b, fig1Src)
	var cg *gt.CommGen
	var err error
	for i := 0; i < b.N; i++ {
		if cg, err = gt.GenerateComm(prog); err != nil {
			b.Fatal(err)
		}
	}
	cfgN := gt.ExecConfig{N: 100, Seed: 3}
	naive, _ := gt.Execute(gt.NaiveComm(prog, gt.AtomicComm), cfgN)
	split, _ := gt.Execute(cg.Annotate(gt.SplitComm), cfgN)
	_, dist, _ := split.OverlapStats()
	b.ReportMetric(float64(naive.Messages()), "naive-msgs")
	b.ReportMetric(float64(split.Messages()), "gnt-msgs")
	b.ReportMetric(float64(dist), "overlap-steps")
}

// BenchmarkFig3WritePlacement — experiment E2 (Figure 3): WRITE placement
// with relaxed owner-computes; metrics are the write-back and re-read
// message counts at N=100 (vectorized: 3 total — one write, two reads on
// the taken path).
func BenchmarkFig3WritePlacement(b *testing.B) {
	prog := mustParse(b, fig3Src)
	var cg *gt.CommGen
	var err error
	for i := 0; i < b.N; i++ {
		if cg, err = gt.GenerateComm(prog); err != nil {
			b.Fatal(err)
		}
	}
	cfgN := gt.ExecConfig{N: 100, Seed: 1, Scalars: map[string]int64{"test": 1}}
	naive, _ := gt.Execute(gt.NaiveComm(prog, gt.AtomicComm), cfgN)
	split, _ := gt.Execute(cg.Annotate(gt.SplitComm), cfgN)
	b.ReportMetric(float64(naive.Messages()), "naive-msgs")
	b.ReportMetric(float64(split.Messages()), "gnt-msgs")
}

// BenchmarkFig12Solve — experiment E3 (Figures 11/12/14): the solver on
// the paper's worked 14-node interval flow graph (the golden §4 values
// are asserted by internal/core's tests; here the full READ+WRITE
// pipeline is timed).
func BenchmarkFig12Solve(b *testing.B) {
	prog := mustParse(b, fig11Src)
	g, err := gt.BuildGraph(prog)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(len(g.Nodes)), "nodes")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gt.GenerateComm(prog); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCriteriaScenarios — experiment E4 (Figures 4–10): solve and
// path-verify the seven criteria scenarios; the benchmark fails if any
// correctness criterion is violated.
func BenchmarkCriteriaScenarios(b *testing.B) {
	srcs := []string{
		"if c then\n s = x(1)\nendif\nr = 2",                          // Fig 5: safety
		"if c then\n a = 1\nelse\n b = 2\nendif\ns = x(1)",            // Fig 6: sufficiency
		"s = x(1)\nt = x(2)\nr = x(3)",                                // Fig 7: no re-production
		"if c then\n s = x(1)\nelse\n t = x(2)\nendif\nr = x(3)",      // Fig 8: few producers
		"a = 1\nb = 2\ns = x(1)",                                      // Figs 9/10: early/late
		"if c then\n a = 1\n s = x(1)\nelse\n b = 2\nendif\nr = x(2)", // Fig 4: balance
		"a = 1\ndo i = 1, n\n s = x(i)\nenddo",                        // zero-trip hoist
	}
	type inst struct {
		g    *interval.Graph
		init *core.Init
	}
	var instances []inst
	for _, src := range srcs {
		prog, err := frontend.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		c, err := cfg.Build(prog)
		if err != nil {
			b.Fatal(err)
		}
		g, err := interval.FromCFG(c)
		if err != nil {
			b.Fatal(err)
		}
		init := core.NewInit(len(g.Nodes))
		for _, n := range g.Nodes {
			if n.Block.Kind == cfg.KStmt && len(n.Block.String()) > 0 {
				// every x(...) reference in the scenario consumes item 0
				if containsX(n.Block.String()) {
					init.AddTake(n, 1, bitset.Of(1, 0))
				}
			}
		}
		instances = append(instances, inst{g, init})
	}
	violations := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, in := range instances {
			s := core.MustSolve(in.g, 1, in.init)
			violations += len(core.Verify(s, in.init, core.VerifyConfig{CheckSafety: true}))
		}
	}
	if violations != 0 {
		b.Fatalf("criteria violations: %d", violations)
	}
	b.ReportMetric(0, "violations")
}

func containsX(s string) bool {
	for i := 0; i+1 < len(s); i++ {
		if s[i] == 'x' && s[i+1] == '(' {
			return true
		}
	}
	return false
}

// BenchmarkFig16AfterJump — experiment E5 (Figure 16 / §5.3): an AFTER
// problem on a program with a jump out of a loop; the reversed graph has
// a jump into the loop and the no-hoist guard must keep the placement
// balanced and sufficient.
func BenchmarkFig16AfterJump(b *testing.B) {
	prog := mustParse(b, `
do i = 1, n
    x(i) = 5
    if test(i) goto 9
enddo
9 b = 2
`)
	c, err := cfg.Build(prog)
	if err != nil {
		b.Fatal(err)
	}
	g, err := interval.FromCFG(c)
	if err != nil {
		b.Fatal(err)
	}
	init := core.NewInit(len(g.Nodes))
	for _, n := range g.Nodes {
		if n.Block.Kind == cfg.KStmt && containsX(n.Block.String()) {
			init.AddTake(n, 1, bitset.Of(1, 0))
		}
	}
	bad := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rev, err := interval.Reverse(g)
		if err != nil {
			b.Fatal(err)
		}
		s := core.MustSolve(rev, 1, init)
		for _, v := range core.Verify(s, init, core.VerifyConfig{}) {
			if v.Criterion != "O1" {
				bad++
			}
		}
	}
	if bad != 0 {
		b.Fatalf("correctness violations: %d", bad)
	}
	b.ReportMetric(0, "violations")
}

// BenchmarkScaling — experiment E6 (§5.2): solver work is linear in
// program size. Sub-benchmarks solve generated programs of growing size;
// ns/op divided by the node metric should stay roughly constant, and
// eq-evals/node is exactly 20 by construction.
func BenchmarkScaling(b *testing.B) {
	for _, stmts := range []int{100, 400, 1600, 6400} {
		b.Run(fmt.Sprintf("stmts=%d", stmts), func(b *testing.B) {
			prog := progen.Generate(42, progen.Config{Stmts: stmts, MaxDepth: 4})
			c, err := cfg.Build(prog)
			if err != nil {
				b.Fatal(err)
			}
			g, err := interval.FromCFG(c)
			if err != nil {
				b.Fatal(err)
			}
			const universe = 64
			init := core.NewInit(len(g.Nodes))
			for i, n := range g.Nodes {
				if n.Block.Kind == cfg.KStmt {
					init.AddTake(n, universe, bitset.Of(universe, i%universe))
					if i%7 == 0 {
						init.AddSteal(n, universe, bitset.Of(universe, (i+3)%universe))
					}
				}
			}
			var evals int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := core.MustSolve(g, universe, init)
				evals = s.EquationEvals
			}
			b.ReportMetric(float64(len(g.Nodes)), "nodes")
			b.ReportMetric(float64(evals)/float64(len(g.Nodes)), "eq-evals/node")
		})
	}
}

// BenchmarkIntervalScaling — experiment E6c: the front half that
// BenchmarkScaling leaves out of its timer. Each iteration builds the
// interval flow graph of a generated program (interval.FromCFG) and its
// reversed view (interval.Reverse); ns/node should stay roughly constant
// as programs grow.
func BenchmarkIntervalScaling(b *testing.B) {
	for _, stmts := range []int{1000, 2000, 4000, 8000} {
		b.Run(fmt.Sprintf("stmts=%d", stmts), func(b *testing.B) {
			prog := progen.Generate(42, progen.Config{Stmts: stmts, MaxDepth: 3, Arrays: true})
			c, err := cfg.Build(prog)
			if err != nil {
				b.Fatal(err)
			}
			var nodes int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g, err := interval.FromCFG(c)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := interval.Reverse(g); err != nil {
					b.Fatal(err)
				}
				nodes = len(g.Nodes)
			}
			b.ReportMetric(float64(nodes), "nodes")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(nodes*b.N), "ns/node")
		})
	}
}

// BenchmarkPREComparison — experiment E7 (§1): classical PRE as a
// GIVE-N-TAKE instance versus Morel–Renvoise and Lazy Code Motion over a
// corpus of generated programs. Metrics: total weighted insertion cost
// (Σ 10^loopdepth) per analysis — lower is better; GNT wins on the
// zero-trip hoisting cases — and the fixpoint sweep counts of the
// iterative baselines versus the single-pass solver.
func BenchmarkPREComparison(b *testing.B) {
	var problems []*pre.Problem
	for seed := int64(0); seed < 20; seed++ {
		prog := progen.Generate(seed, progen.Config{Stmts: 40, MaxDepth: 3, Exprs: true})
		g, err := cfg.Build(prog)
		if err != nil {
			b.Fatal(err)
		}
		p, _ := pre.BuildProblem(g)
		problems = append(problems, p)
	}
	var wLCM, wMR, wGNT float64
	var itersLCM, itersMR int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wLCM, wMR, wGNT, itersLCM, itersMR = 0, 0, 0, 0, 0
		for _, p := range problems {
			lcm := p.LazyCodeMotion()
			mr := p.MorelRenvoise()
			gnt, _, err := p.GiveNTake()
			if err != nil {
				b.Fatal(err)
			}
			wLCM += weightedComputations(p, lcm)
			wMR += weightedComputations(p, mr)
			wGNT += weightedComputations(p, gnt)
			itersLCM += lcm.Iterations
			itersMR += mr.Iterations
		}
	}
	b.ReportMetric(wLCM, "lcm-weighted")
	b.ReportMetric(wMR, "mr-weighted")
	b.ReportMetric(wGNT, "gnt-weighted")
	b.ReportMetric(float64(itersLCM), "lcm-sweeps")
	b.ReportMetric(float64(itersMR), "mr-sweeps")
}

// weightedComputations scores where the transformed program evaluates
// expressions: Σ over effective computation points of 10^loopdepth.
func weightedComputations(p *pre.Problem, pl *pre.Placement) float64 {
	depth := pre.LoopDepths(p.G)
	total := 0.0
	for id, set := range p.Computations(pl) {
		w := 1.0
		for i := 0; i < depth[id]; i++ {
			w *= 10
		}
		total += float64(set.Count()) * w
	}
	return total
}

// BenchmarkSideEffectSavings — experiment E8 (§3.1): local definitions
// produce "for free" (GIVE_init); the same program solved with the side
// effects ignored needs strictly more communication.
func BenchmarkSideEffectSavings(b *testing.B) {
	prog := mustParse(b, `
distributed x(1000)
real a(1000)

do i = 1, n
    x(i) = a(i)
enddo
do k = 1, n
    ... = x(k)
enddo
`)
	var withGive, withoutGive int
	for i := 0; i < b.N; i++ {
		cg, err := comm.Analyze(context.Background(), prog, nil, comm.Opts{})
		if err != nil {
			b.Fatal(err)
		}
		count := func(s *core.Solution) int {
			n := 0
			for _, set := range s.Lazy.ResIn {
				n += set.Count()
			}
			for _, set := range s.Lazy.ResOut {
				n += set.Count()
			}
			return n
		}
		withGive = count(cg.Read)
		// ablation: drop the free production and re-solve
		blind := core.NewInit(len(cg.Graph.Nodes))
		blind.Take = cg.ReadInit.Take
		blind.Steal = cg.ReadInit.Steal
		withoutGive = count(core.MustSolve(cg.Graph, cg.Universe.Size(), blind))
	}
	b.ReportMetric(float64(withGive), "reads-with-give")
	b.ReportMetric(float64(withoutGive), "reads-without-give")
	if withGive >= withoutGive {
		b.Fatalf("side effects saved nothing: %d vs %d", withGive, withoutGive)
	}
}

// BenchmarkMachineModel — experiment E9 (§2): end-to-end machine-model
// costs for the three placements on a stencil-plus-gather workload.
// Shape to reproduce: naive ≫ atomic > split on the high-latency model,
// and the ordering persists (smaller) on the low-latency model.
func BenchmarkMachineModel(b *testing.B) {
	prog := mustParse(b, `
distributed x(4000), y(4000)
real a(4000), w(4000)

do t = 1, 4
    do k = 1, n
        w(k) = x(a(k)) + y(k+1)
    enddo
    do k = 1, n
        x(a(k)) = w(k)
    enddo
enddo
`)
	cg, err := gt.GenerateComm(prog)
	if err != nil {
		b.Fatal(err)
	}
	run := gt.ExecConfig{N: 512, Seed: 7}
	variants := map[string]*gt.Program{
		"naive":  gt.NaiveComm(prog, gt.AtomicComm),
		"atomic": cg.Annotate(gt.AtomicComm),
		"split":  cg.Annotate(gt.SplitComm),
	}
	totals := map[string]float64{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for name, p := range variants {
			tr, err := gt.Execute(p, run)
			if err != nil {
				b.Fatal(err)
			}
			totals[name] = machine.HighLatency.Cost(tr).Total
		}
	}
	for name, total := range totals {
		b.ReportMetric(total, name+"-total")
	}
	if !(totals["naive"] > totals["atomic"] && totals["atomic"] >= totals["split"]) {
		b.Fatalf("cost ordering broken: %v", totals)
	}
}

// BenchmarkPipelineScaling times the full pipeline — parse-free: CFG
// build, interval analysis, universe construction, both placement
// problems — over generated distributed-array programs, complementing
// BenchmarkScaling's solver-only numbers for the E6 linearity claim.
func BenchmarkPipelineScaling(b *testing.B) {
	for _, stmts := range []int{50, 200, 800} {
		b.Run(fmt.Sprintf("stmts=%d", stmts), func(b *testing.B) {
			prog := progen.Generate(9, progen.Config{Stmts: stmts, MaxDepth: 3, Arrays: true})
			var nodes int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a, err := comm.Analyze(context.Background(), prog, nil, comm.Opts{})
				if err != nil {
					b.Fatal(err)
				}
				nodes = len(a.Graph.Nodes)
			}
			b.ReportMetric(float64(nodes), "nodes")
		})
	}
}

// BenchmarkVerifyScaling — experiment E6b: the static verifier
// (internal/check) on the programs of BenchmarkPipelineScaling, both
// placement problems. The paper's O(E) bound covers the solver, not this
// context-sensitive fixed point; ns/node and allocs/node show how close
// to linear it stays, and iterations/node how often the LIFO worklist
// re-evaluates a context.
func BenchmarkVerifyScaling(b *testing.B) {
	for _, stmts := range []int{50, 200, 800} {
		b.Run(fmt.Sprintf("stmts=%d", stmts), func(b *testing.B) {
			prog := progen.Generate(9, progen.Config{Stmts: stmts, MaxDepth: 3, Arrays: true})
			a, err := comm.Analyze(context.Background(), prog, nil, comm.Opts{})
			if err != nil {
				b.Fatal(err)
			}
			probs := a.Problems()
			nodes := float64(len(a.Graph.Nodes))
			var res *check.Result
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res = check.VerifyAll(probs...)
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			iters := 0
			for _, s := range res.Stats {
				iters += s.Iterations
			}
			per := nodes * float64(b.N)
			b.ReportMetric(nodes, "nodes")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/per, "ns/node")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/per, "allocs/node")
			b.ReportMetric(float64(iters)/nodes, "iterations/node")
		})
	}
}

// BenchmarkShiftAblation — DESIGN.md's §5.4 ablation: how many
// productions sit on synthetic nodes (requiring new basic blocks at code
// generation) before and after the shifting post-pass, over a corpus of
// generated problems.
func BenchmarkShiftAblation(b *testing.B) {
	type inst struct {
		g    *interval.Graph
		init *core.Init
	}
	var instances []inst
	for seed := int64(0); seed < 30; seed++ {
		prog := progen.Generate(seed, progen.Config{Stmts: 30, MaxDepth: 3})
		c, err := cfg.Build(prog)
		if err != nil {
			b.Fatal(err)
		}
		g, err := interval.FromCFG(c)
		if err != nil {
			b.Fatal(err)
		}
		const u = 3
		init := core.NewInit(len(g.Nodes))
		for i, n := range g.Nodes {
			if n.Block.Kind == cfg.KStmt {
				switch i % 5 {
				case 0:
					init.AddTake(n, u, bitset.Of(u, i%u))
				case 1:
					init.AddSteal(n, u, bitset.Of(u, (i+1)%u))
				}
			}
		}
		instances = append(instances, inst{g, init})
	}
	var before, after int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		before, after = 0, 0
		for _, in := range instances {
			s := core.MustSolve(in.g, 3, in.init)
			before += s.SyntheticResidue(core.Eager) + s.SyntheticResidue(core.Lazy)
			s.ShiftOffSynthetic()
			after += s.SyntheticResidue(core.Eager) + s.SyntheticResidue(core.Lazy)
		}
	}
	b.ReportMetric(float64(before), "pad-productions-before")
	b.ReportMetric(float64(after), "pad-productions-after")
}

// BenchmarkCoalescing — message-count ablation for contiguous-section
// coalescing on a strip-mined sweep.
func BenchmarkCoalescing(b *testing.B) {
	prog := mustParse(b, `
distributed x(100)
real w(100)

do i = 1, 20
    w(i) = x(i)
enddo
do i = 21, 40
    w(i) = x(i)
enddo
do i = 41, 60
    w(i) = x(i)
enddo
`)
	cg, err := gt.GenerateComm(prog)
	if err != nil {
		b.Fatal(err)
	}
	var plain, merged int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trPlain, err := gt.Execute(cg.Annotate(gt.CommOptions{Reads: true, Split: true}), gt.ExecConfig{N: 60})
		if err != nil {
			b.Fatal(err)
		}
		trMerged, err := gt.Execute(cg.Annotate(gt.CommOptions{Reads: true, Split: true, Coalesce: true}), gt.ExecConfig{N: 60})
		if err != nil {
			b.Fatal(err)
		}
		plain, merged = trPlain.Messages(), trMerged.Messages()
	}
	b.ReportMetric(float64(plain), "msgs-plain")
	b.ReportMetric(float64(merged), "msgs-coalesced")
	if merged >= plain {
		b.Fatalf("coalescing saved nothing: %d vs %d", merged, plain)
	}
}
