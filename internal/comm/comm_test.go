package comm

import (
	"context"
	"strings"
	"testing"

	"givetake/internal/core"
	"givetake/internal/frontend"
	"givetake/internal/interp"
)

// analyzeSource parses and analyzes program text with no collector and
// the default options.
func analyzeSource(src string) (*Analysis, error) {
	prog, err := frontend.Parse(src)
	if err != nil {
		return nil, err
	}
	return Analyze(context.Background(), prog, nil, Opts{})
}

// The paper's three worked communication codes, used as golden tests.

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

// lines returns the trimmed non-empty lines of the annotated program.
func annotatedLines(t *testing.T, src string, opt Options) []string {
	t.Helper()
	a, err := analyzeSource(src)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, l := range strings.Split(a.AnnotatedSource(opt), "\n") {
		if s := strings.TrimSpace(l); s != "" {
			out = append(out, s)
		}
	}
	return out
}

func indexOf(lines []string, substr string) int {
	for i, l := range lines {
		if strings.Contains(l, substr) {
			return i
		}
	}
	return -1
}

func countOf(lines []string, substr string) int {
	n := 0
	for _, l := range lines {
		if strings.Contains(l, substr) {
			n++
		}
	}
	return n
}

// TestFig2Placement reproduces the right-hand side of Figure 2: exactly
// one vectorized READ_Send, hoisted above the i-loop (latency hiding),
// and one READ_Recv per branch, immediately before the consuming loops.
func TestFig2Placement(t *testing.T) {
	lines := annotatedLines(t, fig1Src, DefaultOptions)

	if got := countOf(lines, "READ_Send"); got != 1 {
		t.Fatalf("READ_Send count = %d, want 1 (vectorized):\n%s", got, strings.Join(lines, "\n"))
	}
	if got := countOf(lines, "READ_Recv"); got != 2 {
		t.Fatalf("READ_Recv count = %d, want 2 (one per branch):\n%s", got, strings.Join(lines, "\n"))
	}
	if got := countOf(lines, "WRITE"); got != 0 {
		t.Fatalf("no distributed definitions, so no WRITEs; got %d", got)
	}
	send := indexOf(lines, "READ_Send{x(a(1:n))}")
	if send < 0 {
		t.Fatalf("missing vectorized send of x(a(1:n)):\n%s", strings.Join(lines, "\n"))
	}
	// the send precedes the i-loop: the i-loop hides its latency
	if iloop := indexOf(lines, "do i = 1, n"); send > iloop {
		t.Fatalf("send at line %d not hoisted above i-loop at %d", send, iloop)
	}
	// each recv sits after the branch opens and before the consuming loop
	kloop := indexOf(lines, "do k = 1, n")
	lloop := indexOf(lines, "do l = 1, n")
	recv1 := indexOf(lines, "READ_Recv")
	if !(recv1 < kloop && recv1 > indexOf(lines, "if (test) then")) {
		t.Fatalf("first recv at %d not between branch and k-loop (%d):\n%s", recv1, kloop, strings.Join(lines, "\n"))
	}
	if recv2 := recv1 + 1 + indexOf(lines[recv1+1:], "READ_Recv"); !(recv2 > indexOf(lines, "else") && recv2 < lloop) {
		t.Fatalf("second recv at %d not on else branch before l-loop (%d)", recv2, lloop)
	}
}

// TestFig2Atomic: unsplit placement gives a single READ per branch at the
// lazy point — the classical PRE-style result.
func TestFig2Atomic(t *testing.T) {
	lines := annotatedLines(t, fig1Src, Options{Reads: true, Writes: true})
	if got := countOf(lines, "READ{"); got != 2 {
		t.Fatalf("atomic READ count = %d, want 2:\n%s", got, strings.Join(lines, "\n"))
	}
	if got := countOf(lines, "READ_Send"); got != 0 {
		t.Fatalf("atomic mode must not emit split halves")
	}
}

// TestFig3Placement reproduces Figure 3's right-hand side: the write-back
// of x(a(1:N)) after the defining loop, completion pinned before the
// re-fetching READ region, and the READ duplicated onto the synthetic
// else branch so the k-loop's consumer is covered on both paths.
func TestFig3Placement(t *testing.T) {
	lines := annotatedLines(t, fig3Src, DefaultOptions)
	text := strings.Join(lines, "\n")

	wsend := indexOf(lines, "WRITE_Send{x(a(1:n))}")
	wrecv := indexOf(lines, "WRITE_Recv{x(a(1:n))}")
	if wsend < 0 || wrecv < 0 {
		t.Fatalf("missing write-back:\n%s", text)
	}
	// write-back happens after the defining i-loop, inside the then branch
	if enddoI := indexOf(lines, "enddo"); wsend < enddoI {
		t.Fatalf("WRITE_Send before the defining loop ends:\n%s", text)
	}
	jloop := indexOf(lines, "do j = 1, n")
	if !(wsend < jloop && wrecv < jloop) {
		t.Fatalf("write-back not completed before the re-reading j-loop:\n%s", text)
	}
	// reads: both branches need x(6:n+5); then-branch read re-fetches
	// after the defs, else branch is the synthetic pad of Figure 3
	if got := countOf(lines, "READ_Send{x(6:n + 5)}"); got != 2 {
		t.Fatalf("READ_Send count = %d, want 2 (then + synthetic else):\n%s", got, text)
	}
	if got := countOf(lines, "READ_Recv{x(6:n + 5)}"); got != 2 {
		t.Fatalf("READ_Recv count = %d, want 2:\n%s", got, text)
	}
	els := indexOf(lines, "else")
	if els < 0 {
		t.Fatalf("synthetic else branch not materialized:\n%s", text)
	}
	endif := indexOf(lines, "endif")
	foundInElse := false
	for i := els; i < endif; i++ {
		if strings.Contains(lines[i], "READ_Send") {
			foundInElse = true
		}
	}
	if !foundInElse {
		t.Fatalf("no READ on the synthetic else branch:\n%s", text)
	}
	// x(j+5) and x(k+5) are one value-numbered item: no third read
	if got := countOf(lines, "READ_Send"); got != 2 {
		t.Fatalf("extra reads emitted: %d:\n%s", got, text)
	}
}

// TestFig14Placement reproduces the READ side of Figure 14 exactly: the
// send of x(11:N+10) at the very top, the send of y(b(1:N)) on both
// loop-exit paths (inside the branch before the goto, and before the
// j-loop), and one combined receive at label 77.
func TestFig14Placement(t *testing.T) {
	lines := annotatedLines(t, fig11Src, DefaultOptions)
	text := strings.Join(lines, "\n")

	if lines[0] != "distributed x(1000)" {
		t.Fatalf("unexpected first line %q", lines[0])
	}
	xsend := indexOf(lines, "READ_Send{x(11:n + 10)}")
	iloop := indexOf(lines, "do i = 1, n")
	if xsend < 0 || xsend > iloop {
		t.Fatalf("x send not hoisted to the top:\n%s", text)
	}
	if got := countOf(lines, "READ_Send{y(b(1:n))}"); got != 2 {
		t.Fatalf("y(b) sends = %d, want 2 (goto path + fallthrough path):\n%s", got, text)
	}
	// one inside the branch, before the goto
	gotoLine := indexOf(lines, "goto 77")
	ysendInBranch := indexOf(lines, "READ_Send{y(b(1:n))}")
	if !(ysendInBranch < gotoLine && ysendInBranch > indexOf(lines, "if (test(i)) then")) {
		t.Fatalf("first y(b) send not inside the branch before goto:\n%s", text)
	}
	// the combined receive carries label 77 (label transfer, §5.4)
	recv := indexOf(lines, "77 READ_Recv{x(11:n + 10), y(b(1:n))}")
	if recv < 0 {
		t.Fatalf("missing labeled combined receive:\n%s", text)
	}
	if kloop := indexOf(lines, "do k = 1, n"); recv > kloop {
		t.Fatalf("receive after the consuming loop:\n%s", text)
	}
	// writes of y(a(1:n)) exist (non-owner-computes definitions). With
	// the §5.3 guard they stay inside the jump-containing loop — the
	// paper's own conservative treatment (its Figure 14 draws the ideal
	// sunk placement that §6 lists as future work).
	if got := countOf(lines, "WRITE_Send{y(a(1:n))}"); got < 1 {
		t.Fatalf("missing write-back of y(a(1:n)):\n%s", text)
	}
}

// TestRoundTripParse: annotated programs are valid mini-Fortran modulo
// the READ/WRITE statements, which the printer renders unambiguously.
func TestAnnotationDeterministic(t *testing.T) {
	a1, err := analyzeSource(fig11Src)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := analyzeSource(fig11Src)
	if err != nil {
		t.Fatal(err)
	}
	if a1.AnnotatedSource(DefaultOptions) != a2.AnnotatedSource(DefaultOptions) {
		t.Fatal("annotation is not deterministic")
	}
}

// TestReadSolutionVerifies: the READ placements satisfy the correctness
// criteria on the paper figures.
func TestReadSolutionVerifies(t *testing.T) {
	for name, src := range map[string]string{"fig1": fig1Src, "fig3": fig3Src, "fig11": fig11Src} {
		a, err := analyzeSource(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if vs := core.Verify(a.Read, a.ReadInit, core.VerifyConfig{CheckSafety: true}); len(vs) > 0 {
			t.Errorf("%s READ: %v", name, vs[0])
		}
		for _, v := range core.Verify(a.Write, a.WriteInit, core.VerifyConfig{}) {
			if v.Criterion != "O1" {
				t.Errorf("%s WRITE: %v", name, v)
			}
		}
	}
}

// TestUniverseContents checks the value-numbered universes of the figures.
func TestUniverseContents(t *testing.T) {
	a, err := analyzeSource(fig1Src)
	if err != nil {
		t.Fatal(err)
	}
	if a.Universe.Size() != 1 {
		t.Fatalf("fig1 universe = %d items (%s), want 1", a.Universe.Size(), a.Universe.Describe())
	}
	a, err = analyzeSource(fig11Src)
	if err != nil {
		t.Fatal(err)
	}
	// x(11:n+10), y(a(1:n)), y(b(1:n))
	if a.Universe.Size() != 3 {
		t.Fatalf("fig11 universe = %d items (%s), want 3", a.Universe.Size(), a.Universe.Describe())
	}
	a, err = analyzeSource(fig3Src)
	if err != nil {
		t.Fatal(err)
	}
	// x(a(1:n)) and x(6:n+5) — the j and k references share one item
	if a.Universe.Size() != 2 {
		t.Fatalf("fig3 universe = %d items (%s), want 2", a.Universe.Size(), a.Universe.Describe())
	}
}

// TestRedBlackNoRefetch: red/black relaxation — writes to even elements
// do not steal reads of odd elements, because stride analysis proves the
// residue classes disjoint. One fetch of the odd section suffices for
// the whole sweep; no re-fetch after the even update.
func TestRedBlackNoRefetch(t *testing.T) {
	a, err := analyzeSource(`
distributed x(4000)
real w(4000)

do i = 1, n
    w(i) = x(2 * i + 1)
enddo
do i = 1, n
    x(2 * i) = w(i)
enddo
do i = 1, n
    w(i) = x(2 * i + 1)
enddo
`)
	if err != nil {
		t.Fatal(err)
	}
	lines := annotatedLines(t, `
distributed x(4000)
real w(4000)

do i = 1, n
    w(i) = x(2 * i + 1)
enddo
do i = 1, n
    x(2 * i) = w(i)
enddo
do i = 1, n
    w(i) = x(2 * i + 1)
enddo
`, Options{Reads: true, Split: true})
	if got := countOf(lines, "READ_Send{x(3:2 * n + 1:2)}"); got != 1 {
		t.Fatalf("odd-section fetches = %d, want 1 (no re-fetch after even writes):\n%s",
			got, strings.Join(lines, "\n"))
	}
	_ = a
}

// TestOverlappingWriteForcesRefetch is the control: a dense write does
// steal the odd section, forcing a second fetch.
func TestOverlappingWriteForcesRefetch(t *testing.T) {
	lines := annotatedLines(t, `
distributed x(4000)
real w(4000)

do i = 1, n
    w(i) = x(2 * i + 1)
enddo
do i = 1, n
    x(i) = w(i)
enddo
do i = 1, n
    w(i) = x(2 * i + 1)
enddo
`, Options{Reads: true, Split: true})
	if got := countOf(lines, "READ_Send{x(3:2 * n + 1:2)}"); got != 2 {
		t.Fatalf("odd-section fetches = %d, want 2 (dense write invalidates):\n%s",
			got, strings.Join(lines, "\n"))
	}
}

// TestTwoDimensionalSections: a 2-D Jacobi-style sweep vectorizes to one
// two-dimensional section per shifted plane, with per-dimension overlap
// analysis (the row sections u(1:n, *) and the halo u(n+1, *) are
// handled as distinct items).
func TestTwoDimensionalSections(t *testing.T) {
	a, err := analyzeSource(`
distributed u(300, 300)
real v(300, 300)

do j = 1, n
    do i = 1, n
        v(i, j) = u(i + 1, j) + u(i, j + 1)
    enddo
enddo
`)
	if err != nil {
		t.Fatal(err)
	}
	if a.Universe.Size() != 2 {
		t.Fatalf("universe = %d items, want 2:\n%s", a.Universe.Size(), a.Universe.Describe())
	}
	lines := annotatedLines(t, `
distributed u(300, 300)
real v(300, 300)

do j = 1, n
    do i = 1, n
        v(i, j) = u(i + 1, j) + u(i, j + 1)
    enddo
enddo
`, Options{Reads: true, Split: true})
	if got := countOf(lines, "READ_Send{u(2:n + 1, 1:n), u(1:n, 2:n + 1)}"); got != 1 {
		t.Fatalf("2-D vectorized send missing:\n%s", strings.Join(lines, "\n"))
	}
	// hoisted above both loops
	if send, jloop := indexOf(lines, "READ_Send"), indexOf(lines, "do j"); send > jloop {
		t.Fatalf("send not hoisted above the nest:\n%s", strings.Join(lines, "\n"))
	}
}

// TestTwoDimensionalDisjointColumns: writes to column 1 do not steal
// reads of column 2 — per-dimension bounds prove disjointness.
func TestTwoDimensionalDisjointColumns(t *testing.T) {
	lines := annotatedLines(t, `
distributed u(300, 300)
real w(300)

do i = 1, n
    w(i) = u(i, 2)
enddo
do i = 1, n
    u(i, 1) = w(i)
enddo
do i = 1, n
    w(i) = u(i, 2)
enddo
`, Options{Reads: true, Split: true})
	if got := countOf(lines, "READ_Send{u(1:n, 2)}"); got != 1 {
		t.Fatalf("column-2 fetches = %d, want 1 (column-1 writes are disjoint):\n%s",
			got, strings.Join(lines, "\n"))
	}
}

// TestCoalescing: contiguous constant sections placed at one point merge
// into a single transfer.
func TestCoalescing(t *testing.T) {
	src := `
distributed x(100)
real w(20)

do i = 1, 5
    w(i) = x(i)
enddo
do i = 6, 10
    w(i) = x(i)
enddo
`
	plain := annotatedLines(t, src, Options{Reads: true, Split: true})
	if got := countOf(plain, "READ_Send{x(1:5), x(6:10)}"); got != 1 {
		t.Fatalf("without coalescing, two sections expected:\n%s", strings.Join(plain, "\n"))
	}
	co := annotatedLines(t, src, Options{Reads: true, Split: true, Coalesce: true})
	if got := countOf(co, "READ_Send{x(1:10)}"); got != 1 {
		t.Fatalf("coalesced section missing:\n%s", strings.Join(co, "\n"))
	}
	// dynamic: one message instead of two
	a, err := analyzeSource(src)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := interp.Run(a.Annotate(Options{Reads: true, Split: true, Coalesce: true}),
		interp.Config{N: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Messages() != 1 || tr.Volume() != 10 {
		t.Fatalf("coalesced trace: msgs=%d vol=%d, want 1/10", tr.Messages(), tr.Volume())
	}
}

// TestCoalescingKeepsDistinct: disjoint non-adjacent and symbolic
// sections stay separate.
func TestCoalescingKeepsDistinct(t *testing.T) {
	src := `
distributed x(100), y(100)
real w(20), a(100)

w(1) = x(1) + x(50) + y(a(1))
`
	co := annotatedLines(t, src, Options{Reads: true, Split: true, Coalesce: true})
	text := strings.Join(co, "\n")
	if !strings.Contains(text, "x(1)") || !strings.Contains(text, "x(50)") ||
		!strings.Contains(text, "y(a(1))") {
		t.Fatalf("distinct sections merged or lost:\n%s", text)
	}
}
