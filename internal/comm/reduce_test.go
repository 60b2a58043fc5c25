package comm

import (
	"strings"
	"testing"

	"givetake/internal/interp"
)

// Reduction communication (paper §6): accumulations into distributed
// data skip the gather and emit a reducing write-back.

const scatterAddSrc = `
distributed x(4000)
real a(4000), w(4000)

do i = 1, n
    x(a(i)) = x(a(i)) + w(i)
enddo
do k = 1, n
    ... = x(k)
enddo
`

func TestReductionDetected(t *testing.T) {
	a, err := analyzeSource(scatterAddSrc)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for id, op := range a.Reduce {
		if op != "SUM" {
			t.Fatalf("item %d: reduce op %q, want SUM", id, op)
		}
		if got := a.Universe.Items[id].String(); got != "x(a(1:n))" {
			t.Fatalf("reduction item = %s, want x(a(1:n))", got)
		}
		found = true
	}
	if !found {
		t.Fatal("scatter-add not classified as a reduction")
	}
}

func TestReductionPlacement(t *testing.T) {
	a, err := analyzeSource(scatterAddSrc)
	if err != nil {
		t.Fatal(err)
	}
	text := a.AnnotatedSource(DefaultOptions)
	if strings.Contains(text, "READ_Send{x(a(1:n))}") {
		t.Fatalf("reduction should not gather its own item:\n%s", text)
	}
	if !strings.Contains(text, "WRITE_SUM_Send{x(a(1:n))}") ||
		!strings.Contains(text, "WRITE_SUM_Recv{x(a(1:n))}") {
		t.Fatalf("missing reducing write-back:\n%s", text)
	}
	// the accumulation loop contains no communication at all
	lines := strings.Split(text, "\n")
	inLoop := false
	for _, l := range lines {
		trim := strings.TrimSpace(l)
		if strings.HasPrefix(trim, "do i") {
			inLoop = true
		}
		if inLoop && strings.HasPrefix(trim, "enddo") {
			break
		}
		if inLoop && (strings.Contains(trim, "READ") || strings.Contains(trim, "WRITE")) {
			t.Fatalf("communication inside the accumulation loop:\n%s", text)
		}
	}
	// the later read of x(1:n) still happens (the reduction stole it)
	if !strings.Contains(text, "READ_Send{x(1:n)}") {
		t.Fatalf("re-read of reduced data missing:\n%s", text)
	}
}

func TestReductionProductDetected(t *testing.T) {
	a, err := analyzeSource(`
distributed x(100)
real w(100)

do i = 1, n
    x(5) = x(5) * w(i)
enddo
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Reduce) != 1 {
		t.Fatalf("reduce items = %d, want 1", len(a.Reduce))
	}
	for _, op := range a.Reduce {
		if op != "PROD" {
			t.Fatalf("op = %q, want PROD", op)
		}
	}
	if !strings.Contains(a.AnnotatedSource(DefaultOptions), "WRITE_PROD_Send{x(5)}") {
		t.Fatal("missing WRITE_PROD")
	}
}

// A plain read of the accumulated item elsewhere disqualifies the
// reduction: partial sums would be observed.
func TestReductionDisqualifiedByRead(t *testing.T) {
	a, err := analyzeSource(`
distributed x(100)
real a(100), w(100)

do i = 1, n
    x(a(i)) = x(a(i)) + w(i)
    t = x(a(i))
enddo
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Reduce) != 0 {
		t.Fatalf("item read outside its accumulation must not reduce: %v", a.Reduce)
	}
	// falls back to gather + plain write-back
	text := a.AnnotatedSource(DefaultOptions)
	if !strings.Contains(text, "READ_Send{x(a(1:n))}") {
		t.Fatalf("plain fallback should gather:\n%s", text)
	}
	if strings.Contains(text, "WRITE_SUM") {
		t.Fatalf("no reduction comm expected:\n%s", text)
	}
}

// Mixed operators on one item disqualify it too.
func TestReductionDisqualifiedByMixedOps(t *testing.T) {
	a, err := analyzeSource(`
distributed x(100)
real w(100)

x(5) = x(5) + w(1)
x(5) = x(5) * w(2)
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Reduce) != 0 {
		t.Fatalf("mixed-operator item must not reduce: %v", a.Reduce)
	}
}

// Subtraction is not commutative-associative in this form: no reduction.
func TestReductionIgnoresSubtraction(t *testing.T) {
	a, err := analyzeSource(`
distributed x(100)
real w(100)

do i = 1, n
    x(5) = x(5) - w(i)
enddo
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Reduce) != 0 {
		t.Fatalf("subtraction should not classify as reduction: %v", a.Reduce)
	}
}

func TestReductionDynamicBalance(t *testing.T) {
	a, err := analyzeSource(scatterAddSrc)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := interp.Run(a.Annotate(DefaultOptions), interp.Config{N: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s, r := tr.UnmatchedSplit(); s != 0 || r != 0 {
		t.Fatalf("unbalanced: sends=%d recvs=%d", s, r)
	}
	// one reducing write + one read, not 2N element messages
	if tr.Messages() != 2 {
		t.Fatalf("messages = %d, want 2", tr.Messages())
	}
}
