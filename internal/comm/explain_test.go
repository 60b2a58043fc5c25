package comm

import (
	"strings"
	"testing"
)

// ExplainNode must unfold Eqs. 14–15 at a placement point: name the
// equation, the consumers demanding the item, and the availability gap
// that forced production there.
func TestExplainNode(t *testing.T) {
	a, err := analyzeSource(`
distributed x(1000)
real a(1000)
do i = 1, n
    ... = x(a(i))
enddo
`)
	if err != nil {
		t.Fatal(err)
	}
	var placed []string
	for pre := 1; pre <= len(a.Graph.Preorder); pre++ {
		s, err := a.ExplainNode(pre)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(s, "no communication") {
			placed = append(placed, s)
		}
	}
	if len(placed) == 0 {
		t.Fatal("no node explains a placement, but the program communicates")
	}
	all := strings.Join(placed, "")
	for _, want := range []string{"READ_Send", "READ_Recv", "Eq.14", "needed:", "missing:", "x(a(1:n))", " @ "} {
		if !strings.Contains(all, want) {
			t.Errorf("explanations missing %q:\n%s", want, all)
		}
	}
	if !strings.Contains(a.ExplainAll(), "READ_Send") {
		t.Error("ExplainAll dropped the placements")
	}
	if _, err := a.ExplainNode(0); err == nil {
		t.Error("node 0 should be out of range")
	}
	if _, err := a.ExplainNode(len(a.Graph.Preorder) + 1); err == nil {
		t.Error("past-the-end node should be out of range")
	}
}
