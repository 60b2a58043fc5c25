package machine

import (
	"context"
	"testing"

	"givetake/internal/comm"
	"givetake/internal/frontend"
	"givetake/internal/interp"
	"givetake/internal/netsim"
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

// TestFig2MachineComparison is the dynamic version of Figure 2: naive
// placement issues N messages with no overlap; GIVE-N-TAKE issues one
// vectorized message whose latency the i-loop hides.
func TestFig2MachineComparison(t *testing.T) {
	prog, err := frontend.Parse(fig1Src)
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	cfg := interp.Config{N: n, Seed: 3}

	naiveTrace, err := interp.Run(comm.NaiveAnnotate(prog, comm.Options{Reads: true, Writes: true}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := comm.Analyze(context.Background(), prog, nil, comm.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	gntTrace, err := interp.Run(a.Annotate(comm.DefaultOptions), cfg)
	if err != nil {
		t.Fatal(err)
	}

	if naiveTrace.Messages() != n {
		t.Fatalf("naive messages = %d, want N = %d", naiveTrace.Messages(), n)
	}
	if gntTrace.Messages() != 1 {
		t.Fatalf("GIVE-N-TAKE messages = %d, want 1", gntTrace.Messages())
	}
	// balance holds dynamically
	if s, r := gntTrace.UnmatchedSplit(); s != 0 || r != 0 {
		t.Fatalf("unbalanced trace: %d sends, %d recvs unmatched", s, r)
	}
	// the i-loop hides latency: the send-to-recv distance spans it
	pairs, total, _ := gntTrace.OverlapStats()
	if pairs != 1 || total < int64(n) {
		t.Fatalf("overlap pairs=%d dist=%d, want distance spanning the i-loop (≥%d)", pairs, total, n)
	}

	// under the high-latency model the ordering is naive ≫ atomic ≫ split
	m := HighLatency
	naiveCost := m.Cost(naiveTrace)
	atomicTrace, err := interp.Run(a.Annotate(comm.Options{Reads: true, Writes: true}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	atomicCost := m.Cost(atomicTrace)
	splitCost := m.Cost(gntTrace)
	if !(naiveCost.Total > atomicCost.Total && atomicCost.Total > splitCost.Total) {
		t.Fatalf("cost ordering wrong:\n naive  %v\n atomic %v\n split  %v",
			naiveCost, atomicCost, splitCost)
	}
	// vectorization dominates: naive pays ~N startups, GNT pays 1
	if naiveCost.Wait < float64(n)*m.Latency {
		t.Fatalf("naive wait %.0f should include %d startups", naiveCost.Wait, n)
	}
	if splitCost.Wait >= m.Latency {
		t.Fatalf("split wait %.0f should hide most of one startup (α=%.0f)", splitCost.Wait, m.Latency)
	}
}

func TestCostModelBasics(t *testing.T) {
	tr := &interp.Trace{
		Steps: 100,
		Events: []interp.CommEvent{
			{Op: "READ", Half: "", Step: 10, Elems: 5, Args: "x(1:5)"},
		},
	}
	m := Model{Latency: 100, PerElem: 2, Work: 1}
	r := m.Cost(tr)
	if r.Compute != 100 {
		t.Fatalf("compute = %f", r.Compute)
	}
	if r.Wait != 100+5*2 {
		t.Fatalf("wait = %f, want 110 (fully exposed atomic)", r.Wait)
	}
	if r.Total != r.Compute+r.Wait {
		t.Fatal("total mismatch")
	}
}

func TestCostModelOverlap(t *testing.T) {
	mk := func(sendStep, recvStep int64) *interp.Trace {
		return &interp.Trace{
			Steps: 200,
			Events: []interp.CommEvent{
				{Op: "READ", Half: "Send", Step: sendStep, Elems: 10, Args: "x(1:10)"},
				{Op: "READ", Half: "Recv", Step: recvStep, Elems: 10, Args: "x(1:10)"},
			},
		}
	}
	m := Model{Latency: 100, PerElem: 1, Work: 1}
	transfer := 110.0

	// no distance: fully exposed
	if r := m.Cost(mk(50, 50)); r.Wait != transfer {
		t.Fatalf("zero-distance wait = %f, want %f", r.Wait, transfer)
	}
	// partial overlap
	if r := m.Cost(mk(50, 100)); r.Wait != transfer-50 {
		t.Fatalf("partial overlap wait = %f, want %f", r.Wait, transfer-50)
	}
	// full overlap
	if r := m.Cost(mk(50, 180)); r.Wait != 0 {
		t.Fatalf("full overlap wait = %f, want 0", r.Wait)
	}
}

func TestCostModelFaultCharges(t *testing.T) {
	m := Model{Latency: 100, PerElem: 1, Work: 1}

	// atomic with retries: full transfer + exposed stall, retransmitted
	// bandwidth charged separately
	atomic := &interp.Trace{Steps: 10, Events: []interp.CommEvent{
		{Op: "READ", Half: "", Step: 5, Elems: 10, Args: "x(1:10)",
			Retries: 2, Stall: 144},
	}}
	r := m.Cost(atomic)
	if r.Wait != 110+144 {
		t.Fatalf("atomic wait = %f, want transfer 110 + stall 144", r.Wait)
	}
	if r.Retrans != 2*110 {
		t.Fatalf("retrans = %f, want 2 retransmissions × 110", r.Retrans)
	}
	if r.Retries != 2 || r.Total != r.Compute+r.Wait+r.Retrans {
		t.Fatalf("result = %+v", r)
	}

	// split pair recovering inside its window: retries cost bandwidth
	// but the overlap hides the stall — wait is zero when the copy
	// arrived before the receive point
	split := &interp.Trace{Steps: 400, Events: []interp.CommEvent{
		{Op: "READ", Half: "Send", Step: 50, Elems: 10, Args: "x(1:10)"},
		{Op: "READ", Half: "Recv", Step: 350, Elems: 10, Args: "x(1:10)",
			Retries: 2, Stall: 144, Arrival: 200},
	}}
	r = m.Cost(split)
	if r.Wait != 0 {
		t.Fatalf("split wait = %f, want 0 (retries absorbed by the overlap window)", r.Wait)
	}
	if r.Retrans != 2*110 || r.Retries != 2 {
		t.Fatalf("split retrans = %f retries = %d", r.Retrans, r.Retries)
	}

	// same recovery, short window: the late copy stalls the receiver
	late := &interp.Trace{Steps: 400, Events: []interp.CommEvent{
		{Op: "READ", Half: "Send", Step: 50, Elems: 10, Args: "x(1:10)"},
		{Op: "READ", Half: "Recv", Step: 170, Elems: 10, Args: "x(1:10)",
			Retries: 2, Stall: 144, Arrival: 200},
	}}
	r = m.Cost(late)
	if r.Wait != 30 { // arrival 200 − recv 170; α–β transfer 110 < window 120, hidden
		t.Fatalf("late wait = %f, want 30 steps of receiver stall", r.Wait)
	}
}

func TestCostModelDegradedPair(t *testing.T) {
	m := Model{Latency: 100, PerElem: 1, Work: 1}
	tr := &interp.Trace{Steps: 400, Events: []interp.CommEvent{
		{Op: "READ", Half: "Send", Step: 50, Elems: 10, Args: "x(1:10)"},
		{Op: "READ", Half: "Recv", Step: 100, Elems: 10, Args: "x(1:10)",
			Retries: 3, Stall: 300, Degraded: true},
	}}
	r := m.Cost(tr)
	// failure detected at send 50 + stall 300 = 350, i.e. 250 steps past
	// the recv, then the atomic re-issue (110) is fully exposed
	if r.Wait != 250+110 {
		t.Fatalf("degraded wait = %f, want 360", r.Wait)
	}
	if r.Degraded != 1 || r.Retries != 3 {
		t.Fatalf("result = %+v", r)
	}
	if r.Retrans != 3*110 {
		t.Fatalf("retrans = %f, want the 3 wasted attempts charged", r.Retrans)
	}
}

// TestSplitAbsorbsWhatAtomicExposes runs the same faulty workload under
// both placements end to end: same injected faults, but the split
// placement's overlap window hides recovery the atomic placement pays
// as wait.
func TestSplitAbsorbsWhatAtomicExposes(t *testing.T) {
	prog, err := frontend.Parse(fig1Src)
	if err != nil {
		t.Fatal(err)
	}
	a, err := comm.Analyze(context.Background(), prog, nil, comm.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	faults := netsim.FaultConfig{Drop: 0.2, Dup: 0.1, Delay: 0.1}
	m := HighLatency
	var splitWait, atomicWait, rounds float64
	for seed := int64(1); seed <= 40; seed++ {
		cfg := interp.Config{N: 100, Seed: 3, Faults: faults, FaultSeed: seed}
		at, err := interp.Run(a.Annotate(comm.Options{Reads: true, Writes: true}), cfg)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := interp.Run(a.Annotate(comm.DefaultOptions), cfg)
		if err != nil {
			t.Fatal(err)
		}
		atomicWait += m.Cost(at).Wait
		splitWait += m.Cost(sp).Wait
		rounds++
	}
	if splitWait >= atomicWait {
		t.Fatalf("split placement should absorb fault recovery: split wait %.0f ≥ atomic wait %.0f",
			splitWait/rounds, atomicWait/rounds)
	}
}

func TestCostModelUnmatchedCharged(t *testing.T) {
	tr := &interp.Trace{
		Steps: 10,
		Events: []interp.CommEvent{
			{Op: "READ", Half: "Send", Step: 1, Elems: 4, Args: "x(1:4)"},
			{Op: "WRITE", Half: "Recv", Step: 5, Elems: 4, Args: "y(1:4)"},
		},
	}
	m := Model{Latency: 10, PerElem: 1, Work: 1}
	r := m.Cost(tr)
	if r.Wait != 2*(10+4) {
		t.Fatalf("unmatched halves should be fully charged: wait = %f", r.Wait)
	}
}
