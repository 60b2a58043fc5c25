package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// A nil collector must be safe to drive: Begin returns a callable
// no-op, so instrumented code needs no guards.
func TestNilCollector(t *testing.T) {
	end := Begin(nil, "phase", "k", 1)
	end("done", true)
	end() // double end on the no-op too
}

func TestRecorderSpans(t *testing.T) {
	r := NewRecorder()
	outer := Begin(r, "outer", "size", 3)
	inner := Begin(r, "inner")
	inner("items", 7)
	outer()

	spans := r.Spans()
	if len(spans) != 2 || spans[0].Name != "outer" || spans[1].Name != "inner" {
		t.Fatalf("spans = %+v, want outer then inner", spans)
	}
	for _, sp := range spans {
		if sp.Dur < 0 {
			t.Errorf("span %s still open", sp.Name)
		}
	}
	// Enclosure is read off the intervals: inner lies inside outer.
	o, i := spans[0], spans[1]
	if i.Start < o.Start || i.Start+i.Dur > o.Start+o.Dur {
		t.Errorf("inner [%v,+%v) not inside outer [%v,+%v)", i.Start, i.Dur, o.Start, o.Dur)
	}
	// begin args and end args are both kept, in order
	if len(o.Args) != 1 || o.Args[0].Key != "size" {
		t.Errorf("outer args: %+v", o.Args)
	}
	if len(i.Args) != 1 || i.Args[0].Key != "items" {
		t.Errorf("inner args: %+v", i.Args)
	}
}

// TestRecorderOverlappingSpans drives the shape two concurrent callers
// sharing a recorder produce: two goroutines interleave begin A, begin
// B, end A, end B on it. Both spans come back in start order,
// each with its own duration and end args, as two overlapping
// intervals: B starts inside A and ends after it, so it is not A's
// child and reports no nesting.
func TestRecorderOverlappingSpans(t *testing.T) {
	r := NewRecorder()
	beganA, beganB, endedA := make(chan struct{}), make(chan struct{}), make(chan struct{})
	done := make(chan struct{}, 2)
	go func() {
		end := Begin(r, "A")
		close(beganA)
		<-beganB
		end("who", "A")
		close(endedA)
		done <- struct{}{}
	}()
	go func() {
		<-beganA
		end := Begin(r, "B")
		close(beganB)
		<-endedA
		end("who", "B")
		done <- struct{}{}
	}()
	<-done
	<-done

	spans := r.Spans()
	if len(spans) != 2 || spans[0].Name != "A" || spans[1].Name != "B" {
		t.Fatalf("spans = %+v, want A then B", spans)
	}
	a, b := spans[0], spans[1]
	for _, sp := range spans {
		if sp.Dur < 0 {
			t.Fatalf("span %s still open", sp.Name)
		}
		if len(sp.Args) != 1 || sp.Args[0].Value != sp.Name {
			t.Errorf("span %s carries end args %+v, want its own", sp.Name, sp.Args)
		}
	}
	aEnd, bEnd := a.Start+a.Dur, b.Start+b.Dur
	if !(a.Start <= b.Start && b.Start <= aEnd && aEnd <= bEnd) {
		t.Errorf("want overlapping intervals A [%v,%v) and B [%v,%v) with B starting inside A and ending after it",
			a.Start, aEnd, b.Start, bEnd)
	}

	phases := r.Phases()
	if len(phases) != 2 {
		t.Fatalf("phases = %+v, want 2", phases)
	}
	for k, sp := range spans {
		want := PhaseStats{Name: sp.Name, StartNS: sp.Start.Nanoseconds(), WallNS: sp.Dur.Nanoseconds()}
		if phases[k] != want {
			t.Errorf("phase %d = %+v, want %+v", k, phases[k], want)
		}
	}
}

func TestRecorderDoubleEndIsNoOp(t *testing.T) {
	r := NewRecorder()
	end := Begin(r, "phase")
	end("first", 1)
	end("second", 2)
	spans := r.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans", len(spans))
	}
	if len(spans[0].Args) != 1 || spans[0].Args[0].Key != "first" {
		t.Errorf("second End must not attach args: %+v", spans[0].Args)
	}
}

func TestWriteTrace(t *testing.T) {
	r := NewRecorder()
	end := Begin(r, "solve", "nodes", 17)
	end()
	open := Begin(r, "never-closed")
	_ = open

	var sb strings.Builder
	if err := r.WriteTrace(&sb); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &tf); err != nil {
		t.Fatalf("invalid trace JSON: %v\n%s", err, sb.String())
	}
	var haveSolve bool
	for _, ev := range tf.TraceEvents {
		switch {
		case ev.Name == "solve" && ev.Ph == "X":
			haveSolve = true
			if ev.Dur <= 0 {
				t.Error("solve span needs positive dur")
			}
			if ev.Args["nodes"] != float64(17) {
				t.Errorf("solve args = %v", ev.Args)
			}
		case ev.Name == "never-closed":
			t.Error("open spans must not be emitted")
		}
	}
	if !haveSolve {
		t.Errorf("trace missing the solve event:\n%s", sb.String())
	}
	if ph := r.Phases(); len(ph) != 1 || ph[0].Name != "solve" {
		t.Errorf("phases = %+v, want only the closed solve span", ph)
	}

	// Overlapping spans must not share a thread: Perfetto nests events
	// on one thread by time, and spans of concurrent callers sharing a
	// recorder can overlap without nesting.
	ms := time.Millisecond
	r = NewRecorder()
	r.spans = []Span{
		{Name: SpanSolveRead, Start: 0, Dur: 10 * ms},
		{Name: SpanSolveWrite, Start: 5 * ms, Dur: 10 * ms},
		{Name: SpanCheck, Start: 20 * ms, Dur: ms},
	}
	sb.Reset()
	if err := r.WriteTrace(&sb); err != nil {
		t.Fatal(err)
	}
	var lanes struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &lanes); err != nil {
		t.Fatalf("invalid trace JSON: %v\n%s", err, sb.String())
	}
	tid := map[string]int{}
	threads := map[int]bool{}
	for _, ev := range lanes.TraceEvents {
		switch ev.Ph {
		case "X":
			tid[ev.Name] = ev.Tid
		case "M":
			if ev.Name == "thread_name" {
				threads[ev.Tid] = true
			}
		}
	}
	if tid[SpanSolveRead] == tid[SpanSolveWrite] {
		t.Errorf("overlapping solve spans share tid %d", tid[SpanSolveRead])
	}
	if tid[SpanSolveRead] != 1 || tid[SpanSolveWrite] != 2 || tid[SpanCheck] != 1 {
		t.Errorf("tids = %v, want solve-read and check on 1, solve-write on 2", tid)
	}
	if !threads[1] || !threads[2] || len(threads) != 2 {
		t.Errorf("thread_name metadata for tids %v, want 1 and 2", threads)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := &Histogram{}
	for _, v := range []int64{0, 1, 2, 3, 4, 515, -7} {
		h.Add(v)
	}
	if h.Total() != 7 {
		t.Errorf("total = %d", h.Total())
	}
	// 0 and -7 land in bucket 0; 1 in bucket 1; 2,3 in bucket 2; 4 in
	// bucket 3; 515 in bucket 10 ([512,1024))
	want := []int64{2, 1, 2, 1, 0, 0, 0, 0, 0, 0, 1}
	if len(h.Counts) != len(want) {
		t.Fatalf("buckets = %v", h.Counts)
	}
	for i, w := range want {
		if h.Counts[i] != w {
			t.Errorf("bucket %d (%s) = %d, want %d", i, BucketLabel(i), h.Counts[i], w)
		}
	}
	if BucketLabel(10) != "[512,1024)" {
		t.Errorf("BucketLabel(10) = %s", BucketLabel(10))
	}
}

func TestOnePass(t *testing.T) {
	good := SolverCounters{Problem: "READ", EvalsPerEqMin: 1, EvalsPerEqMax: 1}
	if err := good.OnePass(); err != nil {
		t.Error(err)
	}
	bad := SolverCounters{Problem: "READ", EvalsPerEqMin: 1, EvalsPerEqMax: 2}
	if err := bad.OnePass(); err == nil {
		t.Error("re-evaluation must fail OnePass")
	}
}

func TestReportWriteText(t *testing.T) {
	rep := &Report{
		Program: "fig1.f",
		Phases:  []PhaseStats{{Name: "parse", StartNS: 2500, WallNS: 1500}},
		Solver: []SolverCounters{{
			Problem: "READ", Nodes: 17, Universe: 1, Words: 1, MaxLevel: 2,
			EquationEvals: 340, EvalsPerEqMin: 1, EvalsPerEqMax: 1,
			SetOps: 835, WordOps: 835,
		}},
		Runtime: []RuntimeStats{{
			Name: "gnt-split", Steps: 100, Messages: 1, Volume: 256,
			SplitPairs: 1, OverlapTotal: 515, OverlapMin: 515, OverlapMax: 515,
			Cost: map[string]CostStats{"high-latency": {Total: 1770}},
		}},
	}
	var sb strings.Builder
	if err := rep.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"fig1.f", "parse", "+2.5µs", "1.5µs", "READ", "340", "gnt-split", "515", "high-latency"} {
		if !strings.Contains(out, want) {
			t.Errorf("text report missing %q:\n%s", want, out)
		}
	}
	if (RuntimeStats{SplitPairs: 0}).MeanOverlap() != -1 {
		t.Error("MeanOverlap without pairs should be -1")
	}
}
