// Package check is the standalone static-analysis subsystem that
// re-verifies GIVE-N-TAKE results without trusting the solver. Where the
// bounded path checker of internal/core samples execution paths (loops
// unrolled 0..2 times), this package proves the paper's criteria over
// *all* paths by a fixed-point dataflow analysis on the plain control
// flow relation (the CEFJ edges of the interval graph, ignoring the
// interval structure the solver exploits):
//
//	C1 (balance):          every EAGER production is stopped by exactly
//	                       one LAZY production on every path, and no
//	                       region is left open at program exit;
//	C2 (safety):           everything produced is consumed before being
//	                       stolen or reaching exit, on every path whose
//	                       loops all run at least once;
//	C3 (correctness):      every consumer sees its item available on
//	                       every incoming path;
//	O1 (no re-production): production never targets an item the
//	                       framework already knows to be available.
//
// The analysis tracks, per value-numbered section, a small path-state
// lattice — unproduced, open-region, produced, and the ⊥ conflict state
// where joining paths disagree — realized as parallel must/may bit
// vectors (see verifier.go). Violations surface as structured
// Diagnostics with stable GNT0xx codes, the offending node, a source
// anchor, and a concrete path witness reconstructed from the lattice.
// On top of the verifier, Lint (lint.go) diagnoses placements that are
// correct but degenerate (GNT1xx warnings).
//
// The package deliberately shares no equation code with internal/core:
// it reads only the Init sets and the RES/GIVE/STEAL vectors of a
// Solution, so a solver bug cannot hide from it. The mutate subpackage
// turns that independence into a measured property: seeded corruptions
// of solution bit vectors must be caught by this verifier.
package check

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"givetake/internal/core"
	"givetake/internal/interval"
)

// Severity ranks diagnostics. Errors are criterion violations and fail
// `gnt -mode check`; warnings are linter findings about placements that
// are correct but suspicious or degenerate.
type Severity int

const (
	// Error marks a violated correctness/optimality criterion.
	Error Severity = iota
	// Warning marks a correct but degenerate or hazardous placement.
	Warning
)

func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warning"
}

// MarshalJSON renders the severity as its lower-case name.
func (s Severity) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// Diagnostic codes. Codes are stable API: tests, CI greps, and the
// mutation harness key on them. GNT0xx are verifier errors (one block
// per criterion), GNT1xx are linter warnings.
const (
	// CodeStartedTwice: C1 — an EAGER production fires for an item whose
	// region is already open on some path.
	CodeStartedTwice = "GNT001"
	// CodeStopWithoutStart: C1 — a LAZY production fires for an item
	// whose region is not open on some path.
	CodeStopWithoutStart = "GNT002"
	// CodeOpenAtExit: C1 — a production region reaches program exit
	// still open on some path (Send without a matching Recv).
	CodeOpenAtExit = "GNT003"
	// CodeNeverConsumed: C2 — a produced item reaches program exit
	// unconsumed on some path whose loops all ran at least once.
	CodeNeverConsumed = "GNT004"
	// CodeStolenPending: C2 — a produced item is stolen before being
	// consumed on some all-trips path.
	CodeStolenPending = "GNT005"
	// CodeConsumerStarved: C3 — a consumer executes on some path along
	// which its item was never produced, given, or survived stealing.
	CodeConsumerStarved = "GNT006"
	// CodeReproduction: O1 — production targets an item that the
	// framework can know to be available on every incoming path.
	CodeReproduction = "GNT007"

	// CodeRecvBeforeSend: lint — a Recv (LAZY production) is reachable
	// from entry without passing the matching Send (EAGER production).
	CodeRecvBeforeSend = "GNT101"
	// CodeZeroOverlap: lint — Send and Recv of an item coincide at one
	// program point, so the split buys no latency hiding.
	CodeZeroOverlap = "GNT110"
	// CodeZeroTripHoist: lint — production hoisted above a potentially
	// zero-trip loop whose body holds every consumer; a zero-trip
	// execution communicates speculatively (suppress with no-hoist /
	// STEAL_init if that is unacceptable).
	CodeZeroTripHoist = "GNT111"
	// CodeDeadArray: lint — a distributed array is declared but never
	// referenced or defined, so no communication is ever generated.
	CodeDeadArray = "GNT112"
)

// Diagnostic is one verifier or linter finding.
type Diagnostic struct {
	Code     string   `json:"code"`
	Severity Severity `json:"severity"`
	// Problem names the placement problem ("READ", "WRITE", or the
	// caller-supplied name); empty for program-level lints.
	Problem string `json:"problem,omitempty"`
	// Criterion is the violated paper criterion (C1, C2, C3, O1) or
	// "lint".
	Criterion string `json:"criterion"`
	// Mode is the schedule the finding concerns ("eager", "lazy", or
	// "" when it applies to the pair).
	Mode string `json:"mode,omitempty"`
	// Item is the universe index of the value-numbered section; -1 for
	// item-independent findings. ItemName is its printable form.
	Item     int    `json:"item"`
	ItemName string `json:"item_name,omitempty"`
	// Node is the interval node ID the finding anchors to (-1 when not
	// applicable); Pre is its 1-based preorder number as printed by
	// `gnt -mode graph`, in the orientation of the problem's graph.
	Node int `json:"node"`
	Pre  int `json:"pre,omitempty"`
	// Pos is the shared source anchor ("line:col", or a block
	// description for synthetic nodes) — the same formatter explain
	// output uses.
	Pos string `json:"pos,omitempty"`
	// Detail is the human-readable explanation.
	Detail string `json:"detail"`
	// Path, when non-empty, is a concrete offending path witness:
	// 1-based preorder numbers from program entry to the finding,
	// reconstructed from the lattice (witness.go).
	Path []int `json:"path,omitempty"`
}

func (d Diagnostic) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s %s", d.Code, d.Severity)
	if d.Problem != "" {
		fmt.Fprintf(&sb, " [%s", d.Problem)
		if d.Mode != "" {
			fmt.Fprintf(&sb, "/%s", d.Mode)
		}
		sb.WriteString("]")
	}
	if d.Criterion != "" && d.Criterion != "lint" {
		fmt.Fprintf(&sb, " %s", d.Criterion)
	}
	if d.ItemName != "" {
		fmt.Fprintf(&sb, " %s", d.ItemName)
	}
	if d.Node >= 0 {
		fmt.Fprintf(&sb, " at node %d", d.Pre)
		if d.Pos != "" {
			fmt.Fprintf(&sb, " @ %s", d.Pos)
		}
	}
	fmt.Fprintf(&sb, ": %s", d.Detail)
	if len(d.Path) > 0 {
		parts := make([]string, len(d.Path))
		for i, p := range d.Path {
			parts[i] = fmt.Sprintf("%d", p)
		}
		fmt.Fprintf(&sb, " [path %s]", strings.Join(parts, "->"))
	}
	return sb.String()
}

// Stats is the work profile of one static verification, reported
// through the observability layer by the comm hook.
type Stats struct {
	// Contexts is the number of (node, frame-set) dataflow contexts the
	// analysis discovered; at least one per reachable node, more when
	// jumps enter loops sideways (reversed graphs, §5.3).
	Contexts int `json:"contexts"`
	// Iterations is the number of worklist context evaluations until
	// the fixed point.
	Iterations int `json:"iterations"`
	// SetOps counts bit-vector set operations.
	SetOps int64 `json:"set_ops"`
}

// Result aggregates the findings of one placement check.
type Result struct {
	Diagnostics []Diagnostic `json:"diagnostics"`
	// Stats holds the verifier work profile per problem name.
	Stats map[string]Stats `json:"stats,omitempty"`
}

// Errors returns the error-severity diagnostics.
func (r *Result) Errors() []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diagnostics {
		if d.Severity == Error {
			out = append(out, d)
		}
	}
	return out
}

// Warnings returns the warning-severity diagnostics.
func (r *Result) Warnings() []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diagnostics {
		if d.Severity == Warning {
			out = append(out, d)
		}
	}
	return out
}

// Ok reports whether no criterion was violated (warnings allowed).
func (r *Result) Ok() bool { return len(r.Errors()) == 0 }

// Sort orders diagnostics by severity, code, node, then item, for
// stable output.
func (r *Result) Sort() {
	sort.SliceStable(r.Diagnostics, func(i, j int) bool {
		a, b := r.Diagnostics[i], r.Diagnostics[j]
		if a.Severity != b.Severity {
			return a.Severity < b.Severity
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		if a.Pre != b.Pre {
			return a.Pre < b.Pre
		}
		return a.Item < b.Item
	})
}

// Problem is one solved placement problem to verify: the graph it was
// solved on (forward for BEFORE, reversed for AFTER), the initial
// variables, and the solution. Name labels diagnostics ("READ",
// "WRITE").
type Problem struct {
	Name     string
	Graph    *interval.Graph
	Universe int
	Init     *core.Init
	Sol      *core.Solution
	// ItemName renders universe items for diagnostics; nil falls back
	// to "item N".
	ItemName func(int) string
}

func (p *Problem) itemName(i int) string {
	if p.ItemName != nil {
		return p.ItemName(i)
	}
	return fmt.Sprintf("item %d", i)
}

// Verify statically checks the problem's solution against C1–C3 and O1
// over all paths and returns the findings. A correct solution yields no
// error diagnostics.
func Verify(p *Problem) *Result {
	res, _ := VerifyCtx(context.Background(), p)
	return res
}

// VerifyCtx is Verify with cooperative cancellation: the fixed-point
// worklist, the reporting pass and its witness searches poll ctx and
// abandon the analysis with ctx.Err() once it is canceled (partial
// results are discarded — an unconverged lattice proves nothing, and a
// half-reported one is incomplete).
func VerifyCtx(ctx context.Context, p *Problem) (*Result, error) {
	v := newVerifier(ctx, p)
	if err := v.fixpoint(); err != nil {
		return nil, err
	}
	if err := v.report(); err != nil {
		return nil, err
	}
	res := &Result{
		Diagnostics: v.diags,
		Stats:       map[string]Stats{p.Name: v.stats},
	}
	res.Sort()
	return res, nil
}

// VerifyAll verifies several problems and merges their results.
func VerifyAll(problems ...*Problem) *Result {
	out, _ := VerifyAllCtx(context.Background(), problems...)
	return out
}

// VerifyAllCtx verifies several problems under one context and merges
// their results into one sorted Result; the first cancellation aborts
// the remainder.
func VerifyAllCtx(ctx context.Context, problems ...*Problem) (*Result, error) {
	out := &Result{Stats: map[string]Stats{}}
	for _, p := range problems {
		if p == nil {
			continue
		}
		r, err := VerifyCtx(ctx, p)
		if err != nil {
			return nil, err
		}
		out.Diagnostics = append(out.Diagnostics, r.Diagnostics...)
		for k, s := range r.Stats {
			out.Stats[k] = s
		}
	}
	out.Sort()
	return out, nil
}
