package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
	"text/tabwriter"
)

// PhaseStats is one closed span in a Report: its start offset from the
// recorder's epoch and its wall time. The same record is a /analyze
// response's phases, a `gnt -mode stats` row and a /debug/requests
// trace span.
type PhaseStats struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	WallNS  int64  `json:"wall_ns"`
}

// SolverCounters is the work profile of one GIVE-N-TAKE solve,
// maintained by internal/core. It is the empirical side of the paper's
// §5.2 complexity claim: EquationEvals must equal one evaluation of
// each of the fifteen equations per node per schedule (20 per node:
// Eqs. 1–10 once, Eqs. 11–15 once per EAGER/LAZY mode), so
// EvalsPerEqMin and EvalsPerEqMax are both exactly 1 after a complete
// solve, and total bitvector work is SetOps · Words = WordOps ∈ O(E).
type SolverCounters struct {
	Problem  string `json:"problem"`
	Nodes    int    `json:"nodes"`
	Universe int    `json:"universe"`
	// Words is the length of one bitvector in 64-bit words.
	Words int `json:"words"`
	// MaxLevel is the deepest interval nesting level (1 = no loops);
	// NodesPerLevel[l] counts nodes at level l.
	MaxLevel      int   `json:"max_level"`
	NodesPerLevel []int `json:"nodes_per_level,omitempty"`
	// EquationEvals totals individual equation evaluations.
	EquationEvals int64 `json:"equation_evals"`
	// EvalsPerEqMin/Max bound, over all (node, equation, mode) triples,
	// how often that equation was evaluated there — both 1 for the
	// paper's one-pass algorithm.
	EvalsPerEqMin int `json:"evals_per_eq_min"`
	EvalsPerEqMax int `json:"evals_per_eq_max"`
	// SetOps counts bitvector set operations (union, intersect,
	// subtract, copy, fill); WordOps = SetOps × Words.
	SetOps  int64 `json:"set_ops"`
	WordOps int64 `json:"word_ops"`
}

// OnePass reports whether the counters witness the one-evaluation-per-
// equation-per-node property; the error names the offending bound.
func (c SolverCounters) OnePass() error {
	if c.EvalsPerEqMin != 1 || c.EvalsPerEqMax != 1 {
		return fmt.Errorf("obs: %s solve evaluated equations between %d and %d times per node, want exactly 1",
			c.Problem, c.EvalsPerEqMin, c.EvalsPerEqMax)
	}
	return nil
}

// CostStats is a machine cost-model evaluation in Report form.
type CostStats struct {
	Compute  float64 `json:"compute"`
	Wait     float64 `json:"wait"`
	Retrans  float64 `json:"retrans,omitempty"`
	Total    float64 `json:"total"`
	Messages int64   `json:"messages"`
	Volume   int64   `json:"volume"`
	Retries  int64   `json:"retries,omitempty"`
	Degraded int64   `json:"degraded,omitempty"`
}

// RuntimeStats is the dynamic profile of one executed placement
// variant: message and volume totals, the Send→Recv overlap-distance
// distribution that quantifies latency hiding on the executed graph,
// and fault-recovery counters when the run used the unreliable
// transport.
type RuntimeStats struct {
	Name     string `json:"name"`
	Steps    int64  `json:"steps"`
	Messages int64  `json:"messages"`
	Volume   int64  `json:"volume"`

	// Split-pair overlap: distances are Recv.Step − Send.Step in
	// interpreter steps. OverlapMin is -1 when the trace has no split
	// pairs (the atomic and naive variants).
	SplitPairs   int64      `json:"split_pairs"`
	OverlapTotal int64      `json:"overlap_total"`
	OverlapMin   int64      `json:"overlap_min"`
	OverlapMax   int64      `json:"overlap_max"`
	OverlapHist  *Histogram `json:"overlap_hist,omitempty"`

	// C1 observability: both zero for balanced placements.
	UnmatchedSends int64 `json:"unmatched_sends"`
	UnmatchedRecvs int64 `json:"unmatched_recvs"`

	// Fault recovery, all zero on a reliable run.
	Retries    int64            `json:"retries,omitempty"`
	Suppressed int64            `json:"suppressed,omitempty"`
	StallSteps int64            `json:"stall_steps,omitempty"`
	Degraded   int64            `json:"degraded,omitempty"`
	Faults     map[string]int64 `json:"faults,omitempty"`

	// Cost holds machine cost-model evaluations keyed by model name.
	Cost map[string]CostStats `json:"cost,omitempty"`
}

// MeanOverlap is the average Send→Recv distance, or -1 without pairs.
func (r RuntimeStats) MeanOverlap() float64 {
	if r.SplitPairs == 0 {
		return -1
	}
	return float64(r.OverlapTotal) / float64(r.SplitPairs)
}

// Histogram is a power-of-two bucketed distribution of non-negative
// integer samples: bucket 0 holds value 0, bucket i ≥ 1 holds values
// in [2^(i-1), 2^i).
type Histogram struct {
	Counts []int64 `json:"counts"`
}

// Add records one sample; negative samples clamp to bucket 0.
func (h *Histogram) Add(v int64) {
	b := 0
	if v > 0 {
		b = bits.Len64(uint64(v))
	}
	for len(h.Counts) <= b {
		h.Counts = append(h.Counts, 0)
	}
	h.Counts[b]++
}

// Total is the number of recorded samples.
func (h *Histogram) Total() int64 {
	var n int64
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// BucketLabel names bucket i: "0", "[1,2)", "[2,4)", ...
func BucketLabel(i int) string {
	if i == 0 {
		return "0"
	}
	return fmt.Sprintf("[%d,%d)", int64(1)<<(i-1), int64(1)<<i)
}

func (h *Histogram) String() string {
	if h == nil || len(h.Counts) == 0 {
		return "(empty)"
	}
	parts := make([]string, 0, len(h.Counts))
	for i, c := range h.Counts {
		parts = append(parts, fmt.Sprintf("%s:%d", BucketLabel(i), c))
	}
	return strings.Join(parts, " ")
}

// Report is the aggregated observability output of one pipeline run,
// rendered by `gnt -mode stats` as text or JSON. Sections are omitted
// from JSON when empty, so partial reports (analysis without
// execution) stay compact.
type Report struct {
	Program string                     `json:"program,omitempty"`
	Phases  []PhaseStats               `json:"phases,omitempty"`
	Solver  []SolverCounters           `json:"solver,omitempty"`
	Runtime []RuntimeStats             `json:"runtime,omitempty"`
	Extra   map[string]json.RawMessage `json:"extra,omitempty"`
}

// JSON renders the report as indented JSON.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// WriteText renders the report as aligned, human-readable sections.
func (r *Report) WriteText(w io.Writer) error {
	if r.Program != "" {
		fmt.Fprintf(w, "program: %s\n", r.Program)
	}
	if len(r.Phases) > 0 {
		fmt.Fprintln(w, "\nphases:")
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "  phase\tstart\twall")
		for _, p := range r.Phases {
			fmt.Fprintf(tw, "  %s\t+%s\t%s\n", p.Name, fmtNS(p.StartNS), fmtNS(p.WallNS))
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	if len(r.Solver) > 0 {
		fmt.Fprintln(w, "\nsolver:")
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "  problem\tnodes\tlevels\tuniverse\twords\teq-evals\tevals/eq/node\tset-ops\tword-ops")
		for _, s := range r.Solver {
			perEq := fmt.Sprintf("%d", s.EvalsPerEqMax)
			if s.EvalsPerEqMin != s.EvalsPerEqMax {
				perEq = fmt.Sprintf("%d..%d", s.EvalsPerEqMin, s.EvalsPerEqMax)
			}
			fmt.Fprintf(tw, "  %s\t%d\t%d\t%d\t%d\t%d\t%s\t%d\t%d\n",
				s.Problem, s.Nodes, s.MaxLevel, s.Universe, s.Words,
				s.EquationEvals, perEq, s.SetOps, s.WordOps)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	if len(r.Runtime) > 0 {
		fmt.Fprintln(w, "\nruntime:")
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "  placement\tsteps\tmsgs\tvolume\tpairs\toverlap(min/mean/max)\tstall\tretries\tdegraded\tunmatched")
		for _, rt := range r.Runtime {
			overlap := "-"
			if rt.SplitPairs > 0 {
				overlap = fmt.Sprintf("%d/%.1f/%d", rt.OverlapMin, rt.MeanOverlap(), rt.OverlapMax)
			}
			fmt.Fprintf(tw, "  %s\t%d\t%d\t%d\t%d\t%s\t%d\t%d\t%d\t%d/%d\n",
				rt.Name, rt.Steps, rt.Messages, rt.Volume, rt.SplitPairs, overlap,
				rt.StallSteps, rt.Retries, rt.Degraded, rt.UnmatchedSends, rt.UnmatchedRecvs)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
		tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		header := false
		for _, rt := range r.Runtime {
			models := make([]string, 0, len(rt.Cost))
			for m := range rt.Cost {
				models = append(models, m)
			}
			sort.Strings(models)
			for _, m := range models {
				if !header {
					fmt.Fprintln(tw, "  placement\tmodel\tcompute\twait\tretrans\ttotal")
					header = true
				}
				c := rt.Cost[m]
				fmt.Fprintf(tw, "  %s\t%s\t%.0f\t%.0f\t%.0f\t%.0f\n",
					rt.Name, m, c.Compute, c.Wait, c.Retrans, c.Total)
			}
		}
		if header {
			fmt.Fprintln(w, "\ncost models:")
			if err := tw.Flush(); err != nil {
				return err
			}
		}
		for _, rt := range r.Runtime {
			if rt.OverlapHist != nil && rt.OverlapHist.Total() > 0 {
				fmt.Fprintf(w, "\noverlap histogram (%s): %s\n", rt.Name, rt.OverlapHist)
			}
		}
	}
	if len(r.Extra) > 0 {
		names := make([]string, 0, len(r.Extra))
		for k := range r.Extra {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(w, "\n%s: %s\n", k, r.Extra[k])
		}
	}
	return nil
}

// fmtNS renders a nanosecond duration with a human unit.
func fmtNS(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
