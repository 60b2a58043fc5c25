package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// spec is BENCHMARK.json: the workloads, the metrics with their units
// and regression bounds, and the run length. The runner reads names,
// units and the run length from it; rates and input shapes are fixed in
// workloads.go.
type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// findRoot returns the directory holding BENCHMARK.json: the working
// directory (the repository root, where run.sh starts the runner) or
// its parent (when started from bench/).
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in the working directory or its parent")
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var sp spec
	if err := dec.Decode(&sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

var (
	nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// lint checks the shape BENCHMARK.json must keep, and that every metric
// it names is one the runner computes, with the unit the runner means.
// It returns every problem found.
func (sp *spec) lint() []string {
	var probs []string
	bad := func(format string, args ...any) { probs = append(probs, fmt.Sprintf(format, args...)) }

	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		bad("run_seconds %d outside 1..60", sp.RunSeconds)
	}
	if n := len(sp.Workloads); n < 2 || n > 8 {
		bad("%d workloads, want 2..8", n)
	}
	if n := len(sp.EndToEnd); n < 1 || n > 16 {
		bad("%d end_to_end metrics, want 1..16", n)
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 {
		bad("%d per_layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRe.MatchString(n) {
			bad("%s name %q does not match %s", kind, n, nameRe)
		}
		if seen[n] {
			bad("name %q used twice", n)
		}
		seen[n] = true
	}
	workloads := map[string]bool{}
	for _, w := range sp.Workloads {
		name("workload", w.Name)
		workloads[w.Name] = true
		if _, ok := workloadByName[w.Name]; !ok {
			bad("workload %q has no implementation", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			bad("workload %q: why must be one line of 1..200 characters", w.Name)
		}
	}
	e2e := map[string]bool{}
	for _, m := range sp.EndToEnd {
		name("metric", m.Name)
		e2e[m.Name] = true
		if m.Bound <= 0 || m.Bound > 0.25 {
			bad("metric %q: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if want, ok := e2eUnits[m.Name]; !ok {
			bad("end-to-end metric %q is not computed by the runner", m.Name)
		} else if m.Unit != want {
			bad("metric %q: unit %q, the runner reports %q", m.Name, m.Unit, want)
		}
	}
	if !e2e["setup_s"] {
		bad("end_to_end lacks setup_s")
	}
	for _, m := range sp.PerLayer {
		name("metric", m.Name)
		if m.Bound != 0 {
			bad("per-layer metric %q has a bound", m.Name)
		}
		l, ok := layerByName[m.Name]
		if !ok {
			bad("per-layer metric %q is not computed by the runner", m.Name)
			continue
		}
		if m.Unit != l.unit || m.Better != l.better {
			bad("per-layer metric %q: %s/%s, the runner means %s/%s", m.Name, m.Unit, m.Better, l.unit, l.better)
		}
		if !l.everywhere {
			bad("per-layer metric %q is not measured on every workload", m.Name)
		}
		if len(l.moves) == 0 {
			bad("per-layer metric %q names no end-to-end metric it moves", m.Name)
		}
		for _, mv := range l.moves {
			if !e2e[mv.metric] || !workloads[mv.workload] {
				bad("per-layer metric %q moves unknown %s on %s", m.Name, mv.metric, mv.workload)
			}
		}
	}
	for _, m := range append(append([]specMetric(nil), sp.EndToEnd...), sp.PerLayer...) {
		if !unitRe.MatchString(m.Unit) {
			bad("metric %q: unit %q does not match %s", m.Name, m.Unit, unitRe)
		}
		if m.Better != "lower" && m.Better != "higher" {
			bad("metric %q: better %q", m.Name, m.Better)
		}
	}
	return probs
}

// units maps every metric name the runner can report to its unit.
func (sp *spec) units() map[string]string {
	u := map[string]string{}
	for k, v := range e2eUnits {
		u[k] = v
	}
	for _, l := range layers {
		u[l.name] = l.unit
	}
	for k, v := range detailUnits {
		u[k] = v
	}
	return u
}

func (sp *spec) workloadNames() []string {
	out := make([]string, len(sp.Workloads))
	for i, w := range sp.Workloads {
		out[i] = w.Name
	}
	return out
}
