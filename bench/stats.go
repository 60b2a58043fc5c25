package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a p99 over 200 samples is two observations, not
// a tail.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of sorted.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	r := int(math.Ceil(q*float64(len(sorted)))) - 1
	if r < 0 {
		r = 0
	}
	if r >= len(sorted) {
		r = len(sorted) - 1
	}
	return sorted[r]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// beyond counts the samples of n that rank above the nearest-rank
// q-quantile.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// tailCandidates are the percentiles tail considers, highest first.
var tailCandidates = []float64{0.999, 0.99, 0.9, 0.5}

// tail returns the highest percentile in tailCandidates that has at
// least minBeyond samples beyond it, with its value. ok is false when
// not even the median is supported.
func tail(sorted []float64) (q, v float64, ok bool) {
	for _, c := range tailCandidates {
		if beyond(len(sorted), c) >= minBeyond {
			return c, percentile(sorted, c), true
		}
	}
	return 0, 0, false
}

// quartiles returns the first quartile, median and third quartile of
// xs by the method of Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), so spreads printed here match the ones any
// external check computes the same way. One value is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	n, m := 4, len(s)+1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// worsening is how much b is worse than a, as a share of a, for a
// metric where better is "lower" or "higher". Negative means better.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		if a == b {
			return 0
		}
		return math.Inf(1)
	}
	d := (b - a) / math.Abs(a)
	if better == "higher" {
		d = -d
	}
	return d
}

// results is the file the all-workloads mode writes (bench/results.json)
// and -compare reads: every run of every workload, by workload.
type results struct {
	Seed      int64            `json:"seed"`
	Seconds   int              `json:"seconds"`
	Runs      int              `json:"runs"`
	Workloads []workloadResult `json:"workloads"`
}

// workloadResult holds one workload's runs, its traced runs, and, per
// metric of the untraced runs, the median and spread across them.
type workloadResult struct {
	Name    string             `json:"name"`
	Runs    []record           `json:"runs"`
	Traced  []record           `json:"traced,omitempty"`
	Summary map[string]summary `json:"summary"`
}

// summary is one metric across repeats.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"spread"`
	Unit   string  `json:"unit"`
}

// summarize fills the per-metric medians and spreads of every workload
// from its runs; it covers every metric the runs report.
func (r *results) summarize(sp *spec) {
	units := sp.units()
	for i := range r.Workloads {
		w := &r.Workloads[i]
		vals := map[string][]float64{}
		for _, run := range w.Runs {
			for k, v := range run.Metrics {
				vals[k] = append(vals[k], v)
			}
		}
		w.Summary = map[string]summary{}
		for k, xs := range vals {
			q1, med, q3 := quartiles(xs)
			w.Summary[k] = summary{Median: med, Q1: q1, Q3: q3, Spread: spread(xs), Unit: units[k]}
		}
	}
}

func (r *results) workload(name string) *workloadResult {
	for i := range r.Workloads {
		if r.Workloads[i].Name == name {
			return &r.Workloads[i]
		}
	}
	return nil
}

func readResults(path string) (*results, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compare prints, for every workload and end-to-end metric, how much
// b's median is worse than a's against the metric's bound, and reports
// whether every pair stayed within its bound. A pair missing from
// either side counts as outside.
func compare(sp *spec, a, b *results, out io.Writer) bool {
	ok := true
	fmt.Fprintf(out, "%-14s %-20s %14s %14s %9s %7s\n", "workload", "metric", "A median", "B median", "worse by", "bound")
	for _, wl := range sp.Workloads {
		wa, wb := a.workload(wl.Name), b.workload(wl.Name)
		for _, m := range sp.EndToEnd {
			var sa, sb summary
			var ha, hb bool
			if wa != nil {
				sa, ha = wa.Summary[m.Name]
			}
			if wb != nil {
				sb, hb = wb.Summary[m.Name]
			}
			if !ha || !hb {
				fmt.Fprintf(out, "%-14s %-20s missing\n", wl.Name, m.Name)
				ok = false
				continue
			}
			w := worsening(sa.Median, sb.Median, m.Better)
			verdict := "ok"
			if w > m.Bound {
				verdict = "OUTSIDE"
				ok = false
			}
			fmt.Fprintf(out, "%-14s %-20s %14.6g %14.6g %+8.2f%% %6.0f%% %s\n",
				wl.Name, m.Name, sa.Median, sb.Median, 100*w, 100*m.Bound, verdict)
		}
	}
	return ok
}
