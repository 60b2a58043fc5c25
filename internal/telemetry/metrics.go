package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"

	"givetake/internal/obs"
)

// ContentType is the exposition content type of /metrics, the
// Prometheus text format version 0.0.4.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// DefBuckets are the default latency histogram bounds in seconds,
// spanning the service's realistic range: ~100µs pipeline stages up to
// multi-second degraded requests. Fixed at registration — scrapes can
// always be compared across processes and restarts.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 10,
}

var (
	nameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// Registry holds metric families and renders them in Prometheus text
// exposition format. Create with NewRegistry; all methods are safe for
// concurrent use. Family names must be declared in
// internal/obs/names.go (Metrics) — an undeclared name panics at
// registration, which is the name-drift guarantee: code cannot invent
// scrape vocabulary the repository has not written down.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

type family struct {
	name     string
	help     string
	typ      string // "counter" | "gauge" | "histogram"
	labels   []string
	buckets  []float64             // histograms only
	fn       func() float64        // func families only (unlabeled)
	seriesFn func() []SeriesSample // series-func families only (labeled)

	mu     sync.Mutex
	series map[string]*series
	order  []string // insertion order of series keys; sorted at expose
}

type series struct {
	labelVals []string
	value     float64  // counter/gauge
	counts    []uint64 // histogram: per-bucket (non-cumulative)
	infCount  uint64   // histogram: observations above the last bound
	sum       float64  // histogram
	count     uint64   // histogram
}

// register returns the named family, creating it on first use. A
// second registration must agree on type and labels; a name missing
// from the declared metric vocabulary panics.
func (r *Registry) register(name, help, typ string, buckets []float64, labels []string) *family {
	if !obs.KnownMetric(name) {
		panic(fmt.Sprintf("telemetry: metric %q is not declared in internal/obs/names.go", name))
	}
	if !nameRe.MatchString(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !labelRe.MatchString(l) {
			panic(fmt.Sprintf("telemetry: invalid label name %q on %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || strings.Join(f.labels, ",") != strings.Join(labels, ",") {
			panic(fmt.Sprintf("telemetry: metric %q re-registered as %s(%v), was %s(%v)",
				name, typ, labels, f.typ, f.labels))
		}
		return f
	}
	f := &family{
		name: name, help: help, typ: typ,
		labels: append([]string(nil), labels...),
		series: map[string]*series{},
	}
	if typ == "histogram" {
		if len(buckets) == 0 {
			buckets = DefBuckets
		}
		for i := 1; i < len(buckets); i++ {
			if buckets[i] <= buckets[i-1] {
				panic(fmt.Sprintf("telemetry: %q buckets not strictly increasing", name))
			}
		}
		f.buckets = append([]float64(nil), buckets...)
	}
	r.families[name] = f
	return f
}

// seriesFor returns (creating if needed) the series for the given
// label values. Caller must not hold f.mu.
func (f *family) seriesFor(labelVals []string) *series {
	if len(labelVals) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: metric %q wants %d label values, got %d",
			f.name, len(f.labels), len(labelVals)))
	}
	key := strings.Join(labelVals, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = &series{labelVals: append([]string(nil), labelVals...)}
		if f.typ == "histogram" {
			s.counts = make([]uint64, len(f.buckets))
		}
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s
}

// Counter is a monotone counter family handle; label values are passed
// per call in registration order.
type Counter struct{ f *family }

// Counter registers (or fetches) a counter family.
func (r *Registry) Counter(name, help string, labels ...string) Counter {
	f := r.register(name, help, "counter", nil, labels)
	if len(labels) == 0 {
		// A label-less counter has exactly one possible series; expose
		// it as 0 from registration so scrapers see the family exists
		// and rate() works from the first increment.
		f.seriesFor(nil)
	}
	return Counter{f}
}

// Add increments the series by delta; negative deltas panic — counters
// never go backwards.
func (c Counter) Add(delta float64, labelVals ...string) {
	if delta < 0 {
		panic(fmt.Sprintf("telemetry: negative delta %v on counter %q", delta, c.f.name))
	}
	s := c.f.seriesFor(labelVals)
	c.f.mu.Lock()
	s.value += delta
	c.f.mu.Unlock()
}

// Inc adds one.
func (c Counter) Inc(labelVals ...string) { c.Add(1, labelVals...) }

// Gauge is a settable gauge family handle.
type Gauge struct{ f *family }

// Gauge registers (or fetches) a gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) Gauge {
	return Gauge{r.register(name, help, "gauge", nil, labels)}
}

// Set replaces the series value.
func (g Gauge) Set(v float64, labelVals ...string) {
	s := g.f.seriesFor(labelVals)
	g.f.mu.Lock()
	s.value = v
	g.f.mu.Unlock()
}

// Add adjusts the series value (gauges may go down).
func (g Gauge) Add(delta float64, labelVals ...string) {
	s := g.f.seriesFor(labelVals)
	g.f.mu.Lock()
	s.value += delta
	g.f.mu.Unlock()
}

// GaugeFunc registers an unlabeled gauge evaluated at scrape time —
// the right shape for "current occupancy" values that already live in
// an atomic somewhere (in-flight requests, cache bytes, queue depth).
// Re-registering replaces the callback.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.funcFamily(name, help, "gauge", nil, fn, nil)
}

// CounterFunc registers an unlabeled counter evaluated at scrape time:
// the counter-typed sibling of GaugeFunc, for a monotone count the
// owning component already keeps (engine stats, journal stats), so
// /metrics reads the one count instead of keeping a second copy. fn
// must never decrease. Re-registering replaces the callback.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.funcFamily(name, help, "counter", nil, fn, nil)
}

// SeriesSample is one labeled sample produced by a GaugeSeriesFunc or
// CounterSeriesFunc callback: the label values (in registration order)
// and the value.
type SeriesSample struct {
	LabelVals []string
	Value     float64
}

// GaugeSeriesFunc registers a labeled gauge family whose entire series
// set is produced by fn at scrape time — the labeled sibling of
// GaugeFunc, for occupancy values that exist per member of a small
// fixed set (pipeline stages, shards). Samples render sorted by label
// values; a sample whose label count disagrees with the registration
// panics at scrape, same as a mismatched seriesFor call would.
// Re-registering replaces the callback.
func (r *Registry) GaugeSeriesFunc(name, help string, labels []string, fn func() []SeriesSample) {
	r.funcFamily(name, help, "gauge", labels, nil, fn)
}

// CounterSeriesFunc registers a labeled counter family whose series
// set is produced by fn at scrape time, the counter-typed sibling of
// GaugeSeriesFunc. A sample whose value is 0 is not rendered, so a
// labeled series appears at its first event, exactly as a pushed
// Counter's series does. Each sample's value must never decrease.
func (r *Registry) CounterSeriesFunc(name, help string, labels []string, fn func() []SeriesSample) {
	r.funcFamily(name, help, "counter", labels, nil, fn)
}

// funcFamily registers a family whose value (unlabeled, fn) or series
// set (labeled, seriesFn) is read at scrape time.
func (r *Registry) funcFamily(name, help, typ string, labels []string, fn func() float64, seriesFn func() []SeriesSample) {
	f := r.register(name, help, typ, nil, labels)
	f.mu.Lock()
	f.fn, f.seriesFn = fn, seriesFn
	f.mu.Unlock()
}

// Histogram is a fixed-bucket histogram family handle.
type Histogram struct{ f *family }

// Histogram registers (or fetches) a histogram family; nil or empty
// buckets take DefBuckets. Buckets are upper bounds in strictly
// increasing order; +Inf is implicit.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) Histogram {
	return Histogram{r.register(name, help, "histogram", buckets, labels)}
}

// Observe records one value.
func (h Histogram) Observe(v float64, labelVals ...string) {
	s := h.f.seriesFor(labelVals)
	h.f.mu.Lock()
	placed := false
	for i, b := range h.f.buckets {
		if v <= b {
			s.counts[i]++
			placed = true
			break
		}
	}
	if !placed {
		s.infCount++
	}
	s.sum += v
	s.count++
	h.f.mu.Unlock()
}

// Expose writes the registry in Prometheus text exposition format:
// families sorted by name, one HELP and one TYPE line each, series
// sorted by label values, histograms rendered as cumulative _bucket
// series plus _sum and _count.
func (r *Registry) Expose(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		f.expose(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) expose(b *strings.Builder) {
	f.mu.Lock()
	defer f.mu.Unlock()

	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.typ)

	if f.fn != nil {
		fmt.Fprintf(b, "%s %s\n", f.name, formatValue(f.fn()))
		return
	}
	if f.seriesFn != nil {
		samples := f.seriesFn()
		sort.Slice(samples, func(i, j int) bool {
			return strings.Join(samples[i].LabelVals, "\x00") < strings.Join(samples[j].LabelVals, "\x00")
		})
		for _, s := range samples {
			if len(s.LabelVals) != len(f.labels) {
				panic(fmt.Sprintf("telemetry: metric %q sample has %d label values, want %d",
					f.name, len(s.LabelVals), len(f.labels)))
			}
			if f.typ == "counter" && s.Value == 0 {
				continue // a labeled counter series appears at its first event
			}
			fmt.Fprintf(b, "%s%s %s\n", f.name,
				labelString(f.labels, s.LabelVals, "", ""), formatValue(s.Value))
		}
		return
	}
	keys := append([]string(nil), f.order...)
	sort.Strings(keys)
	for _, key := range keys {
		s := f.series[key]
		switch f.typ {
		case "histogram":
			cum := uint64(0)
			for i, c := range s.counts {
				cum += c
				fmt.Fprintf(b, "%s_bucket%s %d\n", f.name,
					labelString(f.labels, s.labelVals, "le", formatValue(f.buckets[i])), cum)
			}
			cum += s.infCount
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name,
				labelString(f.labels, s.labelVals, "le", "+Inf"), cum)
			fmt.Fprintf(b, "%s_sum%s %s\n", f.name,
				labelString(f.labels, s.labelVals, "", ""), formatValue(s.sum))
			fmt.Fprintf(b, "%s_count%s %d\n", f.name,
				labelString(f.labels, s.labelVals, "", ""), s.count)
		default:
			fmt.Fprintf(b, "%s%s %s\n", f.name,
				labelString(f.labels, s.labelVals, "", ""), formatValue(s.value))
		}
	}
}

// labelString renders {k="v",...}, optionally appending one extra pair
// (the histogram le label); empty when there are no labels at all.
func labelString(keys, vals []string, extraKey, extraVal string) string {
	if len(keys) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(vals[i]))
		b.WriteByte('"')
	}
	if extraKey != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraKey)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extraVal))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return s
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return s
}

// Handler serves the registry as a /metrics endpoint with the explicit
// exposition Content-Type. It answers GET (and HEAD with no body) and
// is intentionally independent of service readiness — scraping must
// work while a node is still warming from its journal.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", ContentType)
		if req.Method == http.MethodHead {
			return
		}
		_ = r.Expose(w)
	})
}
