package telemetry

import (
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	"givetake/internal/obs"
)

func TestCounterGaugeHistogramExposition(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter(obs.MetricRequestsTotal, "Requests.", "route", "status")
	c.Add(3, "/analyze", "200")
	c.Inc("/analyze", "429")
	g := reg.Gauge(obs.MetricCacheBytes, "Cache bytes.")
	g.Set(1234)
	h := reg.Histogram(obs.MetricStageDuration, "Stage wall time.", []float64{0.1, 1}, "stage")
	h.Observe(0.05, "parse")
	h.Observe(0.5, "parse")
	h.Observe(5, "parse")

	var b strings.Builder
	if err := reg.Expose(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()

	fams, err := ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatalf("own exposition does not round-trip: %v\n%s", err, text)
	}
	if v, ok := fams.Value(obs.MetricRequestsTotal, map[string]string{"route": "/analyze", "status": "200"}); !ok || v != 3 {
		t.Errorf("requests_total{200} = %v, %v; want 3", v, ok)
	}
	if got := fams.Sum(obs.MetricRequestsTotal, nil); got != 4 {
		t.Errorf("sum over requests_total = %v, want 4", got)
	}
	if v, ok := fams.Value(obs.MetricCacheBytes, nil); !ok || v != 1234 {
		t.Errorf("gauge = %v, %v; want 1234", v, ok)
	}
	// cumulative buckets: le=0.1 -> 1, le=1 -> 2, le=+Inf -> 3
	for _, tc := range []struct {
		le   string
		want float64
	}{{"0.1", 1}, {"1", 2}, {"+Inf", 3}} {
		v, ok := fams.Value(obs.MetricStageDuration+"_bucket", map[string]string{"stage": "parse", "le": tc.le})
		if !ok || v != tc.want {
			t.Errorf("bucket le=%s = %v, %v; want %v", tc.le, v, ok, tc.want)
		}
	}
	if v, ok := fams.Value(obs.MetricStageDuration+"_count", map[string]string{"stage": "parse"}); !ok || v != 3 {
		t.Errorf("hist count = %v, %v; want 3", v, ok)
	}
	if v, ok := fams.Value(obs.MetricStageDuration+"_sum", map[string]string{"stage": "parse"}); !ok || math.Abs(v-5.55) > 1e-9 {
		t.Errorf("hist sum = %v, %v; want 5.55", v, ok)
	}
}

func TestUndeclaredMetricNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("registering an undeclared metric name did not panic")
		}
	}()
	NewRegistry().Counter("gnt_totally_new_metric_total", "drift")
}

func TestNegativeCounterDeltaPanics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter(obs.MetricRequestsTotal, "Requests.")
	defer func() {
		if recover() == nil {
			t.Fatal("negative counter delta did not panic")
		}
	}()
	c.Add(-1)
}

func TestReRegistrationIdempotentAndChecked(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(obs.MetricRequestsTotal, "Requests.", "route")
	reg.Counter(obs.MetricRequestsTotal, "Requests.", "route") // same shape: fine
	defer func() {
		if recover() == nil {
			t.Fatal("re-registration with different labels did not panic")
		}
	}()
	reg.Counter(obs.MetricRequestsTotal, "Requests.", "route", "status")
}

func TestGaugeFuncEvaluatedAtScrape(t *testing.T) {
	reg := NewRegistry()
	v := 1.0
	reg.GaugeFunc(obs.MetricInFlight, "In flight.", func() float64 { return v })
	read := func() float64 {
		var b strings.Builder
		if err := reg.Expose(&b); err != nil {
			t.Fatal(err)
		}
		fams, err := ParseExposition(strings.NewReader(b.String()))
		if err != nil {
			t.Fatal(err)
		}
		got, ok := fams.Value(obs.MetricInFlight, nil)
		if !ok {
			t.Fatal("gauge func family missing")
		}
		return got
	}
	if got := read(); got != 1 {
		t.Fatalf("scrape 1 = %v, want 1", got)
	}
	v = 7
	if got := read(); got != 7 {
		t.Fatalf("scrape 2 = %v, want 7 (gauge func must re-evaluate)", got)
	}
}

func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter(obs.MetricLadderAttempts, "Attempts.", "rung", "outcome")
	c.Add(1, `we"ird\name`+"\n", "ok")
	var b strings.Builder
	if err := reg.Expose(&b); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseExposition(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("escaped label did not round-trip: %v\n%s", err, b.String())
	}
	if v, ok := fams.Value(obs.MetricLadderAttempts, map[string]string{"rung": `we"ird\name` + "\n", "outcome": "ok"}); !ok || v != 1 {
		t.Errorf("escaped label lookup = %v, %v; want 1", v, ok)
	}
}

// TestCounterFuncsReadAtScrape pins the scrape-time counter families:
// TYPE counter, an unlabeled counter rendered from its first scrape
// (zero included), a labeled series omitted while its value is zero,
// and the exposition round-tripping through the strict parser.
func TestCounterFuncsReadAtScrape(t *testing.T) {
	reg := NewRegistry()
	var panics, hits, misses float64
	reg.CounterFunc(obs.MetricPoolPanics, "Panics.", func() float64 { return panics })
	reg.CounterSeriesFunc(obs.MetricCacheEvents, "Cache events.", []string{"event"}, func() []SeriesSample {
		return []SeriesSample{
			{LabelVals: []string{"hit"}, Value: hits},
			{LabelVals: []string{"miss"}, Value: misses},
		}
	})
	read := func() (Families, string) {
		t.Helper()
		var b strings.Builder
		if err := reg.Expose(&b); err != nil {
			t.Fatal(err)
		}
		fams, err := ParseExposition(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("counter funcs do not round-trip: %v\n%s", err, b.String())
		}
		return fams, b.String()
	}

	fams, text := read()
	for _, name := range []string{obs.MetricPoolPanics, obs.MetricCacheEvents} {
		if f := fams[name]; f == nil || f.Type != "counter" {
			t.Fatalf("%s: family %+v, want TYPE counter\n%s", name, f, text)
		}
	}
	if v, ok := fams.Value(obs.MetricPoolPanics, nil); !ok || v != 0 {
		t.Errorf("unlabeled counter = %v, %v; want 0 from the first scrape", v, ok)
	}
	if n := len(fams[obs.MetricCacheEvents].Samples); n != 0 {
		t.Errorf("labeled counter rendered %d zero samples, want none\n%s", n, text)
	}

	panics, misses = 2, 3
	fams, text = read()
	if v, ok := fams.Value(obs.MetricPoolPanics, nil); !ok || v != 2 {
		t.Errorf("unlabeled counter = %v, %v; want 2", v, ok)
	}
	if v, ok := fams.Value(obs.MetricCacheEvents, map[string]string{"event": "miss"}); !ok || v != 3 {
		t.Errorf("miss = %v, %v; want 3", v, ok)
	}
	if _, ok := fams.Value(obs.MetricCacheEvents, map[string]string{"event": "hit"}); ok {
		t.Errorf("zero hit series rendered\n%s", text)
	}
}

func TestMetricsHandlerContentType(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(obs.MetricRequestsTotal, "Requests.").Inc()
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != ContentType {
		t.Errorf("Content-Type = %q, want %q", got, ContentType)
	}
}

// TestDeclaredMetricNamesWellFormed pins the declared vocabulary
// itself: unique, exposition-legal names.
func TestDeclaredMetricNamesWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range obs.Metrics() {
		if !nameRe.MatchString(name) {
			t.Errorf("declared metric %q is not exposition-legal", name)
		}
		if !strings.HasPrefix(name, "gnt_") {
			t.Errorf("declared metric %q does not carry the gnt_ prefix", name)
		}
		if seen[name] {
			t.Errorf("declared metric %q is duplicated", name)
		}
		seen[name] = true
	}
}
