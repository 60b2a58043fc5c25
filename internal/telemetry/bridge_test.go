package telemetry

import (
	"strings"
	"testing"

	"givetake/internal/obs"
)

func scrape(t *testing.T, reg *Registry) Families {
	t.Helper()
	var b strings.Builder
	if err := reg.Expose(&b); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseExposition(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("bridge exposition does not round-trip: %v\n%s", err, b.String())
	}
	return fams
}

func TestBridgeSpansLandInStageHistogram(t *testing.T) {
	reg := NewRegistry()
	br := NewBridge(reg)

	end := br.BeginSpan(obs.SpanCFGBuild)
	end()
	obs.Begin(br, obs.SpanParse)() // via the obs helper too

	fams := scrape(t, reg)
	for _, stage := range []string{obs.SpanCFGBuild, obs.SpanParse} {
		v, ok := fams.Value(obs.MetricStageDuration+"_count", map[string]string{"stage": stage})
		if !ok || v != 1 {
			t.Errorf("stage %q count = %v, %v; want 1", stage, v, ok)
		}
	}
}

func TestTeeFansOutToBridgeAndRecorder(t *testing.T) {
	reg := NewRegistry()
	br := NewBridge(reg)
	rec := obs.NewRecorder(obs.Config{})
	col := obs.Tee(rec, br)

	obs.Begin(col, obs.SpanSolveRead)()

	// Recorder branch saw the span.
	found := false
	for _, s := range rec.Spans() {
		if s.Name == obs.SpanSolveRead {
			found = true
		}
	}
	if !found {
		t.Error("recorder branch of Tee missed the span")
	}
	// Bridge branch fed the histogram.
	fams := scrape(t, reg)
	if v, ok := fams.Value(obs.MetricStageDuration+"_count", map[string]string{"stage": obs.SpanSolveRead}); !ok || v != 1 {
		t.Errorf("bridge branch stage count = %v, %v; want 1", v, ok)
	}
}
