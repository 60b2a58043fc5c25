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

// TestObservePhasesCountsEachSpanOnce: a finished recording handed to
// ObservePhases lands one histogram observation per closed span, under
// the span's name; a still-open span is not observed.
func TestObservePhasesCountsEachSpanOnce(t *testing.T) {
	reg := NewRegistry()
	br := NewBridge(reg)
	rec := obs.NewRecorder()

	obs.Begin(rec, obs.SpanSolveRead)()
	obs.Begin(rec, obs.SpanSolveRead)()
	obs.Begin(rec, obs.SpanCheck)()
	obs.Begin(rec, obs.SpanCFGBuild) // never closed
	br.ObservePhases(rec.Phases())

	fams := scrape(t, reg)
	for stage, want := range map[string]float64{obs.SpanSolveRead: 2, obs.SpanCheck: 1} {
		if v, ok := fams.Value(obs.MetricStageDuration+"_count", map[string]string{"stage": stage}); !ok || v != want {
			t.Errorf("stage %q count = %v, %v; want %v", stage, v, ok, want)
		}
	}
	if v := fams.Sum(obs.MetricStageDuration+"_count", map[string]string{"stage": obs.SpanCFGBuild}); v != 0 {
		t.Errorf("open span observed: cfg-build count = %v", v)
	}
}
