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

func TestBridgeCounterRouting(t *testing.T) {
	reg := NewRegistry()
	br := NewBridge(reg)

	br.Count(obs.CounterCacheHit, 2)
	br.Count(obs.CounterCacheMiss, 1)
	br.Count(obs.CounterCacheEvict, 3)
	br.Count(obs.CounterAdmitWon, 5)
	br.Count(obs.CounterAdmitShed, 1)
	br.Count(obs.CounterPoolPanic, 4)
	br.Count(obs.CounterJournalCorruptBatch, 1)
	br.Count(obs.CounterJournalCorruptRecord, 2)
	br.Count(obs.CounterCacheHit, 0)  // no-op
	br.Count(obs.CounterCacheHit, -5) // monotone: ignored, must not panic

	fams := scrape(t, reg)
	checks := []struct {
		metric string
		labels map[string]string
		want   float64
	}{
		{obs.MetricCacheEvents, map[string]string{"event": "hit"}, 2},
		{obs.MetricCacheEvents, map[string]string{"event": "miss"}, 1},
		{obs.MetricCacheEvents, map[string]string{"event": "evict"}, 3},
		{obs.MetricAdmissionTotal, map[string]string{"outcome": "won"}, 5},
		{obs.MetricAdmissionTotal, map[string]string{"outcome": "shed"}, 1},
		{obs.MetricPoolPanics, nil, 4},
		{obs.MetricJournalCorrupt, map[string]string{"kind": "batch"}, 1},
		{obs.MetricJournalCorrupt, map[string]string{"kind": "record"}, 2},
	}
	for _, c := range checks {
		if v, ok := fams.Value(c.metric, c.labels); !ok || v != c.want {
			t.Errorf("%s%v = %v, %v; want %v", c.metric, c.labels, v, ok, c.want)
		}
	}
}

func TestBridgeUnknownCounterFallsBack(t *testing.T) {
	reg := NewRegistry()
	br := NewBridge(reg)
	br.Count("some.future.counter", 7)
	fams := scrape(t, reg)
	if v, ok := fams.Value(obs.MetricObsCounter, map[string]string{"name": "some.future.counter"}); !ok || v != 7 {
		t.Errorf("catch-all counter = %v, %v; want 7", v, ok)
	}
}

func TestTeeFansOutToBridgeAndRecorder(t *testing.T) {
	reg := NewRegistry()
	br := NewBridge(reg)
	rec := obs.NewRecorder(obs.Config{})
	col := obs.Tee(rec, br)

	obs.Begin(col, obs.SpanSolveRead)()
	col.Count(obs.CounterCacheHit, 1)

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
	// Bridge branch fed the histogram and cache counter.
	fams := scrape(t, reg)
	if v, ok := fams.Value(obs.MetricStageDuration+"_count", map[string]string{"stage": obs.SpanSolveRead}); !ok || v != 1 {
		t.Errorf("bridge branch stage count = %v, %v; want 1", v, ok)
	}
	if v, ok := fams.Value(obs.MetricCacheEvents, map[string]string{"event": "hit"}); !ok || v != 1 {
		t.Errorf("bridge branch cache hit = %v, %v; want 1", v, ok)
	}
}
