package telemetry

import (
	"time"

	"givetake/internal/obs"
)

// Bridge feeds the per-stage latency histogram
// (gnt_stage_duration_seconds{stage=<span name>}), one observation per
// closed span. The one span source with no per-request recorder, the
// journal, uses it as its obs.Collector; the serving layer
// records each request's spans in that request's obs.Recorder and
// hands the finished rows to ObservePhases instead.
type Bridge struct {
	stages Histogram // by (stage)
}

// NewBridge registers the stage histogram on reg and returns the
// collector.
func NewBridge(reg *Registry) *Bridge {
	return &Bridge{stages: reg.Histogram(obs.MetricStageDuration,
		"Wall time of one pipeline/engine/journal stage span.", nil, "stage")}
}

// BeginSpan implements obs.Collector: the span's wall time lands in
// the stage histogram under its canonical name when it ends.
func (b *Bridge) BeginSpan(name string, kv ...any) obs.EndFunc {
	start := time.Now()
	return func(kv ...any) {
		b.stages.Observe(time.Since(start).Seconds(), name)
	}
}

// ObservePhases lands each closed span of a finished recording in the
// stage histogram.
func (b *Bridge) ObservePhases(phases []obs.PhaseStats) {
	for _, p := range phases {
		b.stages.Observe(time.Duration(p.WallNS).Seconds(), p.Name)
	}
}
