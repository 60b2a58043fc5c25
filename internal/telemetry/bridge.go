package telemetry

import (
	"time"

	"givetake/internal/obs"
)

// Bridge folds the pipeline's obs spans into the metrics registry: it
// implements obs.Collector, turning every span into an observation on
// the per-stage latency histogram
// (gnt_stage_duration_seconds{stage=<span name>}). One Bridge serves
// the whole process; hand it to the engine's jobs and the journal
// directly, and Tee it with each request's private recorder so
// per-request reports and process-wide time series come from the same
// spans.
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
