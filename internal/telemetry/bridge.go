package telemetry

import (
	"time"

	"givetake/internal/obs"
)

// Bridge folds the pipeline's existing obs instrumentation into the
// metrics registry: it implements obs.Collector, turning every span
// into an observation on the per-stage latency histogram
// (gnt_stage_duration_seconds{stage=<span name>}) and every counter
// into its declared gnt_* family. One Bridge serves the whole process;
// hand it to the engine and journal directly, and Tee it with each
// request's private recorder so per-request reports and process-wide
// time series come from the same instrumentation points.
type Bridge struct {
	stages    Histogram // by (stage)
	admission Counter   // by (outcome)
	cache     Counter   // by (event)
	pipeline  Counter   // by (stage)
	journal   map[string]Counter
	plain     map[string]Counter // obs counter name -> dedicated family
	other     Counter            // catch-all, by (name)
}

// pipelineStageOf maps each per-stage pipeline counter to the stage
// label its increments carry on gnt_pipeline_items_total.
var pipelineStageOf = map[string]string{
	obs.CounterPipelineParse:           obs.SpanParse,
	obs.CounterPipelineCFGBuild:        obs.SpanCFGBuild,
	obs.CounterPipelineIntervalReduce:  obs.SpanIntervalReduce,
	obs.CounterPipelineSectionUniverse: obs.SpanSectionUniverse,
	obs.CounterPipelineSolve:           "solve",
	obs.CounterPipelineCheck:           obs.SpanCheck,
}

// NewBridge registers the bridged families on reg and returns the
// collector.
func NewBridge(reg *Registry) *Bridge {
	b := &Bridge{
		stages: reg.Histogram(obs.MetricStageDuration,
			"Wall time of one pipeline/engine/journal stage span.", nil, "stage"),
		admission: reg.Counter(obs.MetricAdmissionTotal,
			"Admission-queue outcomes.", "outcome"),
		cache: reg.Counter(obs.MetricCacheEvents,
			"Result-cache events.", "event"),
		pipeline: reg.Counter(obs.MetricPipelineItems,
			"Programs serviced per pipeline stage.", "stage"),
		other: reg.Counter(obs.MetricObsCounter,
			"Declared obs counters without a dedicated family.", "name"),
	}
	b.plain = map[string]Counter{
		obs.CounterPipelineShed: reg.Counter(obs.MetricPipelineShed,
			"Pipeline tasks shed because their context died in-flight."),
		obs.CounterPoolPanic: reg.Counter(obs.MetricPoolPanics,
			"Pipeline stage bodies that panicked and were converted to errors."),
		obs.CounterJournalAppend: reg.Counter(obs.MetricJournalAppended,
			"Records enqueued for journal group commit."),
		obs.CounterJournalSealed: reg.Counter(obs.MetricJournalSealedBatches,
			"Journal batches sealed (Merkle root written, fsynced)."),
		obs.CounterJournalSealedRecords: reg.Counter(obs.MetricJournalSealedRecords,
			"Records inside sealed journal batches."),
		obs.CounterJournalReplayed: reg.Counter(obs.MetricJournalReplayed,
			"Records verified and delivered by journal replay."),
		obs.CounterJournalTornTail: reg.Counter(obs.MetricJournalTornTails,
			"Journal segments that ended mid-batch (crash shape)."),
	}
	jc := reg.Counter(obs.MetricJournalCorrupt,
		"Journal corruption dropped at replay.", "kind")
	b.journal = map[string]Counter{
		obs.CounterJournalCorruptBatch:  jc,
		obs.CounterJournalCorruptRecord: jc,
	}
	return b
}

// BeginSpan implements obs.Collector: the span's wall time lands in
// the stage histogram under its canonical name when it ends.
func (b *Bridge) BeginSpan(name string, kv ...any) obs.EndFunc {
	start := time.Now()
	return func(kv ...any) {
		b.stages.Observe(time.Since(start).Seconds(), name)
	}
}

// Count implements obs.Collector, routing each declared counter to its
// metric family.
func (b *Bridge) Count(name string, delta int64) {
	if delta <= 0 {
		return // counters are monotone; zero is a no-op
	}
	d := float64(delta)
	switch name {
	case obs.CounterCacheHit:
		b.cache.Add(d, "hit")
	case obs.CounterCacheMiss:
		b.cache.Add(d, "miss")
	case obs.CounterCacheFollow:
		b.cache.Add(d, "follow")
	case obs.CounterCacheEvict:
		b.cache.Add(d, "evict")
	case obs.CounterAdmitWon:
		b.admission.Add(d, "won")
	case obs.CounterAdmitShed:
		b.admission.Add(d, "shed")
	case obs.CounterJournalCorruptBatch:
		b.journal[name].Add(d, "batch")
	case obs.CounterJournalCorruptRecord:
		b.journal[name].Add(d, "record")
	default:
		if stage, ok := pipelineStageOf[name]; ok {
			b.pipeline.Add(d, stage)
			return
		}
		if c, ok := b.plain[name]; ok {
			c.Add(d)
			return
		}
		b.other.Add(d, name)
	}
}
