package main

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"syscall"
	"time"

	"givetake/internal/engine"
	"givetake/internal/obs"
	"givetake/internal/telemetry"
)

// e2eUnits are the end-to-end metrics the runner computes on every
// workload, with their units.
var e2eUnits = map[string]string{
	"setup_s":            "s",
	"p50_ms":             "ms",
	"p90_ms":             "ms",
	"nodes_per_s":        "nodes/s",
	"cpu_ms_per_program": "ms",
	"peak_rss_mb":        "MB",
}

// detailUnits are the numbers every run records beside its metrics.
var detailUnits = map[string]string{
	"error_ratio":           "ratio",
	"tail_ms":               "ms",
	"tail_q":                "quantile",
	"samples":               "count",
	"lag_p99_ms":            "ms",
	"lag_max_ms":            "ms",
	"trace.overhead_ms_p50": "ms",
}

// maxLagP99 is the generator lateness beyond which an open-loop run does
// not measure its schedule and is marked invalid.
const maxLagP99 = 5 * time.Millisecond

// startDelay lets the first open-loop request be due a moment after the
// dispatcher starts instead of already late.
const startDelay = 20 * time.Millisecond

// record is one run of one workload: counts, validity and every metric.
type record struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Valid     bool               `json:"valid"`
	Metrics   map[string]float64 `json:"metrics"`
}

// runWorkload sets the workload up e.setups times (timing each and
// keeping the last), runs its load through the warm-up and one window,
// validates every answer, and computes the end-to-end metrics of the
// window — and, when traced, the per-layer ones.
func runWorkload(ctx context.Context, name string, e *env) (*record, error) {
	setup, ok := workloadByName[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	var setupS []float64
	var in *instance
	for k := 0; k < e.setups; k++ {
		if in != nil {
			in.close()
		}
		start := time.Now()
		var err error
		if in, err = setup(ctx, e); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	open := true
	defer func() {
		if open {
			in.close()
		}
	}()

	m := &meter{answers: in.answers, load: time.Now()}
	if in.openLoop {
		m.load = m.load.Add(startDelay)
	}
	m.start = m.load.Add(warmup)
	// When the window opens, the CPU clock, the stats deltas, the queue
	// sampler and the trace all start from there.
	type opening struct {
		cpu    usage
		before stackStats
		err    error
	}
	opened := make(chan opening, 1)
	var depths func() map[string]int
	var stopSampler func()
	timer := time.AfterFunc(time.Until(m.start), func() {
		cpu := rusage()
		e.rec.reset()
		before, err := in.stack.stats()
		depths, stopSampler = sampleQueues(in.stack, e.rec)
		opened <- opening{cpu, before, err}
	})
	in.run(ctx, m)
	ru1 := rusage()
	if timer.Stop() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("%s: the load ended before the window opened", name)
	}
	o := <-opened
	stopSampler()
	if o.err != nil {
		return nil, o.err
	}
	ru0, before := o.cpu, o.before
	after, err := in.stack.stats()
	if err != nil {
		return nil, err
	}
	in.close()
	open = false
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	rec := &record{Workload: name, Seed: e.seed, Seconds: e.window.Seconds(), Trace: e.rec != nil, Valid: true,
		Metrics: map[string]float64{}}
	put := func(k string, v float64) { rec.Metrics[k] = v }

	_, setupMed, _ := quartiles(setupS)
	put("setup_s", setupMed)
	tailQ := closedTail
	if in.openLoop {
		tailQ = openTail
	}
	sort.Float64s(m.lat)
	put("p50_ms", percentile(m.lat, 0.5))
	put("p90_ms", percentile(m.lat, 0.9))
	put("tail_ms", percentile(m.lat, tailQ))
	put("tail_q", tailQ)
	put("samples", float64(len(m.lat)))
	if q, _, ok := tail(m.lat); !ok || q < tailQ {
		rec.Valid = false // too few samples for the tail this workload reports
	}
	wall := m.end.Sub(m.start)
	if wall <= 0 {
		return nil, fmt.Errorf("%s: nothing answered in the window", name)
	}
	put("nodes_per_s", float64(m.nodes)/wall.Seconds())
	if in.openLoop {
		lag := millis(m.lag)
		sort.Float64s(lag)
		put("lag_p99_ms", percentile(lag, 0.99))
		put("lag_max_ms", percentile(lag, 1))
		if percentile(lag, 0.99) > ms(maxLagP99) {
			rec.Valid = false
		}
	}
	put("cpu_ms_per_program", ms(ru1.cpu-ru0.cpu)/float64(len(m.lat)))
	put("peak_rss_mb", float64(ru1.maxRSS)/(1<<20))

	// Validation that needs the reference path runs after the window.
	if err := checkReferences(ctx, m.answers, &m.v); err != nil {
		return nil, err
	}
	rec.Attempted, rec.Failed, rec.Failures = m.v.counts()
	put("error_ratio", float64(rec.Failed)/float64(rec.Attempted))

	if e.rec != nil {
		if err := layerMetrics(ctx, in, m, e.rec, before, after, depths(), put); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// usage is the process's CPU time and peak resident set so far.
type usage struct {
	cpu    time.Duration
	maxRSS int64 // bytes
}

func rusage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	tv := func(t syscall.Timeval) time.Duration { return time.Duration(t.Nano()) }
	return usage{cpu: tv(ru.Utime) + tv(ru.Stime), maxRSS: int64(ru.Maxrss) << 10}
}

// stackStats is a snapshot of the public stats of every node.
type stackStats struct {
	at       time.Time
	cache    engine.CacheStats
	sealed   int64
	flushMax float64
	waitSum  float64 // admission queue wait, seconds
	waitN    float64
	stages   []map[string]engine.StageStats // per node, by stage
}

// stats snapshots the stack; a nil stack (the library workload) has
// empty stats.
func (st *stack) stats() (stackStats, error) {
	s := stackStats{at: time.Now()}
	if st == nil {
		return s, nil
	}
	for _, n := range st.nodes {
		es := n.srv.Engine().Stats()
		s.cache.Hits += es.Cache.Hits
		s.cache.Misses += es.Cache.Misses
		s.cache.Evictions += es.Cache.Evictions
		js := n.srv.Journal().Stats()
		s.sealed += js.SealedRecords
		s.flushMax = max(s.flushMax, js.MaxFlushMS)
		stages := map[string]engine.StageStats{}
		for _, ps := range es.Pipeline {
			stages[ps.Stage] = ps
		}
		s.stages = append(s.stages, stages)
		var buf bytes.Buffer
		if err := n.reg.Expose(&buf); err != nil {
			return s, err
		}
		fams, err := telemetry.ParseExposition(&buf)
		if err != nil {
			return s, err
		}
		s.waitSum += fams.Sum(obs.MetricAdmissionWait+"_sum", nil)
		s.waitN += fams.Sum(obs.MetricAdmissionWait+"_count", nil)
	}
	return s, nil
}

// queueSampleEvery is how often the traced run samples pipeline queue
// depths. PipelineStats reads atomics and channel lengths, no
// stop-the-world call.
const queueSampleEvery = 10 * time.Millisecond

// sampleQueues samples every node's pipeline queue depths until stop is
// called, recording them as gauges; depths returns the maximum seen per
// stage. Untraced runs sample nothing.
func sampleQueues(st *stack, rec *recorder) (depths func() map[string]int, stop func()) {
	peak := map[string]int{}
	if rec == nil || st == nil {
		return func() map[string]int { return peak }, func() {}
	}
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(queueSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case now := <-t.C:
				for i, n := range st.nodes {
					for _, ps := range n.srv.Engine().PipelineStats() {
						peak[ps.Stage] = max(peak[ps.Stage], ps.QueueDepth)
						rec.addGauge(gauge{name: fmt.Sprintf("queue node%d %s", i, ps.Stage), at: now, value: float64(ps.QueueDepth)})
					}
				}
			}
		}
	}()
	return func() map[string]int { return peak }, func() { close(done); <-exited }
}

// layerMetrics computes the per-layer metrics of a traced run from the
// stats deltas across the window, the recorded spans, and an
// uncontended replay of the workload's programs.
func layerMetrics(ctx context.Context, in *instance, m *meter, rec *recorder, before, after stackStats,
	depths map[string]int, put func(string, float64)) error {
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	hits := float64(after.cache.Hits - before.cache.Hits)
	misses := float64(after.cache.Misses - before.cache.Misses)
	put("engine.cache_hit_ratio", ratio(hits, hits+misses))
	put("engine.cache_evictions", float64(after.cache.Evictions-before.cache.Evictions))
	put("journal.sealed_records", float64(after.sealed-before.sealed))
	put("serve.rung1_ratio", ratio(float64(m.rung1), float64(m.decoded)))
	put("cluster.first_try_ratio", ratio(float64(m.firstTry), float64(m.routed)))
	put("cluster.hedge_ratio", ratio(float64(m.hedged), float64(m.routed)))

	// Pipeline: busy time per item per stage, summed over nodes; the
	// bottleneck is the stage whose busy time per worker fills the
	// largest share of the window on any node.
	wallMS := ms(after.at.Sub(before.at))
	bottleneck, serviceMS := 0.0, 0.0
	for _, stage := range pipelineStages {
		put("pipeline."+stage+".queue_depth_max", float64(depths[stage]))
	}
	if in.stack != nil {
		busy, items := map[string]float64{}, map[string]float64{}
		for i := range after.stages {
			for stage, a := range after.stages[i] {
				b := before.stages[i][stage]
				d := a.BusyMS - b.BusyMS
				busy[stage] += d
				items[stage] += float64(a.Items - b.Items)
				if a.Workers > 0 {
					bottleneck = max(bottleneck, d/float64(a.Workers)/wallMS)
				}
			}
		}
		for stage := range busy {
			perItem := ratio(busy[stage], items[stage])
			put("pipeline."+stage+".busy_ms_per_item", perItem)
			serviceMS += perItem
		}
		put("serve.admission_wait_ms_mean", 1000*ratio(after.waitSum-before.waitSum, after.waitN-before.waitN))
		put("journal.flush_ms_max", after.flushMax)
		put("serve.handler_ms_p50", percentile(durationsMS(rec.byName(spanNode)), 0.5))
	}
	put("pipeline.bottleneck_ratio", bottleneck)

	if in.openLoop {
		// Reconciliation, in means, which add up where medians do not:
		// the part of a request's latency from its due time that the
		// generator's lateness, the router hop and the stages' service
		// times leave unexplained — HTTP, JSON, admission and the cache.
		hop := 0.0
		if len(in.stack.nodes) > 1 {
			hops := hopsMS(rec.byName(spanRouter), rec.byName(spanNode), m.answeredBy)
			put("cluster.hop_ms_p50", percentile(hops, 0.5))
			hop = mean(hops)
		}
		put("remainder_ms_mean", mean(m.lat)-mean(millis(m.lag))-hop-serviceMS)
	}

	mods, err := replay(ctx, in.progs, in.verifyEvery)
	if err != nil {
		return err
	}
	for k, v := range mods {
		put(k, v)
	}
	return nil
}
