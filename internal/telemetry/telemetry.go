// Package telemetry is the production observability layer of the
// GIVE-N-TAKE service: a stdlib-only time-series metrics registry with
// a Prometheus text-exposition endpoint, end-to-end request tracing
// with a bounded ring of recent request traces, and a sampled
// structured access log.
//
// The package complements internal/obs rather than replacing it: obs
// records what happened *inside one request* (phase spans, solver
// counters) for a single report or Chrome trace, while telemetry
// aggregates *across requests* into scrapeable time series. Bridge
// connects the two: it folds each closed span into a per-stage latency
// histogram, so the pipeline's existing spans feed /metrics without a
// second set of hooks. A served request's spans are recorded once, in
// that request's obs.Recorder, whose phase rows become the /analyze
// response's phases, the /debug/requests trace spans and, through
// Bridge.ObservePhases, the histogram. The one span source with no
// request, the journal, uses the Bridge directly as its obs.Collector.
// Event counts are not pushed anywhere: a component that already counts an event (the
// engine's cache and pipeline stats, the journal's stats) registers a
// CounterFunc or CounterSeriesFunc that reads its count at scrape
// time, so each event is counted once.
//
// Three rules keep the layer production-safe:
//
//  1. The vocabulary is closed. A Registry refuses to create a metric
//     family whose name is not declared in internal/obs/names.go, so
//     dashboards and alerts can rely on the scrape schema not drifting
//     silently.
//
//  2. Counters are monotone. Counter.Add rejects negative deltas, the
//     counts a CounterFunc reads only grow, and histograms only
//     accumulate, so "no metric goes backwards across scrapes" is an
//     invariant the chaos harness asserts under fire, gauges excepted
//     by definition.
//
//  3. Exposition is strict. The text format written by Registry.Expose
//     round-trips through ParseExposition, the same strict parser the
//     unit tests, the chaos harness and the CI smoke job use to
//     validate a live scrape.
package telemetry
