// Package obs is the zero-dependency observability layer of the
// GIVE-N-TAKE pipeline: phase spans (a start offset and a duration
// each), solver work counters, and runtime metrics, exportable as a
// Chrome trace-event JSON profile (loadable in Perfetto /
// chrome://tracing) or aggregated into a structured Report.
//
// The design follows two rules:
//
//  1. The default is off. Every instrumentation point in the pipeline
//     holds a Collector interface value that is nil unless the caller
//     asked for observability; the nil-tolerant package helper Begin
//     makes a disabled pipeline pay exactly one pointer compare per
//     phase boundary and nothing per statement, equation, or message,
//     so cost-model results are bit-identical with and without the
//     layer compiled in.
//
//  2. Events are coarse. Spans wrap pipeline phases (parse, CFG build,
//     interval reduction, each dataflow solve, execution), never inner
//     loops; per-equation and per-message detail is carried by cheap
//     integer counters that the solver and interpreter maintain anyway
//     and hand over wholesale (SolverCounters, RuntimeStats). A span
//     has no nesting depth (an enclosing span is one whose interval
//     contains the others) and no allocation deltas (their
//     stop-the-world reads distort timings).
package obs

// Collector is the sink for pipeline spans. One analysis, in the
// library or in the engine, opens and closes its spans on the calling
// goroutine, one stage after another; a collector shared by concurrent
// callers must be safe for concurrent use (Recorder is). A nil
// Collector is the universal "off switch": call sites go through Begin
// below, which short-circuits on nil. Event counts are not collected
// here: the component that counts an event keeps the count (engine and
// journal stats), and /metrics reads it there.
type Collector interface {
	// BeginSpan opens a named span and returns the function that closes
	// it. Key/value pairs (alternating string key, any value) annotate
	// the span; more pairs may be passed to the returned EndFunc, which
	// is useful for results only known at the end (node counts, steps).
	BeginSpan(name string, kv ...any) EndFunc
}

// EndFunc closes a span, attaching any final key/value pairs.
type EndFunc func(kv ...any)

// endNop is the shared no-op EndFunc returned for nil collectors.
var endNop EndFunc = func(...any) {}

// Begin opens a span on c, tolerating a nil collector.
func Begin(c Collector, name string, kv ...any) EndFunc {
	if c == nil {
		return endNop
	}
	return c.BeginSpan(name, kv...)
}
