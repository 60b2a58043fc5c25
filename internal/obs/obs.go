// Package obs is the zero-dependency observability layer of the
// GIVE-N-TAKE pipeline: phase spans with wall-time and allocation
// deltas, solver work counters, and runtime metrics, exportable as a
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
//     and hand over wholesale (SolverCounters, RuntimeStats).
package obs

// Collector is the sink for pipeline spans. Implementations must
// tolerate being called from a single goroutine at a time; the
// pipeline is sequential. A nil Collector is the universal "off
// switch": call sites go through Begin below, which short-circuits on
// nil. Event counts are not collected here: the component that
// counts an event keeps the count (engine and journal stats), and
// /metrics reads it there.
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

// Tee fans spans out to several collectors: every span is delivered
// to each non-nil collector in argument order. Nil entries are
// dropped; zero survivors collapse to nil (the universal off switch)
// and one survivor is returned unwrapped, so the common cases pay
// nothing for the fan-out. The serving layer uses this to feed one
// request's spans to both its per-request recorder and the process-wide
// telemetry bridge.
func Tee(cols ...Collector) Collector {
	live := make(tee, 0, len(cols))
	for _, c := range cols {
		if c != nil {
			live = append(live, c)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}

type tee []Collector

// BeginSpan implements Collector: it opens the span on every branch
// and returns an EndFunc closing them all.
func (t tee) BeginSpan(name string, kv ...any) EndFunc {
	ends := make([]EndFunc, len(t))
	for i, c := range t {
		ends[i] = c.BeginSpan(name, kv...)
	}
	return func(kv ...any) {
		for _, end := range ends {
			end(kv...)
		}
	}
}
