package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"
)

// Config selects what a Recorder captures.
type Config struct {
	// Mem captures allocation deltas (runtime.MemStats TotalAlloc and
	// Mallocs) at span boundaries. ReadMemStats costs microseconds per
	// call, which is negligible at phase granularity but worth an
	// explicit opt-in.
	Mem bool
}

// Arg is one span annotation, kept in attachment order so text output
// is stable.
type Arg struct {
	Key   string
	Value any
}

// Span is one recorded phase: a named [start, start+dur) interval with
// nesting depth, annotations, and (optionally) allocation deltas.
type Span struct {
	Name  string
	Depth int           // nesting depth at open time (0 = top level)
	Start time.Duration // offset from the recorder's epoch
	Dur   time.Duration // -1 while still open
	Args  []Arg

	// Allocation deltas across the span (nested spans included);
	// captured only when Config.Mem is set.
	AllocBytes   int64
	AllocObjects int64
}

// Recorder is the standard Collector: it accumulates spans in memory
// and renders them as a Chrome trace-event JSON profile (WriteTrace)
// or as the Report's Phases section.
type Recorder struct {
	cfg   Config
	epoch time.Time

	mu    sync.Mutex
	spans []Span // in open order
	open  []int  // stack of indices into spans
}

// NewRecorder returns an empty recorder whose epoch is now.
func NewRecorder(cfg Config) *Recorder {
	return &Recorder{cfg: cfg, epoch: time.Now()}
}

// BeginSpan implements Collector.
func (r *Recorder) BeginSpan(name string, kv ...any) EndFunc {
	r.mu.Lock()
	idx := len(r.spans)
	sp := Span{Name: name, Depth: len(r.open), Start: time.Since(r.epoch), Dur: -1, Args: kvArgs(kv)}
	if r.cfg.Mem {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		// stash the baseline in the delta fields; End subtracts
		sp.AllocBytes = int64(ms.TotalAlloc)
		sp.AllocObjects = int64(ms.Mallocs)
	}
	r.spans = append(r.spans, sp)
	r.open = append(r.open, idx)
	r.mu.Unlock()
	return func(kv ...any) {
		r.mu.Lock()
		defer r.mu.Unlock()
		sp := &r.spans[idx]
		if sp.Dur >= 0 {
			return // already closed; double End is a no-op
		}
		sp.Dur = time.Since(r.epoch) - sp.Start
		sp.Args = append(sp.Args, kvArgs(kv)...)
		if r.cfg.Mem {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			sp.AllocBytes = int64(ms.TotalAlloc) - sp.AllocBytes
			sp.AllocObjects = int64(ms.Mallocs) - sp.AllocObjects
		}
		// pop the innermost matching open entry
		for i := len(r.open) - 1; i >= 0; i-- {
			if r.open[i] == idx {
				r.open = append(r.open[:i], r.open[i+1:]...)
				break
			}
		}
	}
}

// kvArgs folds alternating key/value pairs into Args; a trailing key
// without a value gets nil.
func kvArgs(kv []any) []Arg {
	if len(kv) == 0 {
		return nil
	}
	args := make([]Arg, 0, (len(kv)+1)/2)
	for i := 0; i < len(kv); i += 2 {
		k, ok := kv[i].(string)
		if !ok {
			k = fmt.Sprint(kv[i])
		}
		var v any
		if i+1 < len(kv) {
			v = kv[i+1]
		}
		args = append(args, Arg{Key: k, Value: v})
	}
	return args
}

// Spans returns the recorded spans in open order. Open spans have
// Dur == -1.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, len(r.spans))
	copy(out, r.spans)
	return out
}

// Phases flattens the recorded spans into Report rows, preserving open
// order and nesting depth. Still-open spans are reported with zero
// wall time.
func (r *Recorder) Phases() []PhaseStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]PhaseStats, 0, len(r.spans))
	for _, sp := range r.spans {
		p := PhaseStats{Name: sp.Name, Depth: sp.Depth}
		if sp.Dur >= 0 {
			p.WallNS = sp.Dur.Nanoseconds()
			if r.cfg.Mem {
				p.AllocBytes = sp.AllocBytes
				p.AllocObjects = sp.AllocObjects
			}
		}
		out = append(out, p)
	}
	return out
}

// Chrome trace-event JSON (the "JSON Array Format" both Perfetto and
// chrome://tracing load): one complete event ("ph":"X") per closed
// span, plus process/thread name metadata.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds since trace start
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteTrace renders the recording as Chrome trace-event JSON.
func (r *Recorder) WriteTrace(w io.Writer) error {
	r.mu.Lock()
	spans := make([]Span, len(r.spans))
	copy(spans, r.spans)
	r.mu.Unlock()

	tf := traceFile{DisplayTimeUnit: "ms"}
	tf.TraceEvents = append(tf.TraceEvents,
		traceEvent{Name: "process_name", Ph: "M", Pid: 1, Tid: 1,
			Args: map[string]any{"name": "gnt"}},
		traceEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: 1,
			Args: map[string]any{"name": "pipeline"}})
	for _, sp := range spans {
		if sp.Dur < 0 {
			continue // open span: not representable as a complete event
		}
		ev := traceEvent{
			Name: sp.Name, Cat: "phase", Ph: "X",
			Ts:  float64(sp.Start.Nanoseconds()) / 1e3,
			Dur: float64(sp.Dur.Nanoseconds()) / 1e3,
			Pid: 1, Tid: 1,
		}
		if ev.Dur <= 0 {
			ev.Dur = 0.001 // zero-duration X events confuse viewers
		}
		if len(sp.Args) > 0 || sp.AllocBytes != 0 || sp.AllocObjects != 0 {
			ev.Args = map[string]any{}
			for _, a := range sp.Args {
				ev.Args[a.Key] = a.Value
			}
			if r.cfg.Mem {
				ev.Args["alloc_bytes"] = sp.AllocBytes
				ev.Args["alloc_objects"] = sp.AllocObjects
			}
		}
		tf.TraceEvents = append(tf.TraceEvents, ev)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(tf)
}
