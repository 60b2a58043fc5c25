package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Arg is one span annotation, kept in attachment order so text output
// is stable.
type Arg struct {
	Key   string
	Value any
}

// Span is one recorded phase: a named [start, start+dur) interval with
// its annotations. Spans carry no nesting: an enclosing span (such as
// engine.analyze) is simply one whose interval contains the others, and
// spans from concurrent callers sharing a recorder overlap freely.
type Span struct {
	Name  string
	Start time.Duration // offset from the recorder's epoch
	Dur   time.Duration // -1 while still open
	Args  []Arg
}

// Recorder is the standard Collector: it accumulates spans in memory
// and renders them as a Chrome trace-event JSON profile (WriteTrace)
// or as the Report's Phases section. It is safe for concurrent use.
type Recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span // in open order, hence in start order
}

// NewRecorder returns an empty recorder whose epoch is now.
func NewRecorder() *Recorder {
	return &Recorder{epoch: time.Now()}
}

// BeginSpan implements Collector.
func (r *Recorder) BeginSpan(name string, kv ...any) EndFunc {
	r.mu.Lock()
	idx := len(r.spans)
	r.spans = append(r.spans, Span{Name: name, Start: time.Since(r.epoch), Dur: -1, Args: kvArgs(kv)})
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

// Phases flattens the closed spans into Report rows in start order.
// Still-open spans are omitted: they have no duration yet.
func (r *Recorder) Phases() []PhaseStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]PhaseStats, 0, len(r.spans))
	for _, sp := range r.spans {
		if sp.Dur >= 0 {
			out = append(out, PhaseStats{Name: sp.Name, StartNS: sp.Start.Nanoseconds(), WallNS: sp.Dur.Nanoseconds()})
		}
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

// WriteTrace renders the recording as Chrome trace-event JSON. Each
// span goes on the lowest thread (lane) whose previous span has ended,
// so a thread never holds two overlapping events: the stages inside an
// engine.analyze span, and the spans of concurrent callers sharing the
// recorder, get lanes of their own.
func (r *Recorder) WriteTrace(w io.Writer) error {
	r.mu.Lock()
	spans := make([]Span, len(r.spans))
	copy(spans, r.spans)
	r.mu.Unlock()

	var events []traceEvent
	ends := []time.Duration{0} // end of the last span on thread k+1
	for _, sp := range spans {
		if sp.Dur < 0 {
			continue // open span: not representable as a complete event
		}
		lane := 0
		for lane < len(ends) && ends[lane] > sp.Start {
			lane++
		}
		if lane == len(ends) {
			ends = append(ends, 0)
		}
		ends[lane] = sp.Start + sp.Dur
		ev := traceEvent{
			Name: sp.Name, Cat: "phase", Ph: "X",
			Ts:  float64(sp.Start.Nanoseconds()) / 1e3,
			Dur: float64(sp.Dur.Nanoseconds()) / 1e3,
			Pid: 1, Tid: lane + 1,
		}
		if ev.Dur <= 0 {
			ev.Dur = 0.001 // zero-duration X events confuse viewers
		}
		if len(sp.Args) > 0 {
			ev.Args = map[string]any{}
			for _, a := range sp.Args {
				ev.Args[a.Key] = a.Value
			}
		}
		events = append(events, ev)
	}

	tf := traceFile{DisplayTimeUnit: "ms"}
	tf.TraceEvents = append(tf.TraceEvents,
		traceEvent{Name: "process_name", Ph: "M", Pid: 1, Tid: 1,
			Args: map[string]any{"name": "gnt"}})
	for k := range ends {
		name := "pipeline"
		if k > 0 {
			name = fmt.Sprintf("pipeline %d", k+1)
		}
		tf.TraceEvents = append(tf.TraceEvents, traceEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: k + 1,
			Args: map[string]any{"name": name}})
	}
	tf.TraceEvents = append(tf.TraceEvents, events...)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(tf)
}
