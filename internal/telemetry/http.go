package telemetry

import (
	"context"
	"net/http"
)

// AcceptTrace is the first step of a service's instrumentation
// middleware: it keeps the request's TraceHeader ID when ValidTraceID
// admits it and mints one otherwise, echoes the effective ID on w, and
// returns it with the request context carrying it. Serve and the
// router both call it, so one ID survives client → router → node.
func AcceptTrace(w http.ResponseWriter, r *http.Request) (string, context.Context) {
	id := r.Header.Get(TraceHeader)
	if !ValidTraceID(id) {
		id = NewTraceID()
	}
	w.Header().Set(TraceHeader, id)
	return id, WithTraceID(r.Context(), id)
}

// RouteLabel bounds the route label to the known endpoint set: an
// arbitrary scanned path must never mint a new time series.
func RouteLabel(path string) string {
	switch path {
	case "/analyze", "/batch", "/healthz", "/readyz", "/metrics", "/debug/requests":
		return path
	}
	return "other"
}

// StatusWriter captures the status code a handler wrote (200 when the
// handler wrote a body without an explicit WriteHeader).
type StatusWriter struct {
	http.ResponseWriter
	code int
}

// WriteHeader records the first status written and passes it on.
func (w *StatusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

// Write records an implicit 200 when no status was written first.
func (w *StatusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Status is the status the handler wrote, 200 when it wrote none.
func (w *StatusWriter) Status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}
