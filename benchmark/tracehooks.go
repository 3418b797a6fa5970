package main

import (
	"net/http"
	"strconv"
	"sync/atomic"
)

// The public seams the traced run interposes at, outermost first:
// the SDK call (tracer.beginCall/endCall around it), the client's
// http.RoundTripper (TCP only) and an http.Handler in front of
// *admitd.Server. Nothing inside the program under test is touched.

// spanHeader carries the calling span's id across the socket; the
// server ignores it.
const spanHeader = "X-Bench-Span"

// tracer is one client goroutine's tracing state. A nil tracer is the
// untraced path: every method is a no-op.
type tracer struct {
	rec   *recorder
	call  int32 // open client.call span
	rt    int32 // open nethttp.roundtrip span
	class int8  // op kind of the open call
}

func (t *tracer) beginCall(kind opKind) {
	if t == nil {
		return
	}
	t.class = int8(kind)
	t.call = t.rec.begin(spanClientCall, 0, t.class)
}

func (t *tracer) endCall() {
	if t == nil {
		return
	}
	t.rec.end(t.call)
	t.call = 0
}

// stampRequest is the SDK request hook on the TCP path: it opens the
// round-trip span early enough to put its id on the wire.
func (t *tracer) stampRequest(r *http.Request) {
	t.rt = t.rec.begin(spanRoundTrip, t.call, t.class)
	r.Header.Set(spanHeader, strconv.Itoa(int(t.rt)))
}

// tracedRoundTripper closes the nethttp.roundtrip span when the
// transport hands the response back.
type tracedRoundTripper struct {
	base http.RoundTripper
	tr   *tracer
}

func (rt *tracedRoundTripper) RoundTrip(r *http.Request) (*http.Response, error) {
	// The hook stamped start when it built the request; restart the
	// clock here so the span covers the transport alone.
	id := rt.tr.rt
	if id > 0 {
		rt.tr.rec.spans[id-1].start = rt.tr.rec.now()
	}
	resp, err := rt.base.RoundTrip(r)
	rt.tr.rec.end(id)
	return resp, err
}

// tracedHandler is the in-process handler wrapper: the handler runs
// on the calling goroutine, so the parent is the client's open call.
type tracedHandler struct {
	next http.Handler
	tr   *tracer
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := h.tr.rec.begin(spanHandler, h.tr.call, h.tr.class)
	h.next.ServeHTTP(w, r)
	h.tr.rec.end(id)
}

// serverTap fronts the server on the TCP path. Untraced it costs one
// atomic load; traced it records admitd.handler under the span id the
// request carried across the socket.
type serverTap struct {
	next http.Handler
	rec  atomic.Pointer[recorder]
}

func (s *serverTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := s.rec.Load()
	if rec == nil {
		s.next.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.Atoi(r.Header.Get(spanHeader)) //nolint:errcheck // 0 (root) when absent
	id := rec.begin(spanHandler, int32(parent), -1)
	s.next.ServeHTTP(w, r)
	rec.end(id)
}
