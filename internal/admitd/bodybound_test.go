package admitd

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/api"
)

// chunked hides the reader's length, so the request declares none —
// what a chunked upload looks like to a handler.
type chunked struct{ io.Reader }

// TestOversizedChunkedBodyRejected sends 2 MiB of syntactically valid
// JSON with no declared length to a fast-path handler (try), a
// streaming-decoder handler (batch) and session create. Each must
// answer bad_request without reading the body out, and the fast path
// must not leave a slab grown past the bound in the wire pool.
func TestOversizedChunkedBodyRejected(t *testing.T) {
	srv := newTestServer(t, Config{})
	mustStatus(t, srv, "POST", "/v1/sessions", api.CreateSessionRequest{Name: "s", Cores: 2}, http.StatusCreated)
	// A request whose first member is 2 MiB of padding: no parser can
	// decide anything before the bound is crossed.
	body := `{"pad":"` + strings.Repeat("x", 2<<20) + `","task":{"id":1,"wcet_ns":1000000,"period_ns":10000000,"priority":1}}`
	for _, path := range []string{"/v1/sessions/s/try", "/v1/sessions/s/batch", "/v1/sessions"} {
		req := httptest.NewRequest("POST", path, chunked{strings.NewReader(body)})
		if req.ContentLength > 0 {
			t.Fatalf("%s: the request declares its length (%d)", path, req.ContentLength)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		var ae api.Error
		if err := json.Unmarshal(rec.Body.Bytes(), &ae); err != nil {
			t.Fatalf("%s: body is not an error envelope: %v: %.80s", path, err, rec.Body.Bytes())
		}
		if rec.Code != http.StatusBadRequest || ae.Code != api.CodeBadRequest || !strings.Contains(ae.Message, errBodyTooLarge.Error()) {
			t.Errorf("%s: status %d, envelope %+v; want 400 bad_request naming the bound", path, rec.Code, ae)
		}
		for i := 0; i < 8; i++ {
			ws := wirePool.Get().(*wireScratch)
			defer wirePool.Put(ws)
			if cap(ws.body) > maxBodyBytes {
				t.Errorf("%s: the wire pool holds a %d-byte slab", path, cap(ws.body))
			}
		}
	}
	// A declared length past the bound is refused before any read, and a
	// body at the bound still goes through.
	req := httptest.NewRequest("POST", "/v1/sessions/s/try", strings.NewReader(body))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("declared 2 MiB body: status %d, want 400", rec.Code)
	}
	tail := `","task":{"id":1,"wcet_ns":1000000,"period_ns":10000000,"priority":1}}`
	fits := `{"pad":"` + strings.Repeat("x", maxBodyBytes-len(`{"pad":"`)-len(tail)) + tail
	req = httptest.NewRequest("POST", "/v1/sessions/s/try", chunked{strings.NewReader(fits)})
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Errorf("body of exactly %d bytes: status %d: %.120s", len(fits), rec.Code, rec.Body.Bytes())
	}
}

// TestDeepNestingRejected sends try and admit bodies whose unknown
// field nests one level past encoding/json's depth limit (10 000). The
// fast decoder must decline them, so each answers bad_request as the
// stdlib decoder would, and nothing is admitted.
func TestDeepNestingRejected(t *testing.T) {
	srv := newTestServer(t, Config{})
	mustStatus(t, srv, "POST", "/v1/sessions", api.CreateSessionRequest{Name: "s", Cores: 2}, http.StatusCreated)
	const depth = 10001
	body := `{"x":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) +
		`,"task":{"id":1,"wcet_ns":1000000,"period_ns":10000000,"priority":1}}`
	for _, path := range []string{"/v1/sessions/s/try", "/v1/sessions/s/admit"} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
		var ae api.Error
		if err := json.Unmarshal(rec.Body.Bytes(), &ae); err != nil {
			t.Fatalf("%s: body is not an error envelope: %v: %.80s", path, err, rec.Body.Bytes())
		}
		if rec.Code != http.StatusBadRequest || ae.Code != api.CodeBadRequest || !strings.Contains(ae.Message, "exceeded max depth") {
			t.Fatalf("%s: HTTP %d %+v, want 400 bad_request (exceeded max depth)", path, rec.Code, ae)
		}
	}
	var st api.State
	if err := json.Unmarshal(mustStatus(t, srv, "GET", "/v1/sessions/s", nil, http.StatusOK), &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Tasks) != 0 {
		t.Fatalf("a rejected body admitted tasks: %+v", st.Tasks)
	}
}
