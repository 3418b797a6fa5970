package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/api"
)

// TestNewValidation pins the base-URL checks.
func TestNewValidation(t *testing.T) {
	if _, err := New("http://host:7007"); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "host:7007/nope", "://x", "/just/a/path"} {
		if _, err := New(bad); err == nil {
			t.Errorf("New(%q) must fail", bad)
		}
	}
}

// TestErrorEnvelope: a non-2xx response decodes to *api.Error with
// its machine-readable code intact.
func TestErrorEnvelope(t *testing.T) {
	c := InProcess(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusConflict)
		json.NewEncoder(w).Encode(api.Error{Code: api.CodeDuplicateTask, Message: "task 7 again"}) //nolint:errcheck
	}))
	_, err := c.Session("s").Admit(context.Background(), api.AdmitRequest{})
	if !api.IsCode(err, api.CodeDuplicateTask) {
		t.Fatalf("want duplicate_task, got %v", err)
	}
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Message != "task 7 again" {
		t.Fatalf("envelope lost: %v", err)
	}
}

// TestRetryIdempotent: GETs retry through 5xx responses; POSTs never
// retry.
func TestRetryIdempotent(t *testing.T) {
	var gets, posts atomic.Int64
	c := InProcess(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			posts.Add(1)
			w.WriteHeader(http.StatusInternalServerError)
			json.NewEncoder(w).Encode(api.Error{Code: api.CodeInternal, Message: "boom"}) //nolint:errcheck
			return
		}
		if gets.Add(1) < 3 {
			w.WriteHeader(http.StatusInternalServerError)
			json.NewEncoder(w).Encode(api.Error{Code: api.CodeInternal, Message: "flaky"}) //nolint:errcheck
			return
		}
		json.NewEncoder(w).Encode(api.SessionList{Sessions: []string{"a"}, Count: 1}) //nolint:errcheck
	}), WithRetry(3, time.Millisecond))

	list, err := c.ListSessions(context.Background())
	if err != nil || list.Count != 1 {
		t.Fatalf("retried GET: %+v, %v", list, err)
	}
	if gets.Load() != 3 {
		t.Fatalf("GET attempts: %d, want 3", gets.Load())
	}
	_, err = c.Session("s").Admit(context.Background(), api.AdmitRequest{})
	if !api.IsCode(err, api.CodeInternal) {
		t.Fatalf("POST error: %v", err)
	}
	if posts.Load() != 1 {
		t.Fatalf("POST attempts: %d, want 1 (no mutation retries)", posts.Load())
	}
}

// flakyTransport fails transport-level a fixed number of times, then
// serves through h.
type flakyTransport struct {
	fails atomic.Int64
	h     http.Handler
}

func (f *flakyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if f.fails.Add(-1) >= 0 {
		return nil, fmt.Errorf("connection refused")
	}
	rec := httptest.NewRecorder()
	f.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// TestRetryTransportError: transport errors (no response at all)
// retry for idempotent requests too.
func TestRetryTransportError(t *testing.T) {
	ok := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(api.Health{Status: "ok"}) //nolint:errcheck
	})
	d := &flakyTransport{h: ok}
	d.fails.Store(2)
	c := InProcess(ok, WithHTTPClient(&http.Client{Transport: d}), WithRetry(2, time.Millisecond))
	if err := c.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Exhausted retries surface the last transport error.
	d.fails.Store(10)
	if err := c.Health(context.Background()); err == nil || !strings.Contains(err.Error(), "connection refused") {
		t.Fatalf("want transport error, got %v", err)
	}
}

// TestHeadersAndHook: headers the per-request hook sets reach the
// wire.
func TestHeadersAndHook(t *testing.T) {
	var got http.Header
	c := InProcess(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = r.Header.Clone()
		json.NewEncoder(w).Encode(api.Health{Status: "ok"}) //nolint:errcheck
	}),
		WithRequestHook(func(r *http.Request) { r.Header.Set("X-Hooked", r.Method) }),
	)
	if err := c.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got.Get("X-Hooked") != "GET" {
		t.Fatalf("headers: %v", got)
	}
}

// TestTimeout: the per-call deadline cuts off a stalled server.
func TestTimeout(t *testing.T) {
	stall := make(chan struct{})
	defer close(stall)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-stall:
		case <-r.Context().Done():
		}
	}))
	defer ts.Close()
	c, err := New(ts.URL, WithTimeout(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := c.Health(context.Background()); err == nil {
		t.Fatal("stalled server must time out")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("timeout did not bound the call")
	}
}

// TestBatchStreamParsing: verdict lines, the summary line, and a
// mid-stream error envelope.
func TestBatchStreamParsing(t *testing.T) {
	c := InProcess(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"task_id":1,"admitted":true,"core":0,"probes":1}`)
		fmt.Fprintln(w, `{"task_id":2,"admitted":false,"core":-1,"probes":2}`)
		fmt.Fprintln(w, `{"done":true,"admitted":1,"rejected":1,"schedulable":true,"task_count":1}`)
	}))
	stream, err := c.Session("s").Batch(context.Background(), api.BatchRequest{})
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	var got []api.Verdict
	for stream.Next() {
		got = append(got, stream.Verdict())
	}
	sum, err := stream.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !got[0].Admitted || got[1].Admitted || sum.Admitted != 1 || !sum.Done {
		t.Fatalf("stream: %+v, %+v", got, sum)
	}

	c = InProcess(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"task_id":1,"admitted":true,"core":0,"probes":1}`)
		fmt.Fprintln(w, `{"code":"probe_pending","message":"held"}`)
	}))
	stream, err = c.Session("s").Batch(context.Background(), api.BatchRequest{})
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	n := 0
	for stream.Next() {
		n++
	}
	if _, err := stream.Summary(); !api.IsCode(err, api.CodeProbePending) || n != 1 {
		t.Fatalf("mid-stream error: n=%d, %v", n, err)
	}

	// A truncated stream (no summary line) is an error, not a silent
	// success.
	c = InProcess(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"task_id":1,"admitted":true,"core":0,"probes":1}`)
	}))
	stream, err = c.Session("s").Batch(context.Background(), api.BatchRequest{})
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	for stream.Next() {
	}
	if _, err := stream.Summary(); err == nil {
		t.Fatal("truncated stream must error")
	}
}
