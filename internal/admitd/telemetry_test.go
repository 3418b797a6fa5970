package admitd

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/api"
	"repro/client"
	"repro/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata goldens")

// scrapeMetrics fetches /metrics through the in-process handler.
func scrapeMetrics(t *testing.T, srv *Server) []byte {
	t.Helper()
	return mustStatus(t, srv, "GET", api.PathMetrics, nil, http.StatusOK)
}

// sampleValue finds the value of the exposition line with the given
// name-plus-labels prefix (e.g. `admitd_sessions_live` or
// `admitd_http_requests_total{route="try"}`).
func sampleValue(t *testing.T, expo []byte, series string) string {
	t.Helper()
	for _, line := range strings.Split(string(expo), "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			return rest
		}
	}
	t.Fatalf("series %s not in scrape:\n%s", series, expo)
	return ""
}

// maskExpo replaces every sample value with V, leaving names, labels
// and comment lines intact — the golden pins the schema of the
// exposition (families, help text, types, series and bucket grids),
// not the measurements.
func maskExpo(expo []byte) string {
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimRight(string(expo), "\n"), "\n") {
		if line == "" || line[0] == '#' {
			b.WriteString(line)
		} else if sp := strings.LastIndexByte(line, ' '); sp >= 0 {
			b.WriteString(line[:sp])
			b.WriteString(" V")
		} else {
			b.WriteString(line)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestMetricsGolden runs a fixed request script and pins the whole
// telemetry surface: the masked exposition schema against a golden
// file, exact values for the scripted counters, Prometheus-syntax
// lint cleanliness, and the session-stats view of the state-memo
// counters agreeing with /metrics.
func TestMetricsGolden(t *testing.T) {
	srv := newTestServer(t, Config{})
	mustStatus(t, srv, "POST", "/v1/sessions", api.CreateSessionRequest{Name: "g", Cores: 2}, http.StatusCreated)
	core0 := 0
	admit := func(id int64, core *int) {
		body := mustStatus(t, srv, "POST", "/v1/sessions/g/admit",
			api.AdmitRequest{Task: benchTask(id), Core: core}, http.StatusOK)
		if !strings.Contains(string(body), `"admitted":true`) {
			t.Fatalf("script admit %d: %s", id, body)
		}
	}
	admit(1, &core0)
	admit(2, nil)
	mustStatus(t, srv, "POST", "/v1/sessions/g/try", api.AdmitRequest{Task: benchTask(3)}, http.StatusOK)
	mustStatus(t, srv, "GET", "/v1/sessions/g", nil, http.StatusOK) // render: memo miss
	mustStatus(t, srv, "GET", "/v1/sessions/g", nil, http.StatusOK) // same snapshot: memo hit
	statsBody := mustStatus(t, srv, "GET", "/v1/sessions/g/stats", nil, http.StatusOK)
	mustStatus(t, srv, "GET", "/v1/stats", nil, http.StatusOK)
	mustStatus(t, srv, "GET", "/healthz", nil, http.StatusOK)
	mustStatus(t, srv, "POST", "/v1/sessions/g/remove", api.RemoveRequest{ID: 1}, http.StatusOK)

	expo := scrapeMetrics(t, srv)
	if issues := telemetry.Lint(expo); len(issues) != 0 {
		t.Fatalf("exposition lint: %v", issues)
	}

	for series, want := range map[string]string{
		`admitd_http_requests_total{route="create"}`:               "1",
		`admitd_http_requests_total{route="admit"}`:                "2",
		`admitd_http_requests_total{route="try"}`:                  "1",
		`admitd_http_requests_total{route="state"}`:                "2",
		`admitd_http_requests_total{route="session_stats"}`:        "1",
		`admitd_http_requests_total{route="stats"}`:                "1",
		`admitd_http_requests_total{route="health"}`:               "1",
		`admitd_http_requests_total{route="remove"}`:               "1",
		`admitd_http_requests_total{route="metrics"}`:              "0", // counted after the handler ran
		`admitd_sessions_live`:                                     "1",
		`admitd_sessions_created_total`:                            "1",
		`admitd_session_tasks`:                                     "1", // 2 admitted - 1 removed
		`admitd_state_cache_hits_total`:                            "1",
		`admitd_state_cache_misses_total`:                          "1",
		`admitd_snapshot_publishes_total`:                          "3", // 2 admits + 1 remove
		`admitd_http_request_duration_seconds_count{path="read"}`:  "6",
		`admitd_http_request_duration_seconds_count{path="actor"}`: "4",
	} {
		if got := sampleValue(t, expo, series); got != want {
			t.Errorf("%s = %s, want %s", series, got, want)
		}
	}
	if v := sampleValue(t, expo, "admitd_admission_probes_total"); v == "0" {
		t.Errorf("admission aggregate empty after scripted probes")
	}

	// Satellite check: the per-session stats response reports the
	// same state-memo traffic the server-wide counters saw.
	var st api.SessionStats
	if !api.ParseSessionStats(statsBody, &st) {
		t.Fatalf("stats response: %s", statsBody)
	}
	// The stats snapshot above preceded the second state read; read
	// again now for the settled counts.
	var final api.SessionStats
	if !api.ParseSessionStats(mustStatus(t, srv, "GET", "/v1/sessions/g/stats", nil, http.StatusOK), &final) {
		t.Fatal("re-read stats")
	}
	if final.StateCacheHits != 1 || final.StateCacheMisses != 1 {
		t.Errorf("session stats memo counters: hits=%d misses=%d, want 1/1", final.StateCacheHits, final.StateCacheMisses)
	}

	golden := "testdata/metrics.golden"
	masked := maskExpo(expo)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(masked), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	if masked != string(want) {
		t.Errorf("masked exposition drifted from %s (run with -update after intentional changes)\n got:\n%s", golden, masked)
	}
}

// TestTraceIDs pins the trace contract: valid client IDs are echoed
// verbatim, garbage is not, and with Config.Trace the server mints
// IDs for bare requests.
func TestTraceIDs(t *testing.T) {
	srv := newTestServer(t, Config{Trace: true})
	hdr := func(traceIn string) string {
		req := httptest.NewRequest("GET", "/healthz", nil)
		if traceIn != "" {
			req.Header.Set(api.TraceHeader, traceIn)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec.Header().Get(api.TraceHeader)
	}
	if got := hdr("abc123"); got != "abc123" {
		t.Fatalf("client trace id not echoed: %q", got)
	}
	if got := hdr("bad\"id"); got != "" && got != "bad\"id" {
		t.Fatalf("unexpected echo %q", got)
	}
	if got := hdr("bad\"id"); got == "bad\"id" {
		t.Fatal("invalid trace id echoed")
	}
	minted := hdr("")
	if !telemetry.ValidTraceID(minted) || len(minted) != 32 {
		t.Fatalf("minted trace id %q", minted)
	}
	if again := hdr(""); again == minted {
		t.Fatal("trace ids repeat")
	}

	// Untraced server: bare requests stay bare.
	plain := newTestServer(t, Config{})
	req := httptest.NewRequest("GET", "/healthz", nil)
	rec := httptest.NewRecorder()
	plain.ServeHTTP(rec, req)
	if got := rec.Header().Get(api.TraceHeader); got != "" {
		t.Fatalf("untraced server minted %q", got)
	}
}

// TestRequestEventLog pins the request event line: with a logger,
// every request writes exactly one JSON line carrying event=request,
// level=info, an RFC 3339 ts, the route, latency_us and the trace ID
// a valid client header supplied (an invalid one is dropped before
// it can be logged). With no logger the request is served and
// nothing is logged, not even through slog's default logger.
func TestRequestEventLog(t *testing.T) {
	var buf bytes.Buffer
	srv := newTestServer(t, Config{EventLog: telemetry.NewEventLog(&buf)})
	serve := func(h http.Handler, method, path, traceIn string, body string) int {
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		if traceIn != "" {
			req.Header.Set(api.TraceHeader, traceIn)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}
	event := func(route string) map[string]any {
		t.Helper()
		line := buf.String()
		buf.Reset()
		if strings.Count(line, "\n") != 1 || !strings.HasSuffix(line, "\n") {
			t.Fatalf("%s: want exactly one event line, got %q", route, line)
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("%s: event line is not JSON: %v\n%q", route, err, line)
		}
		if m["event"] != "request" || m["level"] != "info" || m["route"] != route {
			t.Fatalf("%s: event/level/route = %v/%v/%v", route, m["event"], m["level"], m["route"])
		}
		if ts, ok := m["ts"].(string); !ok {
			t.Fatalf("%s: no ts in %q", route, line)
		} else if _, err := time.Parse(time.RFC3339, ts); err != nil {
			t.Fatalf("%s: ts %q: %v", route, ts, err)
		}
		if us, ok := m["latency_us"].(float64); !ok || us < 0 || us != float64(int64(us)) {
			t.Fatalf("%s: latency_us = %v, want a whole non-negative number", route, m["latency_us"])
		}
		return m
	}

	if code := serve(srv, "GET", api.PathHealth, "client-id_1", ""); code != http.StatusOK {
		t.Fatalf("health: status %d", code)
	}
	if m := event("health"); m["trace"] != "client-id_1" {
		t.Fatalf("valid client trace logged as %v", m["trace"])
	}
	if code := serve(srv, "POST", api.PathSessions, `bad"id`, `{"name":"ev","cores":2}`); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	if m := event("create"); m["trace"] != "" {
		t.Fatalf("invalid client trace logged as %v", m["trace"])
	}

	var def bytes.Buffer
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewJSONHandler(&def, nil)))
	defer slog.SetDefault(prev)
	quiet := newTestServer(t, Config{})
	if code := serve(quiet, "GET", api.PathHealth, "client-id_1", ""); code != http.StatusOK {
		t.Fatalf("health without a logger: status %d", code)
	}
	if def.Len() != 0 || buf.Len() != 0 {
		t.Fatalf("a server without a logger wrote %q / %q", def.String(), buf.String())
	}
}

// TestTelemetrySmoke is the CI smoke: a live TCP server under
// concurrent client write/read traffic with a steady /metrics scraper
// — the whole telemetry plane exercised at once (run under -race in
// CI). Eight goroutines share one client across four sessions, each
// cycling admit, try, state, stats and remove; a remove answering
// unknown_task (its admit was rejected) is the only expected error.
func TestTelemetrySmoke(t *testing.T) {
	srv := newTestServer(t, Config{Trace: true})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c, err := client.New(ts.URL, client.WithTimeout(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	const sessions, workers = 4, 8
	requests := 4000
	if testing.Short() {
		requests = 800
	}
	sess := make([]*client.Session, sessions)
	for i := range sess {
		if sess[i], err = c.CreateSession(ctx, api.CreateSessionRequest{Name: fmt.Sprintf("smoke-%d", i), Cores: 4}); err != nil {
			t.Fatal(err)
		}
	}

	done := make(chan struct{})
	var scraper sync.WaitGroup
	var scrapes atomic.Int64

	// Scraper: steady exposition pulls while the traffic runs; every
	// payload must stay lint-clean under concurrency.
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-done:
				return
			case <-time.After(50 * time.Millisecond):
			}
			expo, err := c.Metrics(ctx)
			if err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
			if issues := telemetry.Lint(expo); len(issues) != 0 {
				t.Errorf("concurrent scrape lint: %v", issues)
				return
			}
			scrapes.Add(1)
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := sess[g%sessions]
			var st api.State
			id := int64(g) << 32 // disjoint IDs per goroutine
			for i := 0; i < requests/workers; i++ {
				var err error
				switch i % 5 {
				case 0:
					id++
					_, err = s.Admit(ctx, api.AdmitRequest{Task: benchTask(id)})
				case 1:
					_, err = s.Try(ctx, api.AdmitRequest{Task: benchTask(1 << 40)})
				case 2:
					err = s.StateInto(ctx, &st)
				case 3:
					_, err = s.Stats(ctx)
				case 4:
					if _, err = s.Remove(ctx, id); api.IsCode(err, api.CodeUnknownTask) {
						err = nil
					}
				}
				if err != nil {
					t.Errorf("goroutine %d request %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(done)
	scraper.Wait()
	if t.Failed() {
		return
	}
	t.Logf("telemetry: %d scrapes", scrapes.Load())

	expo, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v := sampleValue(t, expo, `admitd_http_request_duration_seconds_count{path="read"}`); v == "0" {
		t.Fatal("read-path latency histogram empty after traffic")
	}
	if v := sampleValue(t, expo, `admitd_http_request_duration_seconds_count{path="actor"}`); v == "0" {
		t.Fatal("actor-path latency histogram empty after traffic")
	}
}
