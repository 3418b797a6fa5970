package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
)

func TestCounterShardedSum(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("t_ops_total", "ops")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
			c.Add(5)
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8*1005 {
		t.Fatalf("counter = %d, want %d", got, 8*1005)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("t_lat_seconds", "lat", UnitSeconds, 8, 20)
	// 256ns lands in the first bucket (le=2^8), 257ns in the second.
	h.ObserveInt(256)
	h.ObserveInt(257)
	h.ObserveInt(1 << 30) // beyond maxShift 20 → +Inf
	h.ObserveInt(0)       // clamps into the first bucket
	var cum [histMaxBuckets]int64
	sum, count, n := h.snapshot(cum[:])
	if count != 4 {
		t.Fatalf("count = %d, want 4", count)
	}
	if want := int64(256 + 257 + 1<<30); sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
	if cum[0] != 2 { // 256 and 0
		t.Fatalf("first bucket cum = %d, want 2", cum[0])
	}
	if cum[1] != 3 {
		t.Fatalf("second bucket cum = %d, want 3", cum[1])
	}
	if cum[n-1] != 4 {
		t.Fatalf("+Inf cum = %d, want 4", cum[n-1])
	}
	if cum[n-2] != 3 {
		t.Fatalf("last finite cum = %d, want 3", cum[n-2])
	}
}

func TestHistogramObserveGroup(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("t_iters", "iters", UnitCount, 0, 10)
	h.ObserveGroup(12, 3) // three solves, 12 iterations, mean 4
	var cum [histMaxBuckets]int64
	sum, count, _ := h.snapshot(cum[:])
	if sum != 12 || count != 3 {
		t.Fatalf("sum/count = %d/%d, want 12/3", sum, count)
	}
	// mean 4 → le=4 is shift 2.
	if cum[2]-cum[1] != 3 {
		t.Fatalf("mean bucket delta = %d, want 3", cum[2]-cum[1])
	}
	h.ObserveGroup(5, 0) // no solves: must be a no-op
	if _, count, _ = h.snapshot(cum[:]); count != 3 {
		t.Fatalf("count after empty group = %d, want 3", count)
	}
}

// TestQuantile reads percentiles back off a scrape: the exposition's
// histogram decodes, and a quantile lands on its bucket's upper bound.
func TestQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("t_q", "q", UnitCount, 0, 16)
	r.NewHistogram("t_empty", "e", UnitCount, 0, 16)
	for i := 0; i < 90; i++ {
		h.ObserveInt(3) // bucket le=4
	}
	for i := 0; i < 10; i++ {
		h.ObserveInt(1000) // bucket le=1024
	}
	expo := r.WritePrometheus(nil)
	snap := ExtractHistogram(expo, "t_q", "")
	if snap == nil || snap.Count != 100 {
		t.Fatalf("extracted %+v from:\n%s", snap, expo)
	}
	if q := snap.Quantile(0.5); q != 4 {
		t.Fatalf("p50 = %v, want 4", q)
	}
	if q := snap.Quantile(0.99); q != 1024 {
		t.Fatalf("p99 = %v, want 1024", q)
	}
	if q := ExtractHistogram(expo, "t_empty", "").Quantile(0.5); !math.IsNaN(q) {
		t.Fatalf("empty histogram quantile = %v, want NaN", q)
	}
}

func TestExpositionFormatAndLint(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("app_requests_total", "Requests served.", Label{"route", "try"})
	c2 := r.NewCounter("app_requests_total", "Requests served.", Label{"route", "admit"})
	g := r.NewGauge("app_inflight", "In-flight requests.")
	r.NewGaugeFunc("app_occupancy", "Live sessions.", func() float64 { return 3 })
	h := r.NewHistogram("app_latency_seconds", "Request latency.", UnitSeconds, 8, 10, Label{"path", "read"})
	c.Add(7)
	c2.Add(2)
	g.Set(4)
	h.Observe(300 * time.Nanosecond)
	out := r.WritePrometheus(nil)
	want := strings.Join([]string{
		"# HELP app_requests_total Requests served.",
		"# TYPE app_requests_total counter",
		`app_requests_total{route="try"} 7`,
		`app_requests_total{route="admit"} 2`,
		"# HELP app_inflight In-flight requests.",
		"# TYPE app_inflight gauge",
		"app_inflight 4",
		"# HELP app_occupancy Live sessions.",
		"# TYPE app_occupancy gauge",
		"app_occupancy 3",
		"# HELP app_latency_seconds Request latency.",
		"# TYPE app_latency_seconds histogram",
		`app_latency_seconds_bucket{path="read",le="2.56e-07"} 0`,
		`app_latency_seconds_bucket{path="read",le="5.12e-07"} 1`,
		`app_latency_seconds_bucket{path="read",le="1.024e-06"} 1`,
		`app_latency_seconds_bucket{path="read",le="+Inf"} 1`,
		`app_latency_seconds_sum{path="read"} 3e-07`,
		`app_latency_seconds_count{path="read"} 1`,
		"",
	}, "\n")
	if string(out) != want {
		t.Fatalf("exposition mismatch:\n got:\n%s\nwant:\n%s", out, want)
	}
	if probs := Lint(out); len(probs) != 0 {
		t.Fatalf("lint problems: %v", probs)
	}
}

func TestLintCatchesProblems(t *testing.T) {
	cases := map[string]string{
		"no TYPE":        "# HELP a_total x\na_total 1\n",
		"no HELP":        "# TYPE a_total counter\na_total 1\n",
		"bad type":       "# HELP a x\n# TYPE a summary\na 1\n",
		"negative ctr":   "# HELP a_total x\n# TYPE a_total counter\na_total -1\n",
		"bad value":      "# HELP a x\n# TYPE a gauge\na one\n",
		"non-cumulative": "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
		"no +Inf":        "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
	}
	for name, expo := range cases {
		if probs := Lint([]byte(expo)); len(probs) == 0 {
			t.Errorf("%s: lint found nothing in %q", name, expo)
		}
	}
}

func TestRuntimeMetricsRender(t *testing.T) {
	r := NewRegistry()
	RegisterRuntime(r)
	out := r.WritePrometheus(nil)
	for _, fam := range []string{"go_goroutines", "go_heap_alloc_bytes", "go_gc_cycles_total", "go_gc_pause_seconds_total"} {
		if !bytes.Contains(out, []byte("# TYPE "+fam+" ")) {
			t.Fatalf("missing family %s in:\n%s", fam, out)
		}
	}
	if probs := Lint(out); len(probs) != 0 {
		t.Fatalf("lint problems: %v", probs)
	}
}

func TestRegistryPanicsOnMisuse(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	r := NewRegistry()
	r.NewCounter("ok_total", "h")
	mustPanic("bad name", func() { r.NewCounter("9bad", "h") })
	mustPanic("type clash", func() { r.NewGauge("ok_total", "h") })
	mustPanic("help clash", func() { r.NewCounter("ok_total", "other") })
	mustPanic("le label", func() { r.NewCounter("x_total", "h", Label{"le", "1"}) })
	mustPanic("shift range", func() { r.NewHistogram("h_x", "h", UnitCount, 5, 4) })
}

// TestHotPathAllocFree pins the instrumentation contract: counter
// adds, gauge moves and histogram observations allocate nothing.
func TestHotPathAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("t_total", "h")
	g := r.NewGauge("t_g", "h")
	h := r.NewHistogram("t_h_seconds", "h", UnitSeconds, 8, 31)
	if n := testing.AllocsPerRun(200, func() {
		c.Inc()
		c.Add(3)
		g.Set(9)
		g.Add(-1)
		h.ObserveInt(1234)
		h.ObserveGroup(20, 4)
	}); n != 0 {
		t.Fatalf("hot path allocates %v/op, want 0", n)
	}
}

func TestTraceID(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if len(a) != 32 || len(b) != 32 {
		t.Fatalf("trace id lengths %d/%d, want 32", len(a), len(b))
	}
	if a == b {
		t.Fatal("trace ids collide")
	}
	if !ValidTraceID(a) {
		t.Fatalf("generated id %q not valid", a)
	}
	for _, bad := range []string{"", strings.Repeat("x", 65), "has space", "quo\"te", "back\\slash", "ctrl\x01"} {
		if ValidTraceID(bad) {
			t.Errorf("ValidTraceID(%q) = true", bad)
		}
	}
	if !ValidTraceID("client-supplied/ID_1") {
		t.Error("reasonable client id rejected")
	}
}

func TestEventLogNDJSON(t *testing.T) {
	var buf bytes.Buffer
	l := NewEventLog(&buf)
	l.LogAttrs(context.Background(), slog.LevelInfo, "request",
		slog.String("trace", "abc"),
		slog.String("route", "try"),
		slog.Int("status", 200),
		slog.Int64("latency_us", (1500*time.Microsecond).Microseconds()),
		slog.Bool("read", true))
	l.Debug("dropped", "k", "v") // below threshold
	line := buf.String()
	if strings.Count(line, "\n") != 1 {
		t.Fatalf("want exactly one NDJSON line, got %q", line)
	}
	if !strings.HasPrefix(line, `{"ts":"`) || !strings.Contains(line, `,"level":"info","event":"request",`) {
		t.Fatalf("line does not lead with ts, level, event: %q", line)
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(line), &m); err != nil {
		t.Fatalf("line is not JSON: %v\n%q", err, line)
	}
	for k, want := range map[string]any{
		"level": "info", "event": "request", "trace": "abc",
		"route": "try", "status": float64(200), "latency_us": float64(1500), "read": true,
	} {
		if m[k] != want {
			t.Errorf("field %s = %v, want %v", k, m[k], want)
		}
	}
	ts, err := time.Parse(time.RFC3339Nano, m["ts"].(string))
	if err != nil {
		t.Errorf("ts %q: %v", m["ts"], err)
	} else if ts.Location() != time.UTC {
		t.Errorf("ts %q is not UTC", m["ts"])
	}
	for _, k := range []string{"time", "msg"} {
		if _, ok := m[k]; ok {
			t.Errorf("slog key %q leaked into the line", k)
		}
	}
}

func TestEventLogEscaping(t *testing.T) {
	var buf bytes.Buffer
	l := NewEventLog(&buf)
	l.Warn("e\"v\n", "k", "line\nbreak\ttab\x01ctl")
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("escaped line is not JSON: %v\n%q", err, buf.String())
	}
	if m["k"] != "line\nbreak\ttab\x01ctl" || m["event"] != "e\"v\n" || m["level"] != "warn" {
		t.Fatalf("roundtrip = %v", m)
	}
}

// TestConcurrentScrape exercises scrape-vs-update concurrency (run
// with -race in CI).
func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("t_total", "h")
	h := r.NewHistogram("t_h", "h", UnitCount, 0, 20)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.Inc()
					h.ObserveInt(42)
				}
			}
		}()
	}
	var buf []byte
	for i := 0; i < 50; i++ {
		buf = r.WritePrometheus(buf[:0])
		if probs := Lint(buf); len(probs) != 0 {
			t.Fatalf("lint under concurrency: %v", probs)
		}
	}
	close(stop)
	wg.Wait()
}

// TestInstrumentLayout pins the cache-line layout the instruments rely
// on: each is a whole number of 64-byte lines (so its heap size class
// keeps it line-aligned), and a histogram's header line holds no
// bucket.
func TestInstrumentLayout(t *testing.T) {
	const line = 64
	for name, size := range map[string]uintptr{
		"Counter":   unsafe.Sizeof(Counter{}),
		"Gauge":     unsafe.Sizeof(Gauge{}),
		"Histogram": unsafe.Sizeof(Histogram{}),
	} {
		if size%line != 0 {
			t.Errorf("%s is %d bytes, not a whole number of cache lines", name, size)
		}
	}
	if off := unsafe.Offsetof(Histogram{}.buckets); off != line {
		t.Errorf("histogram buckets start at byte %d, want %d", off, line)
	}
}
