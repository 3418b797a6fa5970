package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/api"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 50}, {0.9, 90}, {0.99, 100}, {0.01, 10}, {1, 100}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("empty sample must give 0")
	}
}

func TestTailQuantileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		okay bool
	}{
		{5, 0.5, false},    // not even the median has ten beyond
		{20, 0.5, true},    // 10 beyond the median
		{99, 0.5, true},    // 9.9 beyond p90: not enough
		{100, 0.9, true},   // exactly 10 beyond p90
		{999, 0.9, true},   // 9.99 beyond p99
		{1000, 0.99, true}, // exactly 10 beyond p99
		{9999, 0.99, true}, // 9.999 beyond p99.9
		{10000, 0.999, true},
		{300000, 0.9999, true},
	} {
		q, ok := tailQuantile(c.n)
		if q != c.q || ok != c.okay {
			t.Errorf("tailQuantile(%d) = %v,%v want %v,%v", c.n, q, ok, c.q, c.okay)
		}
	}
}

// Reference values from Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v,%v want 2.75,8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q3 != 3 {
		t.Errorf("quartiles(3,1,2) = %v,%v want 1,3", q1, q3)
	}
	if got := spread([]float64{90, 100, 110, 95, 105}); math.Abs(got-0.15) > 1e-12 {
		t.Errorf("spread = %v want 0.15", got)
	}
	if median([]float64{4, 1, 3, 2}) != 2.5 {
		t.Error("median of an even sample is the mean of the middle pair")
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{name: spanClientCall, parent: 0, start: 0, end: 100},   // id 1
		{name: spanRoundTrip, parent: 1, start: 10, end: 90},    // id 2
		{name: spanHandler, parent: 2, start: 30, end: 60},      // id 3
		{name: spanHandler, parent: 2, start: 50, end: 70},      // id 4: overlaps 3
		{name: spanHandler, parent: 2, start: 85, end: 120},     // id 5: runs past its parent
		{name: spanClientCall, parent: 0, start: 200, end: 260}, // id 6: no children
	}
	self := selfTimes(spans)
	// 1: 100 − child [10,90] = 20. 2: 80 − ([30,70] ∪ [85,90]) = 80 − 45 = 35.
	want := []int64{20, 35, 30, 20, 35, 60}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%d] = %d, want %d", i, self[i], want[i])
		}
	}
}

func TestRecorderDropsWhenFull(t *testing.T) {
	r := newRecorder(2, serveSpanNames)
	a := r.begin(spanClientCall, 0, 0)
	b := r.begin(spanHandler, a, 0)
	c := r.begin(spanHandler, a, 0)
	r.end(c)
	r.end(b)
	r.end(a)
	if a != 1 || b != 2 || c != 0 || r.dropped.Load() != 1 || len(r.recorded()) != 2 {
		t.Fatalf("ids %d,%d,%d dropped %d recorded %d", a, b, c, r.dropped.Load(), len(r.recorded()))
	}
}

// fakeClock advances only when told to: SleepUntil jumps to the
// target, and the send function below advances it by a service time.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	sched := openSchedule{start: clk.now, interval: 10 * time.Millisecond, count: 4}
	// Service times: request 1 stalls for 25 ms, so requests 2 and 3
	// are sent late and must be charged the wait.
	service := []time.Duration{2 * time.Millisecond, 25 * time.Millisecond, 2 * time.Millisecond, 2 * time.Millisecond}
	var got []openSample
	aborted := runSchedule(clk, sched,
		func(k int) bool { clk.now = clk.now.Add(service[k]); return true },
		func(_ int, s openSample) { got = append(got, s) })
	if aborted || len(got) != 4 {
		t.Fatalf("aborted=%v samples=%d", aborted, len(got))
	}
	ms := time.Millisecond
	want := []openSample{
		{late: 0, fromDue: 2 * ms, ok: true},
		{late: 0, fromDue: 25 * ms, ok: true},
		{late: 15 * ms, fromDue: 17 * ms, ok: true}, // due at 20, sent at 35
		{late: 7 * ms, fromDue: 9 * ms, ok: true},   // due at 30, sent at 37
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sample %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestOpenLoopAbortsOnceASendIsASecondLate(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	sched := openSchedule{start: clk.now, interval: 10 * time.Millisecond, count: 100}
	sent := 0
	aborted := runSchedule(clk, sched,
		func(int) bool { sent++; clk.now = clk.now.Add(400 * time.Millisecond); return true },
		func(int, openSample) {})
	// Request k is sent at 400k ms and due at 10k ms: lateness 390k ms
	// passes one second at k = 3.
	if !aborted || sent != 3 {
		t.Fatalf("aborted=%v after %d sends, want abort after 3", aborted, sent)
	}
}

func TestStepPassRule(t *testing.T) {
	lat := make([]int64, 1000)
	for i := range lat {
		lat[i] = int64(time.Millisecond)
	}
	s := stepResult{scheduled: 1000, completed: 1000, all: lat}
	if !s.passes() {
		t.Error("a clean step inside the limit must pass")
	}
	s.completed = 980
	if s.passes() {
		t.Error("under 99 % completed must not pass")
	}
	s.completed, s.aborted = 1000, true
	if s.passes() {
		t.Error("an aborted step must not pass")
	}
	s.aborted = false
	for i := 985; i < 1000; i++ {
		lat[i] = int64(6 * time.Millisecond)
	}
	if s.passes() {
		t.Error("p99 over the limit must not pass")
	}
}

// The resident-window driver: whatever the verdicts, an admit never
// names a resident ID, a remove always names a resident one, and the
// window is never exceeded.
func TestDriverNeverDuplicatesOrMisses(t *testing.T) {
	for _, mix := range []mixSpec{specReadLight.mix, specProbeHeavy.mix, specWriteDurable.mix, specMixedTCP.mix} {
		m := newSessModel(7, 3, "s", mix)
		m.seeded = []int64{1, 2, 3}
		resident := map[int64]bool{1: true, 2: true, 3: true}
		for i := 0; i < 20000; i++ {
			o := m.next()
			switch o.kind {
			case opTry:
				if resident[o.task.ID] {
					t.Fatalf("try names resident ID %d", o.task.ID)
				}
			case opAdmit:
				if resident[o.task.ID] {
					t.Fatalf("duplicate admit of %d", o.task.ID)
				}
				admitted := i%5 != 0 // the server refuses one in five
				m.ackVerdictForTest(&o, admitted)
				if admitted {
					resident[o.task.ID] = true
				}
			case opRemove:
				if !resident[o.id] {
					t.Fatalf("remove of absent ID %d", o.id)
				}
				m.ackRemove(&o)
				delete(resident, o.id)
			}
			if len(m.extras) > mix.window {
				t.Fatalf("window exceeded: %d extras", len(m.extras))
			}
		}
		want := m.resident()
		if len(want) != len(resident) {
			t.Fatalf("model says %d resident, truth %d", len(want), len(resident))
		}
	}
}

func TestSameSeedSameStream(t *testing.T) {
	draw := func(seed int64) (ops []op, digest uint64) {
		m := newSessModel(seed, 5, "s", specProbeHeavy.mix)
		for i := 0; i < 500; i++ {
			o := m.next()
			ops = append(ops, o)
			switch o.kind {
			case opAdmit:
				m.ackVerdictForTest(&o, true)
			case opRemove:
				m.ackRemove(&o)
			}
		}
		return ops, m.digest
	}
	a, da := draw(11)
	b, db := draw(11)
	c, dc := draw(12)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs between two draws of one seed", i)
		}
	}
	if da != db {
		t.Error("digests of one seed differ")
	}
	if dc == da || c[0] == a[0] {
		t.Error("a different seed must give a different stream")
	}
}

// Unique-mode tasks must not repeat a shape, or probe memos would hit.
func TestUniqueTasksDoNotRepeat(t *testing.T) {
	m := newSessModel(1, 0, "s", specProbeHeavy.mix)
	seen := map[[3]int64]bool{}
	for i := 0; i < 5000; i++ {
		tk := m.drawTask(int64(i + 1))
		k := [3]int64{tk.WCETNs, tk.PeriodNs, int64(tk.Priority)}
		if seen[k] {
			t.Fatalf("task shape %v repeated", k)
		}
		seen[k] = true
		if tk.WCETNs <= 0 || tk.WCETNs > tk.PeriodNs {
			t.Fatalf("bad task %+v", tk)
		}
	}
}

func smokeOpts(trace bool, dir string) runOpts {
	return runOpts{seed: 3, seconds: 3, trace: trace, short: 100, nclient: 2, traceOut: dir}
}

// The -short smoke: every workload at 1/100 size, untraced and
// traced, must end with nothing failed and a complete result line.
func TestSmokeAllWorkloads(t *testing.T) {
	chdirScratch(t)
	for _, trace := range []bool{false, true} {
		for _, w := range workloads {
			res, err := runWorkload(w.Name, smokeOpts(trace, t.TempDir()))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: failed=%d attempted=%d %v", w.Name, trace, res.Failed, res.Attempted, res.Msgs)
			}
			var line jsonResult
			if err := json.Unmarshal([]byte(res.resultLine(trace)), &line); err != nil {
				t.Fatal(err)
			}
			want := len(endToEnd)
			if trace {
				want = len(perLayer)
			}
			if len(line.Metrics) != want || !line.Correct {
				t.Errorf("%s trace=%v: %d metrics (want %d), correct=%v", w.Name, trace, len(line.Metrics), want, line.Correct)
			}
			if !trace {
				for name, m := range line.Metrics {
					if !(m.Value > 0) {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, name, m.Value)
					}
				}
			}
			var buf bytes.Buffer
			res.print(&buf, trace)
			if trace && !strings.Contains(buf.String(), "layer table") {
				t.Errorf("%s: traced report has no layer table", w.Name)
			}
		}
	}
}

// Two runs of one seed must agree on everything that is a count: the
// verdict digest and the exact per-layer ratios.
func TestSameSeedSameDigest(t *testing.T) {
	chdirScratch(t)
	for _, w := range []string{specProbeHeavy.name, specWriteDurable.name, sweepName} {
		a, err := runWorkload(w, smokeOpts(false, t.TempDir()))
		if err != nil {
			t.Fatal(err)
		}
		b, err := runWorkload(w, smokeOpts(false, t.TempDir()))
		if err != nil {
			t.Fatal(err)
		}
		if a.Digest == "" || a.Digest != b.Digest {
			t.Errorf("%s: digests %q vs %q", w, a.Digest, b.Digest)
		}
		// Another seed is other work: request streams, resident task
		// sets and the sweep's task sets are all drawn from it.
		other := smokeOpts(false, t.TempDir())
		other.seed++
		c, err := runWorkload(w, other)
		if err != nil {
			t.Fatal(err)
		}
		if c.Digest == a.Digest {
			t.Errorf("%s: seeds %d and %d give the same digest %q", w, other.seed-1, other.seed, c.Digest)
		}
	}
}

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in metrics.go")

// manifestJSON renders BENCHMARK.json from the tables in metrics.go
// and report.go, so the declaration and the program cannot drift
// apart.
func manifestJSON(t *testing.T) string {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl(w))
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, bounds[d.Name]})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
}

// BENCHMARK.json is what the program declares (go test -update
// rewrites it), every per-layer metric has its expectation written
// down and its row in the README's dictionary, and every bound is one
// the contract allows.
func TestManifestMatches(t *testing.T) {
	want := manifestJSON(t)
	if *update {
		if err := os.WriteFile("../BENCHMARK.json", []byte(want), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the module: %v", err)
	}
	if string(committed) != want {
		t.Error("BENCHMARK.json differs from what the program declares; rewrite it with go test -run TestManifestMatches -update")
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, d := range perLayer {
		if seen[d.Name] || d.Moves == "" {
			t.Errorf("per-layer metric %q is duplicated or has no expectation written down", d.Name)
		}
		seen[d.Name] = true
		if !bytes.Contains(readme, []byte("| `"+d.Name+"` |")) {
			t.Errorf("per-layer metric %q has no row in README.md's dictionary", d.Name)
		}
	}
	for _, d := range endToEnd {
		if b := bounds[d.Name]; b <= 0 || b > 0.25 {
			t.Errorf("end-to-end metric %q has bound %v", d.Name, b)
		}
	}
}

func TestHostValidation(t *testing.T) {
	if err := (hostRecord{NumCPU: 1, GOMAXPROCS: 1}).validate(); err == nil {
		t.Error("one CPU must void the run")
	}
	if err := (hostRecord{NumCPU: 2, GOMAXPROCS: 4}).validate(); err == nil {
		t.Error("an oversubscribed GOMAXPROCS must void the run")
	}
	if err := (hostRecord{NumCPU: 2, GOMAXPROCS: 2}).validate(); err != nil {
		t.Error(err)
	}
}

// chdirScratch runs the test from a temporary directory, so the WAL
// scratch the durable workload creates under .bench_build lands there.
func chdirScratch(t *testing.T) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(old) }) //nolint:errcheck // best effort
}

// ackVerdictForTest applies a synthetic admit verdict.
func (m *sessModel) ackVerdictForTest(o *op, admitted bool) {
	v := api.Verdict{TaskID: o.task.ID, Admitted: admitted, Core: -1}
	if admitted {
		v.Core = 0
	}
	m.ackVerdict(o, v)
}
