package overhead

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"repro/internal/timeq"
)

func TestPaperModelTable1Anchors(t *testing.T) {
	m := PaperModel()
	cases := []struct {
		op     Op
		n      int
		remote bool
		want   timeq.Time
	}{
		{SleepAdd, 4, false, 2500},
		{SleepAdd, 4, true, 2900},
		{SleepAdd, 64, false, 4300},
		{SleepAdd, 64, true, 4400},
		{SleepDelete, 4, false, 3300},
		{SleepDelete, 64, false, 5800},
		{ReadyAdd, 4, false, 1500},
		{ReadyAdd, 4, true, 3300},
		{ReadyAdd, 64, false, 4400},
		{ReadyAdd, 64, true, 4600},
		{ReadyDelete, 4, false, 2700},
		{ReadyDelete, 64, false, 4600},
	}
	for _, c := range cases {
		if got := m.QueueOpCost(c.op, c.n, c.remote); got != c.want {
			t.Errorf("%v n=%d remote=%v: got %v, want %v", c.op, c.n, c.remote, got, c.want)
		}
	}
}

func TestPaperModelFunctionCosts(t *testing.T) {
	m := PaperModel()
	if m.Release != 3*timeq.Microsecond {
		t.Errorf("rls = %v, want 3µs", m.Release)
	}
	if m.Sched != 5*timeq.Microsecond {
		t.Errorf("sch = %v, want 5µs", m.Sched)
	}
	if m.CtxSwitch != 1500*timeq.Nanosecond {
		t.Errorf("cnt = %v, want 1.5µs", m.CtxSwitch)
	}
}

// Section 3: "when N = 4, δ = 3.3µs and θ = 3.3µs; when N = 64,
// δ = 4.6µs and θ = 5.8µs".
func TestPaperDeltaTheta(t *testing.T) {
	m := PaperModel()
	if d := m.Delta(4); d != 3300 {
		t.Errorf("δ(4) = %v, want 3.3µs", d)
	}
	if th := m.Theta(4); th != 3300 {
		t.Errorf("θ(4) = %v, want 3.3µs", th)
	}
	if d := m.Delta(64); d != 4600 {
		t.Errorf("δ(64) = %v, want 4.6µs", d)
	}
	if th := m.Theta(64); th != 5800 {
		t.Errorf("θ(64) = %v, want 5.8µs", th)
	}
}

func TestCostInterpolationMonotone(t *testing.T) {
	m := PaperModel()
	prev := timeq.Time(0)
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256} {
		c := m.QueueOpCost(ReadyAdd, n, false)
		if c < prev {
			t.Errorf("cost not monotone at n=%d: %v < %v", n, c, prev)
		}
		prev = c
	}
	// Extrapolation beyond 64 keeps growing.
	if m.QueueOpCost(ReadyAdd, 256, false) <= m.QueueOpCost(ReadyAdd, 64, false) {
		t.Error("no extrapolation beyond N=64")
	}
	// Below 4 clamps to the floor.
	if m.QueueOpCost(ReadyAdd, 1, false) != m.QueueOpCost(ReadyAdd, 4, false) {
		t.Error("below N=4 should clamp")
	}
}

func TestQuickInterpolationBounds(t *testing.T) {
	m := PaperModel()
	f := func(nRaw uint8) bool {
		n := int(nRaw%61) + 4 // 4..64
		for op := Op(0); op < numOps; op++ {
			c := m.QueueOpCost(op, n, false)
			if c < m.Queues.LocalN4[op] || c > m.Queues.LocalN64[op] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZeroModel(t *testing.T) {
	z := Zero()
	if !z.IsZero() {
		t.Fatal("Zero() is not zero")
	}
	if z.Delta(64) != 0 || z.Theta(64) != 0 {
		t.Fatal("zero model charges queue costs")
	}
	if z.Cache.Delay(1<<20, true) != 0 {
		t.Fatal("zero model charges CPMD")
	}
	if PaperModel().IsZero() {
		t.Fatal("paper model reported as zero")
	}
}

func TestRemotePenaltyScalesOnlyExtra(t *testing.T) {
	m := PaperModel().WithRemotePenalty(2)
	local := m.QueueOpCost(ReadyAdd, 4, false) // 1.5µs
	remote := m.QueueOpCost(ReadyAdd, 4, true) // 1.5 + 2·(3.3−1.5) = 5.1µs
	if local != 1500 {
		t.Fatalf("local changed: %v", local)
	}
	if remote != 1500+2*(3300-1500) {
		t.Fatalf("remote = %v, want 5.1µs", remote)
	}
	// Penalty 1 reproduces the measurement.
	if PaperModel().QueueOpCost(ReadyAdd, 4, true) != 3300 {
		t.Fatal("penalty 1 distorted measured value")
	}
}

// TestQueueOpCostsMatchesQueueOpCost: the batched costs, interpolated
// from one log2(n), equal QueueOpCost op by op — and QueueOpCost the
// per-call interpolation it always was — at every queue bound a core
// can reach, under remote penalties and scaled and inverted anchors.
func TestQueueOpCostsMatchesQueueOpCost(t *testing.T) {
	inverted := PaperModel()
	inverted.Queues.LocalN64[SleepDelete] = inverted.Queues.LocalN4[SleepDelete] / 2
	var ops []QueueOp
	for op := Op(0); op < numOps; op++ {
		ops = append(ops, QueueOp{op, false}, QueueOp{op, true})
	}
	out := make([]timeq.Time, len(ops))
	for _, m := range []*Model{Zero(), PaperModel(), PaperModel().WithRemotePenalty(2.5), PaperModel().Scale(1.7), inverted} {
		for n := 0; n <= 300; n++ {
			m.QueueOpCosts(n, ops, out)
			for i, o := range ops {
				want := perCallCost(m, o.Op, n, o.Remote)
				if got := m.QueueOpCost(o.Op, n, o.Remote); got != want || out[i] != want {
					t.Fatalf("%v remote=%v n=%d: QueueOpCosts %v, QueueOpCost %v, per-call interpolation %v", o.Op, o.Remote, n, out[i], got, want)
				}
			}
		}
	}
}

// perCallCost spells out QueueOpCost with its own log2 per anchor pair.
func perCallCost(m *Model, op Op, n int, remote bool) timeq.Time {
	cost := func(lo, hi timeq.Time) timeq.Time {
		if n <= 4 {
			return lo
		}
		f := (math.Log2(float64(n)) - 2) / 4
		return timeq.Time(math.Round(math.Max(float64(lo)+f*float64(hi-lo), float64(lo))))
	}
	local := cost(m.Queues.LocalN4[op], m.Queues.LocalN64[op])
	if !remote {
		return local
	}
	r := cost(m.Queues.RemoteN4[op], m.Queues.RemoteN64[op])
	if r <= local {
		return r
	}
	p := m.RemotePenalty
	if p == 0 {
		p = 1
	}
	return local + timeq.Time(math.Round(float64(r-local)*p))
}

func TestScale(t *testing.T) {
	m := PaperModel().Scale(2)
	if m.Release != 6*timeq.Microsecond || m.Sched != 10*timeq.Microsecond {
		t.Fatalf("Scale(2): rls=%v sch=%v", m.Release, m.Sched)
	}
	if m.QueueOpCost(SleepAdd, 4, false) != 5000 {
		t.Fatalf("Scale(2) queue cost = %v", m.QueueOpCost(SleepAdd, 4, false))
	}
}

func TestCacheModelRegimes(t *testing.T) {
	c := DefaultCacheModel()
	// Large working set (4 MiB): local ≈ migration (paper's finding).
	big := int64(4 << 20)
	l, mg := c.Delay(big, false), c.Delay(big, true)
	if l != mg {
		t.Errorf("large WSS: local %v vs migration %v, want equal with factor 1", l, mg)
	}
	if l == 0 {
		t.Error("large WSS delay is zero")
	}
	// Tiny working set (8 KiB): local much cheaper than migration.
	small := int64(8 << 10)
	ls, ms := c.Delay(small, false), c.Delay(small, true)
	if ls >= ms {
		t.Errorf("small WSS: local %v should be < migration %v", ls, ms)
	}
	// Beyond shared cache: DRAM portion charged.
	huge := int64(16 << 20)
	if c.Delay(huge, true) <= c.Delay(big, true) {
		t.Error("DRAM overflow not charged")
	}
	// Zero WSS and zero model are free.
	if c.Delay(0, true) != 0 {
		t.Error("zero WSS should be free")
	}
	var z CacheModel
	if z.Delay(1<<20, true) != 0 {
		t.Error("zero model should be free")
	}
}

func TestCacheMaxDelay(t *testing.T) {
	c := DefaultCacheModel().WithMigrationFactor(3)
	wss := int64(1 << 20)
	if c.MaxDelay(wss) != c.Delay(wss, true) {
		t.Error("MaxDelay should pick migration when factor > 1")
	}
}

func TestOpString(t *testing.T) {
	if SleepAdd.String() != "sleep queue – add" {
		t.Errorf("got %q", SleepAdd.String())
	}
	if Op(99).String() == "" {
		t.Error("out-of-range op has empty name")
	}
}

func TestModelJSONRoundTrip(t *testing.T) {
	m := PaperModel().WithRemotePenalty(2.5)
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back Model
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Release != m.Release || back.Sched != m.Sched || back.CtxSwitch != m.CtxSwitch {
		t.Fatal("function costs lost")
	}
	if back.Queues != m.Queues {
		t.Fatalf("queue costs lost:\n%+v\n%+v", back.Queues, m.Queues)
	}
	if back.Cache != m.Cache {
		t.Fatal("cache model lost")
	}
	if back.RemotePenalty != 2.5 {
		t.Fatal("remote penalty lost")
	}
}

func TestModelJSONUnknownOp(t *testing.T) {
	var m Model
	if err := json.Unmarshal([]byte(`{"queues":{"bogus":{}}}`), &m); err == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestLoadSaveModel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.json")
	if err := SaveModel(path, PaperModel()); err != nil {
		t.Fatal(err)
	}
	m, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Delta(4) != 3300 || m.Theta(64) != 5800 {
		t.Fatal("loaded model miscalibrated")
	}
	if _, err := LoadModel(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(bad, []byte("{"), 0o644)
	if _, err := LoadModel(bad); err == nil {
		t.Fatal("corrupt file accepted")
	}
}
