package taskgen

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/task"
	"repro/internal/timeq"
)

func TestUUniFastSumsToTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 5, 20, 100} {
		for _, u := range []float64{0.5, 1.0, 3.2} {
			us := UUniFast(rng, n, u)
			if len(us) != n {
				t.Fatalf("got %d values", len(us))
			}
			sum := 0.0
			for _, x := range us {
				if x < 0 {
					t.Fatalf("negative utilization %v", x)
				}
				sum += x
			}
			if math.Abs(sum-u) > 1e-9 {
				t.Fatalf("sum %v, want %v", sum, u)
			}
		}
	}
}

func TestQuickUUniFastSum(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(nRaw uint8, uRaw uint16) bool {
		n := int(nRaw%50) + 1
		u := float64(uRaw%400)/100 + 0.01
		us := UUniFast(rng, n, u)
		sum := 0.0
		for _, x := range us {
			sum += x
		}
		return math.Abs(sum-u) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	cfg := Config{N: 12, TotalUtilization: 2.4, Seed: 42}
	a := New(cfg).Next()
	b := New(cfg).Next()
	if a.Len() != b.Len() {
		t.Fatal("lengths differ")
	}
	for i := range a.Tasks {
		if *a.Tasks[i] != *b.Tasks[i] {
			t.Fatalf("task %d differs: %+v vs %+v", i, a.Tasks[i], b.Tasks[i])
		}
	}
	// Different seed differs (overwhelmingly likely).
	cfg.Seed = 43
	c := New(cfg).Next()
	same := true
	for i := range a.Tasks {
		if *a.Tasks[i] != *c.Tasks[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical sets")
	}
}

func TestGeneratedSetsAreValid(t *testing.T) {
	g := New(Config{N: 20, TotalUtilization: 3.0, Seed: 5})
	for _, s := range g.Batch(50) {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		if s.Len() != 20 {
			t.Fatalf("set size %d", s.Len())
		}
		// Total utilization close to target (rounding of C introduces
		// tiny error at ns resolution).
		if math.Abs(s.TotalUtilization()-3.0) > 0.001 {
			t.Fatalf("ΣU = %v", s.TotalUtilization())
		}
		// RM priorities assigned and unique.
		seen := map[int]bool{}
		for _, tk := range s.Tasks {
			if tk.Priority == 0 || seen[tk.Priority] {
				t.Fatalf("bad priority %d", tk.Priority)
			}
			seen[tk.Priority] = true
		}
	}
}

func TestMaxTaskUtilizationRespected(t *testing.T) {
	g := New(Config{N: 10, TotalUtilization: 2.0, MaxTaskUtilization: 0.5, Seed: 9})
	for _, s := range g.Batch(30) {
		if u := s.MaxUtilization(); u > 0.5001 {
			t.Fatalf("task utilization %v exceeds cap", u)
		}
	}
}

func TestPeriodRanges(t *testing.T) {
	for _, dist := range []PeriodDist{LogUniform, Uniform, Harmonic} {
		g := New(Config{
			N: 30, TotalUtilization: 3.0, Seed: 11,
			PeriodMin: 10 * timeq.Millisecond,
			PeriodMax: 1000 * timeq.Millisecond,
			Periods:   dist,
		})
		s := g.Next()
		for _, tk := range s.Tasks {
			if tk.Period < 10*timeq.Millisecond || tk.Period > 1000*timeq.Millisecond {
				t.Fatalf("%v: period %v out of range", dist, tk.Period)
			}
			if dist == Harmonic {
				r := float64(tk.Period) / float64(10*timeq.Millisecond)
				if math.Abs(r-math.Round(r)) > 1e-9 || (math.Round(r) != 1 && int64(math.Round(r))&(int64(math.Round(r))-1) != 0) {
					t.Fatalf("harmonic period %v not power-of-2 multiple", tk.Period)
				}
			}
		}
	}
}

func TestWSSRange(t *testing.T) {
	g := New(Config{N: 30, TotalUtilization: 3.0, Seed: 13, WSSMin: 1 << 10, WSSMax: 1 << 20})
	s := g.Next()
	for _, tk := range s.Tasks {
		if tk.WSS < 1<<10 || tk.WSS > 1<<20 {
			t.Fatalf("WSS %d out of range", tk.WSS)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{N: 0, TotalUtilization: 1},
		{N: 5, TotalUtilization: 0},
		{N: 5, TotalUtilization: 1, MaxTaskUtilization: 1.5},
		{N: 2, TotalUtilization: 3.0},                            // impossible: 2 tasks, ΣU=3
		{N: 5, TotalUtilization: 1, PeriodMin: 10, PeriodMax: 5}, // inverted periods
		{N: 5, TotalUtilization: 1, WSSMin: 10, WSSMax: 5},       // inverted WSS
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	good := Config{N: 8, TotalUtilization: 2.0}
	if err := good.Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{N: 0, TotalUtilization: 1})
}

func TestPeriodDistString(t *testing.T) {
	if LogUniform.String() != "log-uniform" || Uniform.String() != "uniform" || Harmonic.String() != "harmonic" {
		t.Error("dist names wrong")
	}
	if PeriodDist(9).String() == "" {
		t.Error("unknown dist empty")
	}
}

func TestAutomotivePeriods(t *testing.T) {
	g := New(Config{N: 40, TotalUtilization: 4.0, Seed: 21, Periods: Automotive})
	valid := map[timeq.Time]bool{}
	for _, p := range []int64{1, 2, 5, 10, 20, 50, 100, 200, 1000} {
		valid[timeq.Time(p)*timeq.Millisecond] = true
	}
	counts := map[timeq.Time]int{}
	for _, s := range g.Batch(20) {
		for _, tk := range s.Tasks {
			if !valid[tk.Period] {
				t.Fatalf("period %v not in the automotive histogram", tk.Period)
			}
			counts[tk.Period]++
		}
	}
	// The heavy bins (10ms, 20ms, 100ms) must dominate the light ones.
	if counts[10*timeq.Millisecond] < counts[1*timeq.Millisecond] {
		t.Error("10ms bin should outweigh 1ms bin")
	}
	if Automotive.String() != "automotive" {
		t.Error("name")
	}
}

func TestAutomotiveSetsSchedulable(t *testing.T) {
	// Smoke: automotive sets validate and carry sensible utilization.
	g := New(Config{N: 20, TotalUtilization: 2.0, Seed: 9, Periods: Automotive})
	s := g.Next()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestNextIntoMatchesNext is the golden-seed determinism guard for
// pooled generation: a recycled set filled by NextInto must be
// byte-identical to the set a fresh generator's Next produces, across
// every period distribution and across many sets drawn from one
// recycled slab (stale-state bugs only show up from the second set
// on).
func TestNextIntoMatchesNext(t *testing.T) {
	dists := []PeriodDist{LogUniform, Uniform, Harmonic, Automotive}
	for _, dist := range dists {
		t.Run(dist.String(), func(t *testing.T) {
			cfg := Config{N: 12, TotalUtilization: 3.1, Periods: dist, Seed: 9000 + int64(dist)}
			fresh := New(cfg)
			pooled := New(cfg)
			var recycled *task.Set
			for k := 0; k < 10; k++ {
				want := fresh.Next()
				recycled = pooled.NextInto(recycled)
				if recycled.Len() != want.Len() {
					t.Fatalf("set %d: %d tasks, want %d", k, recycled.Len(), want.Len())
				}
				for i := range want.Tasks {
					if *recycled.Tasks[i] != *want.Tasks[i] {
						t.Fatalf("set %d task %d: %+v, want %+v", k, i, recycled.Tasks[i], want.Tasks[i])
					}
				}
			}
		})
	}
}

// TestReconfigureMatchesNew pins that one long-lived generator,
// Reconfigured per (seed, utilization) point, replays exactly what a
// fresh New at each point would draw.
func TestReconfigureMatchesNew(t *testing.T) {
	g := New(Config{N: 4, TotalUtilization: 1.0, Seed: 1})
	var set *task.Set
	for _, u := range []float64{1.5, 2.5, 3.5} {
		for seed := int64(100); seed < 103; seed++ {
			cfg := Config{N: 10, TotalUtilization: u, Periods: Harmonic, Seed: seed}
			g.Reconfigure(cfg)
			set = g.NextInto(set)
			want := New(cfg).Next()
			for i := range want.Tasks {
				if *set.Tasks[i] != *want.Tasks[i] {
					t.Fatalf("u=%v seed=%d task %d: %+v, want %+v", u, seed, i, set.Tasks[i], want.Tasks[i])
				}
			}
		}
	}
}

func TestGenerateTaskSets(t *testing.T) {
	sets := New(Config{N: 5, TotalUtilization: 1.0, Seed: 9}).Batch(3)
	if len(sets) != 3 {
		t.Fatalf("got %d sets", len(sets))
	}
	for _, s := range sets {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}
