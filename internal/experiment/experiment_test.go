package experiment

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/overhead"
	"repro/internal/partition"
	"repro/internal/timeq"
)

// small returns a quick sweep config for tests.
func small() Config {
	return Config{
		Cores:        4,
		Tasks:        8,
		SetsPerPoint: 20,
		Utilizations: []float64{2.4, 3.2, 3.8},
		Seed:         7,
	}
}

func TestRunProducesFullGrid(t *testing.T) {
	r := Run(small())
	if len(r.Series) != 3 {
		t.Fatalf("series %d, want 3 (FP-TS, FFD, WFD)", len(r.Series))
	}
	for _, s := range r.Series {
		if len(s.Points) != 3 {
			t.Fatalf("%s: %d points", s.Algorithm, len(s.Points))
		}
		for _, p := range s.Points {
			if p.Total != 20 {
				t.Fatalf("%s U=%v: total %d", s.Algorithm, p.TotalUtilization, p.Total)
			}
			if p.Accepted < 0 || p.Accepted > p.Total {
				t.Fatalf("bad accepted count %d", p.Accepted)
			}
			if p.Ratio < p.WilsonLo-1e-9 || p.Ratio > p.WilsonHi+1e-9 {
				t.Fatalf("ratio outside Wilson interval")
			}
		}
	}
}

func TestDeterministicSweep(t *testing.T) {
	a, b := Run(small()), Run(small())
	for i := range a.Series {
		for j := range a.Series[i].Points {
			if a.Series[i].Points[j].Accepted != b.Series[i].Points[j].Accepted {
				t.Fatal("sweep not deterministic")
			}
		}
	}
}

// The headline result: FP-TS acceptance dominates FFD and WFD at
// every grid point (paired sets + splitting fallback make this exact,
// not statistical).
func TestFPTSDominates(t *testing.T) {
	r := Run(small())
	byName := map[string][]Point{}
	for _, s := range r.Series {
		byName[s.Algorithm] = s.Points
	}
	ts, ffd, wfd := byName["FP-TS"], byName["FFD"], byName["WFD"]
	for i := range ts {
		if ts[i].Accepted < ffd[i].Accepted || ts[i].Accepted < wfd[i].Accepted {
			t.Fatalf("point %d: FP-TS %d vs FFD %d / WFD %d", i, ts[i].Accepted, ffd[i].Accepted, wfd[i].Accepted)
		}
	}
	// And strictly better somewhere in the high-utilization range.
	strict := false
	for i := range ts {
		if ts[i].Accepted > ffd[i].Accepted {
			strict = true
		}
	}
	if !strict {
		t.Fatal("FP-TS never strictly better; sweep grid too easy")
	}
}

// Acceptance ratio decreases with utilization for every algorithm.
func TestMonotoneDecreasingInUtilization(t *testing.T) {
	cfg := small()
	cfg.SetsPerPoint = 40
	r := Run(cfg)
	for _, s := range r.Series {
		for i := 1; i < len(s.Points); i++ {
			// Allow small statistical wiggle (2 sets).
			if s.Points[i].Accepted > s.Points[i-1].Accepted+2 {
				t.Errorf("%s: acceptance rose from %d to %d between U=%v and U=%v",
					s.Algorithm, s.Points[i-1].Accepted, s.Points[i].Accepted,
					s.Points[i-1].TotalUtilization, s.Points[i].TotalUtilization)
			}
		}
	}
}

// Overhead integration shifts curves only slightly for ms-scale
// periods (the paper's conclusion): at every grid point the
// acceptance drop from zero-overhead to paper-overhead is small.
func TestOverheadEffectIsSmall(t *testing.T) {
	cfg := small()
	cfg.SetsPerPoint = 40
	zero := Run(cfg)
	cfg.Model = overhead.PaperModel()
	paper := Run(cfg)
	for si := range zero.Series {
		for pi := range zero.Series[si].Points {
			z := zero.Series[si].Points[pi]
			p := paper.Series[si].Points[pi]
			drop := z.Ratio - p.Ratio
			if drop < 0 {
				t.Errorf("%s U=%v: overheads improved acceptance?", zero.Series[si].Algorithm, z.TotalUtilization)
			}
			if drop > 0.15 {
				t.Errorf("%s U=%v: overhead cost %.3f too large for ms periods", zero.Series[si].Algorithm, z.TotalUtilization, drop)
			}
		}
	}
}

// With simulation validation on, no accepted assignment misses.
func TestSimValidationCleanSweep(t *testing.T) {
	cfg := small()
	cfg.SetsPerPoint = 10
	cfg.Model = overhead.PaperModel()
	cfg.SimHorizon = 2 * timeq.Second
	r := Run(cfg)
	if v := r.TotalSimViolations(); v != 0 {
		t.Fatalf("%d accepted assignments missed deadlines in simulation", v)
	}
}

func TestSplitStatistics(t *testing.T) {
	cfg := small()
	cfg.Utilizations = []float64{3.8} // force splitting
	cfg.SetsPerPoint = 30
	r := Run(cfg)
	for _, s := range r.Series {
		for _, p := range s.Points {
			switch s.Algorithm {
			case "FP-TS":
				if p.Accepted > 0 && p.Splits == 0 {
					t.Error("FP-TS accepted at U/m=0.95 without splitting; implausible")
				}
			default:
				if p.Splits != 0 {
					t.Errorf("%s reports splits", s.Algorithm)
				}
			}
		}
	}
}

func TestOutputFormats(t *testing.T) {
	r := Run(small())
	table := r.Table()
	if !strings.Contains(table, "FP-TS") || !strings.Contains(table, "0.600") {
		t.Errorf("table:\n%s", table)
	}
	csv := r.CSV()
	if !strings.Contains(csv, "algorithm,total_utilization") || strings.Count(csv, "\n") != 1+3*3 {
		t.Errorf("csv rows wrong:\n%s", csv)
	}
	if r.WeightedScore("FP-TS") <= 0 {
		t.Error("weighted score")
	}
	if r.WeightedScore("nope") != 0 {
		t.Error("unknown algorithm score should be 0")
	}
	names := r.SeriesNames()
	if len(names) != 3 || names[0] != "FFD" {
		t.Errorf("names %v", names)
	}
}

func TestPlot(t *testing.T) {
	r := Run(small())
	p := r.Plot(10)
	for _, want := range []string{"acceptance ratio", "U/m (%)", "* FP-TS", "o FFD", "+ WFD", " 1.00 |", " 0.00 |"} {
		if !strings.Contains(p, want) {
			t.Errorf("plot missing %q:\n%s", want, p)
		}
	}
	// Degenerate height falls back to a sane default.
	if r.Plot(1) == "" {
		t.Error("tiny height produced nothing")
	}
}

func TestCustomAlgorithms(t *testing.T) {
	cfg := small()
	cfg.Algorithms = []partition.Algorithm{partition.SPA1, partition.SPA2}
	r := Run(cfg)
	if len(r.Series) != 2 || r.Series[0].Algorithm != "SPA1" {
		t.Fatalf("custom algorithms not honored: %v", r.SeriesNames())
	}
}

// EDF algorithms are validated under EDF dispatching: a sweep with
// simulation validation over the EDF algorithms must be clean.
func TestEDFSimValidationCleanSweep(t *testing.T) {
	cfg := small()
	cfg.SetsPerPoint = 8
	cfg.Algorithms = []partition.Algorithm{partition.WM, partition.EDFFFD}
	cfg.Model = overhead.PaperModel()
	cfg.SimHorizon = 2 * timeq.Second
	r := Run(cfg)
	if v := r.TotalSimViolations(); v != 0 {
		t.Fatalf("%d EDF assignments missed in simulation", v)
	}
}

func TestSweepSmoke(t *testing.T) {
	r := Run(Config{
		Cores: 4, Tasks: 8, SetsPerPoint: 10,
		Utilizations: []float64{3.0, 3.6},
		Seed:         5,
	})
	if len(r.Series) != 3 {
		t.Fatalf("series %d", len(r.Series))
	}
	if r.Table() == "" || r.CSV() == "" {
		t.Fatal("empty outputs")
	}
}

// TestRunStatsScopedPerRun checks the per-run collector: two
// identical sweeps running concurrently must each report exactly the
// admission work a solo run reports — the process-global
// contamination the collector replaced would double the totals.
func TestRunStatsScopedPerRun(t *testing.T) {
	cfg := Config{
		Cores: 4, Tasks: 10, SetsPerPoint: 10, Seed: 7,
		Utilizations: []float64{2.4, 2.8},
		Algorithms:   []partition.Algorithm{partition.FFD, partition.TS},
		Model:        overhead.PaperModel(),
	}
	solo := Run(cfg)
	if solo.Admission.Probes == 0 {
		t.Fatal("solo sweep recorded no probes")
	}
	var wg sync.WaitGroup
	results := make([]*Results, 2)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = Run(cfg)
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if r.Admission != solo.Admission {
			t.Fatalf("concurrent run %d admission %+v != solo %+v (cross-run contamination)", i, r.Admission, solo.Admission)
		}
	}
}
