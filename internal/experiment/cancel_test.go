package experiment

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/overhead"
	"repro/internal/partition"
)

// TestRunContextCancel checks cancellation: a sweep canceled from its
// own progress stream returns promptly, marks the results canceled,
// and reports only the shards that finished.
func TestRunContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := Config{
		Cores: 4, Tasks: 12, SetsPerPoint: 64, Seed: 3,
		Model:     overhead.PaperModel(),
		Workers:   2,
		ShardSize: 4,
		Progress: func(u CellUpdate) {
			if u.DoneShards >= 2 {
				cancel()
			}
		},
	}
	start := time.Now()
	res := RunContext(ctx, cfg)
	if !res.Canceled {
		t.Fatal("results must be marked canceled")
	}
	total := 0
	for _, s := range res.Series {
		for _, p := range s.Points {
			total += p.Total
		}
	}
	full := res.Config.SetsPerPoint * len(res.Config.Utilizations) * len(res.Config.Algorithms)
	if total >= full {
		t.Fatalf("canceled sweep still completed all %d set-offers", total)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	// The default list derives FFD from FP-TS: a set the source did
	// not finish is not counted for its twin either, and one it did
	// finish is counted for both.
	derived := 0
	for ai, si := range twinSources(res.Config.Algorithms) {
		if si < 0 {
			continue
		}
		derived++
		for ui, p := range res.Series[ai].Points {
			if q := res.Series[si].Points[ui]; p.Total != q.Total {
				t.Fatalf("%s U=%v: total %d, its source %s counted %d", res.Series[ai].Algorithm, p.TotalUtilization, p.Total, res.Series[si].Algorithm, q.Total)
			}
		}
	}
	if derived == 0 {
		t.Fatal("the default algorithm list has no derived twin")
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
