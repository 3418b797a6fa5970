package experiment

import (
	"testing"

	"repro/internal/overhead"
	"repro/internal/partition"
	"repro/internal/sched"
	"repro/internal/taskgen"
	"repro/internal/timeq"
)

// matchesStandalone pins every cell of r against a reference that
// partitions freshly generated sets with no arena, no cache, no
// recycling and no derived twins at all: one standalone Partition per
// (set, algorithm), plus one sched.Run per accepted assignment when
// the sweep simulates.
func matchesStandalone(t *testing.T, cfg Config, r *Results) {
	t.Helper()
	for ui, u := range cfg.Utilizations {
		for ai, alg := range cfg.Algorithms {
			accepted, splits, violations := 0, 0, 0
			for si := 0; si < cfg.SetsPerPoint; si++ {
				gcfg := taskgen.Config{
					N:                cfg.Tasks,
					TotalUtilization: u,
					Seed:             setSeed(cfg.Seed, ui, si),
				}
				set := taskgen.New(gcfg).Next()
				a, err := alg.Partition(set, cfg.Cores, cfg.Model)
				if err != nil {
					continue
				}
				accepted++
				splits += a.NumSplit()
				if cfg.SimHorizon > 0 {
					res, serr := sched.Run(a, sched.Config{Model: cfg.Model, Horizon: cfg.SimHorizon})
					if serr != nil || !res.Schedulable() {
						violations++
					}
				}
			}
			p := r.Series[ai].Points[ui]
			if r.Series[ai].Algorithm != alg.Name() || p.TotalUtilization != u {
				t.Fatalf("series %d point %d is %s U=%v, want %s U=%v", ai, ui, r.Series[ai].Algorithm, p.TotalUtilization, alg.Name(), u)
			}
			meanSplits := 0.0
			if accepted > 0 {
				meanSplits = float64(splits) / float64(accepted)
			}
			if p.Accepted != accepted || p.Total != cfg.SetsPerPoint || p.Splits != meanSplits || p.SimViolations != violations {
				t.Fatalf("%s U=%v: sweep accepted=%d splits=%v violations=%d total=%d, reference accepted=%d splits=%v violations=%d",
					alg.Name(), u, p.Accepted, p.Splits, p.SimViolations, p.Total, accepted, meanSplits, violations)
			}
		}
	}
}

// The sweep engine's whole performance apparatus — per-worker
// contexts recycled with Context.Reset, assignments and entity slabs
// from the arena, sets generated into recycled slabs (and optionally
// memoized in a SetCache), FFD and EDF-FFD derived from FP-TS and
// EDF-WM — must be invisible in the numbers.
func TestSweepMatchesArenaFreeReference(t *testing.T) {
	algs := []partition.Algorithm{
		partition.TS, partition.TSNoBoost, partition.FFD, partition.WFD, partition.BFD,
		partition.SPA1, partition.SPA2,
		partition.WM, partition.EDFFFD, partition.EDFWFD,
	}
	cfg := Config{
		Cores:        4,
		Tasks:        10,
		SetsPerPoint: 12,
		Utilizations: []float64{2.8, 3.2, 3.6},
		Model:        overhead.PaperModel(),
		Seed:         7,
		Algorithms:   algs,
		Workers:      3,
	}
	r := Run(cfg)

	// A cached-generation run is the same sweep: generation is
	// deterministic per (Seed, grid point, set index), the cache only
	// dedupes it.
	cached := cfg
	cached.SetCache = taskgen.NewSetCache()
	if got, want := Run(cached).Table(), r.Table(); got != want {
		t.Fatalf("SetCache changed the table:\n%s\nvs\n%s", got, want)
	}
	matchesStandalone(t, cfg, r)
}

// A derived twin listed before its source, and FFD derived from the
// unboosted FP-TS, give the standalone cells too, simulation verdicts
// included.
func TestSweepDerivesTwinsInAnyOrder(t *testing.T) {
	cfg := Config{
		Cores:        4,
		Tasks:        10,
		SetsPerPoint: 12,
		Utilizations: []float64{2.8, 3.2, 3.6},
		Model:        overhead.PaperModel(),
		Seed:         5,
		Algorithms:   []partition.Algorithm{partition.EDFFFD, partition.FFD, partition.WM, partition.TSNoBoost},
		Workers:      2,
		SimHorizon:   timeq.Second,
	}
	if src := twinSources(cfg.Algorithms); src[0] != 2 || src[1] != 3 || src[2] != -1 || src[3] != -1 {
		t.Fatalf("twin sources %v, want [2 3 -1 -1]", src)
	}
	r := Run(cfg)
	accepted := 0
	for _, s := range r.Series[:2] {
		for _, p := range s.Points {
			accepted += p.Accepted
		}
	}
	if accepted == 0 {
		t.Fatal("no derived cell accepted a set: the derivation was never exercised")
	}
	matchesStandalone(t, cfg, r)
}
