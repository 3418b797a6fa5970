package experiment

import (
	"testing"

	"repro/internal/overhead"
	"repro/internal/partition"
	"repro/internal/taskgen"
)

// The sweep engine's whole performance apparatus — per-worker
// contexts recycled with Context.Reset, assignments and entity slabs
// from the arena, sets generated into recycled slabs (and optionally
// memoized in a SetCache) — must be invisible in the
// numbers. Every cell of a Run is pinned here against a reference
// that partitions freshly generated sets with no arena, no cache and
// no recycling at all, one call per (set, algorithm).
func TestSweepMatchesArenaFreeReference(t *testing.T) {
	algs := []partition.Algorithm{
		partition.TS, partition.FFD, partition.WFD, partition.BFD,
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

	for ui, u := range cfg.Utilizations {
		for ai, alg := range algs {
			accepted, splits := 0, 0
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
			}
			p := r.Series[ai].Points[ui]
			if p.TotalUtilization != u {
				t.Fatalf("%s: point %d has U=%v, want %v", alg.Name(), ui, p.TotalUtilization, u)
			}
			meanSplits := 0.0
			if accepted > 0 {
				meanSplits = float64(splits) / float64(accepted)
			}
			if p.Accepted != accepted || p.Total != cfg.SetsPerPoint || p.Splits != meanSplits {
				t.Fatalf("%s U=%v: sweep accepted=%d splits=%v total=%d, reference accepted=%d splits=%v",
					alg.Name(), u, p.Accepted, p.Splits, p.Total, accepted, meanSplits)
			}
		}
	}
}
