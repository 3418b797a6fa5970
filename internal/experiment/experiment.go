// Package experiment drives the paper's Section 4 evaluation: the
// acceptance ratio of FP-TS versus the partitioned FFD and WFD
// heuristics over randomly generated task sets, with the measured
// overheads integrated into the admission analysis.
//
// One Run sweeps a grid of total utilizations; at each grid point it
// generates SetsPerPoint task sets (shared across algorithms, so the
// comparison is paired) and counts how many each algorithm schedules.
// Optionally each accepted assignment is also simulated and checked
// for deadline misses, tying the whole pipeline together.
//
// # Pipeline
//
// Run is a streaming sharded pipeline: the sweep is cut into
// (utilization point × set-index range) shards, a fixed worker pool
// consumes them from a channel, and each completed shard is folded
// into a streaming aggregator that recomputes the affected cells'
// acceptance counts and Wilson intervals and reports them through the
// optional Progress callback. Task sets are seeded per (point, index),
// so results are bit-identical regardless of worker count, shard size
// or which other algorithms share the sweep — a mixed fixed-priority +
// EDF algorithm list is one paired sweep, and each algorithm's curve
// equals the one a single-algorithm run would produce.
//
// When the list holds both members of a dominance pair (FP-TS and FFD,
// EDF-WM and EDF-FFD; see partition.Unsplit), only the splitting
// member packs each set: the partitioned twin's verdict is read off
// the splitter's, accepted exactly when the splitter accepted without
// a split. The twin's curve is still the one a standalone run gives.
package experiment

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/overhead"
	"repro/internal/partition"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/taskgen"
	"repro/internal/timeq"
)

// Config parameterizes a sweep.
type Config struct {
	// Cores is the platform size (the paper: 4).
	Cores int
	// Tasks is the number of tasks per generated set.
	Tasks int
	// SetsPerPoint is the number of random sets per grid point.
	SetsPerPoint int
	// Utilizations is the ΣU grid. Empty means 0.600·m … 0.975·m in
	// steps of 0.025·m.
	Utilizations []float64
	// Algorithms compared; empty means FP-TS, FFD, WFD.
	Algorithms []partition.Algorithm
	// Model is the overhead model for admission (nil = zero).
	Model *overhead.Model
	// Periods configures the period distribution.
	Periods taskgen.PeriodDist
	// PeriodMin/PeriodMax override the 10ms–1000ms default range.
	PeriodMin, PeriodMax timeq.Time
	// Seed makes the sweep deterministic. Every task set is derived
	// from (Seed, grid point, set index) alone, so results do not
	// depend on Workers, ShardSize or the algorithm list.
	Seed int64
	// Workers bounds parallelism; 0 means GOMAXPROCS.
	Workers int
	// ShardSize is the number of task sets per work shard; 0 picks a
	// size that keeps every worker busy even at small SetsPerPoint.
	ShardSize int
	// Progress, when non-nil, receives one CellUpdate per algorithm
	// each time a shard completes, carrying that cell's running
	// acceptance count and Wilson interval. Callbacks are serialized
	// by the aggregator and must return quickly.
	Progress func(CellUpdate)
	// SimHorizon, when nonzero, also simulates every accepted
	// assignment for that long (under the assignment's own policy)
	// and records deadline-miss violations (an end-to-end soundness
	// check; expected zero).
	SimHorizon timeq.Time
	// SetCache, when non-nil, memoizes generated task sets across the
	// runs that share it: paired sweeps (the same grid under the zero
	// and measured overhead models) then generate each set once
	// instead of once per model. Results are identical either way —
	// generation is deterministic per (Seed, grid point, set index).
	SetCache *taskgen.SetCache
}

// CellUpdate is one streaming partial result: the state of a single
// (algorithm × utilization) cell after another shard folded in, plus
// overall sweep progress.
type CellUpdate struct {
	Algorithm        string
	TotalUtilization float64
	// Accepted/Total and the Wilson interval are the cell's running
	// values; Total reaches Config.SetsPerPoint when the cell is done.
	Accepted, Total    int
	Ratio              float64
	WilsonLo, WilsonHi float64
	// DoneShards/TotalShards track the whole sweep.
	DoneShards, TotalShards int
	// Admission carries the running admission-layer totals of this
	// sweep (probes, cache hit rate, fixed-point effort), accumulated
	// across every partitioner context the workers flushed so far.
	// The totals come from a per-run analysis.Collector, so
	// concurrent sweeps (or any other admission work in the process)
	// do not contaminate each other.
	Admission analysis.AdmissionStats
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Cores == 0 {
		out.Cores = 4
	}
	if out.Tasks == 0 {
		out.Tasks = 16
	}
	if out.SetsPerPoint == 0 {
		out.SetsPerPoint = 200
	}
	if len(out.Utilizations) == 0 {
		out.Utilizations = DefaultGrid(out.Cores)
	}
	if len(out.Algorithms) == 0 {
		out.Algorithms = []partition.Algorithm{partition.TS, partition.FFD, partition.WFD}
	}
	if out.Model == nil {
		out.Model = overhead.Zero()
	}
	if out.Workers <= 0 {
		out.Workers = runtime.GOMAXPROCS(0)
	}
	if out.ShardSize <= 0 {
		// Fine-grained shards: with work stealing the only cost of a
		// small shard is one aggregator fold, and high-utilization
		// shards can run many times longer than low-utilization ones —
		// coarse shards leave workers idle at the tail.
		total := out.SetsPerPoint * len(out.Utilizations)
		out.ShardSize = total / (16 * out.Workers)
		if out.ShardSize < 1 {
			out.ShardSize = 1
		}
	}
	if out.ShardSize > out.SetsPerPoint {
		out.ShardSize = out.SetsPerPoint
	}
	return out
}

// DefaultGrid returns the paper's utilization grid for m cores:
// per-core utilization 0.600 … 0.975 in steps of 0.025, scaled by m.
// The points are generated from integer per-mille steps so the values
// are exact and identical across platforms — a floating-point
// accumulator (u += 0.025) drifts by ULPs and can drop the last point.
func DefaultGrid(cores int) []float64 {
	m := float64(cores)
	var out []float64
	for pm := 600; pm <= 975; pm += 25 {
		out = append(out, float64(pm)/1000*m)
	}
	return out
}

// setSeed derives the generator seed of one task set from the sweep
// seed and the set's grid coordinates, via a splitmix64-style mix, so
// a set's identity is independent of sharding, worker scheduling and
// the algorithm list.
func setSeed(base int64, ui, si int) int64 {
	z := uint64(base) ^ 0x9e3779b97f4a7c15
	z += uint64(ui+1) * 0xbf58476d1ce4e5b9
	z += uint64(si+1) * 0x94d049bb133111eb
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// Point is one (utilization, algorithm) cell.
type Point struct {
	TotalUtilization float64
	Accepted, Total  int
	// Ratio is Accepted/Total; WilsonLo/Hi the 95% interval.
	Ratio, WilsonLo, WilsonHi float64
	// Splits is the mean number of split tasks among accepted
	// assignments (0 for partitioned algorithms).
	Splits float64
	// Migratory is the mean fraction of tasks that are split.
	Migratory float64
	// SimViolations counts accepted assignments that missed a
	// deadline in simulation (expected 0; see Config.SimHorizon).
	SimViolations int
}

// Series is one algorithm's curve.
type Series struct {
	Algorithm string
	Points    []Point
}

// Results is the outcome of a sweep.
type Results struct {
	Config Config
	Series []Series
	// Admission is the admission-layer work the sweep performed: one
	// context per (task set × algorithm) cell spans every probe of
	// that cell's packing loop, so these counters expose the
	// incremental layer's cache hit rate and fixed-point effort.
	// The totals are scoped to this run by a per-run
	// analysis.Collector, so concurrent sweeps do not see each
	// other's work.
	Admission analysis.AdmissionStats
}

// cell accumulates one (algorithm × utilization) grid cell.
type cell struct {
	accepted, total int
	splits          int
	violations      int
}

// add counts one set's outcome.
func (c *cell) add(o outcome) {
	c.total++
	if o.accepted {
		c.accepted++
		c.splits += o.splits
		if o.violated {
			c.violations++
		}
	}
}

// outcome is one algorithm's verdict on a worker's current set, kept
// until the set's derived cells are filled.
type outcome struct {
	accepted, violated bool
	splits             int
}

// twin is the verdict of the splitter's partitioned twin on the same
// set: the twin accepts iff the splitter accepted without a split, and
// then holds the identical assignment, so the simulation (deterministic
// per assignment and model) has the same outcome too.
func (o outcome) twin() outcome {
	if o.splits > 0 {
		return outcome{}
	}
	return o
}

// twinSources returns, per algorithm, the index of the splitting
// algorithm in algs whose verdict it is derived from (its
// partition.Unsplit twin), or -1 when it packs its own sets. The first
// such splitter in the list is the source, wherever it stands relative
// to the twin.
func twinSources(algs []partition.Algorithm) []int {
	src := make([]int, len(algs))
	for ai, alg := range algs {
		src[ai] = -1
		for si, s := range algs {
			if partition.Unsplit(s) == alg {
				src[ai] = si
				break
			}
		}
	}
	return src
}

// merge folds another partial cell in.
func (c *cell) merge(o cell) {
	c.accepted += o.accepted
	c.total += o.total
	c.splits += o.splits
	c.violations += o.violations
}

// shard is one unit of pool work: set indices [lo, hi) of grid
// point ui.
type shard struct{ ui, lo, hi int }

// aggregator folds completed shards into the result grid and streams
// per-cell partial results (with incrementally recomputed Wilson
// intervals) to the Progress callback.
type aggregator struct {
	mu          sync.Mutex
	cfg         *Config
	grid        [][]cell // [algorithm][utilization]
	doneShards  int
	totalShards int
	coll        *analysis.Collector // this run's admission totals
}

func newAggregator(cfg *Config, totalShards int) *aggregator {
	grid := make([][]cell, len(cfg.Algorithms))
	for i := range grid {
		grid[i] = make([]cell, len(cfg.Utilizations))
	}
	return &aggregator{cfg: cfg, grid: grid, totalShards: totalShards, coll: &analysis.Collector{}}
}

// fold merges one shard's per-algorithm partial cells and emits the
// updated cells. Progress callbacks run under the aggregator lock, so
// updates arrive serialized and each cell's counts are monotone.
func (ag *aggregator) fold(sh shard, partial []cell) {
	ag.mu.Lock()
	defer ag.mu.Unlock()
	ag.doneShards++
	for ai := range partial {
		ag.grid[ai][sh.ui].merge(partial[ai])
	}
	if ag.cfg.Progress == nil {
		return
	}
	adm := ag.coll.Snapshot()
	for ai, alg := range ag.cfg.Algorithms {
		c := ag.grid[ai][sh.ui]
		lo, hi := stats.WilsonInterval(c.accepted, c.total)
		ag.cfg.Progress(CellUpdate{
			Algorithm:        alg.Name(),
			TotalUtilization: ag.cfg.Utilizations[sh.ui],
			Accepted:         c.accepted,
			Total:            c.total,
			Ratio:            stats.Proportion(c.accepted, c.total),
			WilsonLo:         lo,
			WilsonHi:         hi,
			DoneShards:       ag.doneShards,
			TotalShards:      ag.totalShards,
			Admission:        adm,
		})
	}
}

// workerState is one worker's long-lived scratch: a reconfigurable
// generator and task-set slab (taskgen pooling), a partition arena
// holding one recycled admission context per policy, and the current
// set's per-algorithm outcomes.
type workerState struct {
	gen   *taskgen.Generator
	set   *task.Set
	arena *partition.Arena
	out   []outcome
}

// shardQueue is one worker's share of the sweep with an atomic take
// cursor, so idle workers steal from the tail of busy workers'
// queues. Per-set seeding makes results independent of who runs what.
type shardQueue struct {
	shards []shard
	next   atomic.Int64
}

// take pops the next unclaimed shard, reporting false when drained.
func (q *shardQueue) take() (shard, bool) {
	i := q.next.Add(1) - 1
	if i >= int64(len(q.shards)) {
		return shard{}, false
	}
	return q.shards[i], true
}

// Run executes the sweep as a streaming sharded pipeline: a fixed
// worker pool consumes (grid point × set range) shards from per-worker
// queues with work stealing; each worker generates its sets on the fly
// into a recycled slab (one generation per set, shared across every
// algorithm and both policies — the comparison is paired), offers
// every set to every algorithm that is not a derived twin through its
// long-lived partition.Arena, optionally simulates accepted
// assignments under their own policy, derives the twins' verdicts,
// and folds the shard into the aggregator.
func Run(cfg Config) *Results {
	cfg = cfg.withDefaults()

	var shards []shard
	for ui := range cfg.Utilizations {
		for lo := 0; lo < cfg.SetsPerPoint; lo += cfg.ShardSize {
			hi := lo + cfg.ShardSize
			if hi > cfg.SetsPerPoint {
				hi = cfg.SetsPerPoint
			}
			shards = append(shards, shard{ui: ui, lo: lo, hi: hi})
		}
	}
	ag := newAggregator(&cfg, len(shards))
	src := twinSources(cfg.Algorithms)

	// Deal the shards round-robin into per-worker queues; workers
	// drain their own queue first, then steal from the others. The
	// atomic take cursor makes stealing lock-free, and per-(point,
	// index) seeding keeps results identical however shards migrate.
	queues := make([]*shardQueue, cfg.Workers)
	for w := range queues {
		queues[w] = &shardQueue{}
	}
	for i, sh := range shards {
		q := queues[i%cfg.Workers]
		q.shards = append(q.shards, sh)
	}
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ws := &workerState{arena: partition.NewArena(), out: make([]outcome, len(cfg.Algorithms))}
			for qi := 0; qi < cfg.Workers; qi++ {
				q := queues[(w+qi)%cfg.Workers]
				for {
					sh, ok := q.take()
					if !ok {
						break
					}
					ag.fold(sh, runShard(&cfg, sh, src, ag.coll, ws))
				}
			}
		}(w)
	}
	wg.Wait()

	res := &Results{Config: cfg, Admission: ag.coll.Snapshot()}
	for ai, alg := range cfg.Algorithms {
		series := Series{Algorithm: alg.Name()}
		for ui, u := range cfg.Utilizations {
			c := ag.grid[ai][ui]
			lo, hi := stats.WilsonInterval(c.accepted, c.total)
			p := Point{
				TotalUtilization: u,
				Accepted:         c.accepted,
				Total:            c.total,
				Ratio:            stats.Proportion(c.accepted, c.total),
				WilsonLo:         lo,
				WilsonHi:         hi,
				SimViolations:    c.violations,
			}
			if c.accepted > 0 {
				p.Splits = float64(c.splits) / float64(c.accepted)
				p.Migratory = p.Splits / float64(cfg.Tasks)
			}
			series.Points = append(series.Points, p)
		}
		res.Series = append(res.Series, series)
	}
	return res
}

// runShard generates the shard's task sets and offers each to every
// algorithm, returning one partial cell per algorithm. Each
// (task set × algorithm) cell runs under one admission context that
// every probe of that cell's packing loop reuses (partitioners open
// it and thread it through; see analysis.Context), so a cell does
// O(changed-core) admission work per probe; the contexts flush their
// probe/cache/fixed-point counters into the sweep's Admission totals.
// An algorithm with src[ai] >= 0 does not pack: once every other
// algorithm has run on the set, its cell takes the twin of its
// source's outcome.
func runShard(cfg *Config, sh shard, src []int, coll *analysis.Collector, ws *workerState) []cell {
	partial := make([]cell, len(cfg.Algorithms))
	u := cfg.Utilizations[sh.ui]
	opts := partition.Options{Stats: coll, Arena: ws.arena}
	for si := sh.lo; si < sh.hi; si++ {
		gcfg := taskgen.Config{
			N:                cfg.Tasks,
			TotalUtilization: u,
			Periods:          cfg.Periods,
			PeriodMin:        cfg.PeriodMin,
			PeriodMax:        cfg.PeriodMax,
			Seed:             setSeed(cfg.Seed, sh.ui, si),
		}
		// One generation per set, into the worker's recycled slab; the
		// set is shared by every algorithm and both policies (tasks are
		// immutable once generated, so no defensive clones are needed —
		// partitioners sort into private copies). A caller-scoped
		// SetCache additionally shares the generation itself across
		// paired sweeps.
		if cfg.SetCache != nil {
			ws.set = cfg.SetCache.FirstInto(gcfg, ws.set)
		} else {
			if ws.gen == nil {
				ws.gen = taskgen.New(gcfg)
			} else {
				ws.gen.Reconfigure(gcfg)
			}
			ws.set = ws.gen.NextInto(ws.set)
		}
		set := ws.set
		for ai, alg := range cfg.Algorithms {
			if src[ai] >= 0 {
				continue
			}
			a, err := alg.PartitionOpts(set, cfg.Cores, cfg.Model, opts)
			var o outcome
			if err == nil {
				o.accepted = true
				o.splits = a.NumSplit()
				if cfg.SimHorizon > 0 {
					// The assignment carries its policy, so a mixed
					// fixed-priority + EDF sweep needs no per-algorithm
					// dispatch plumbing here.
					r, serr := sched.Run(a, sched.Config{Model: cfg.Model, Horizon: cfg.SimHorizon})
					o.violated = serr != nil || !r.Schedulable()
				}
			}
			ws.out[ai] = o
			partial[ai].add(o)
		}
		for ai, s := range src {
			if s >= 0 {
				partial[ai].add(ws.out[s].twin())
			}
		}
	}
	return partial
}

// TotalSimViolations sums simulation violations across the sweep.
func (r *Results) TotalSimViolations() int {
	n := 0
	for _, s := range r.Series {
		for _, p := range s.Points {
			n += p.SimViolations
		}
	}
	return n
}

// Table renders the acceptance-ratio comparison, one row per
// utilization (normalized per core), one column per algorithm —
// the paper's Section 4 result.
func (r *Results) Table() string {
	var sb strings.Builder
	m := float64(r.Config.Cores)
	width := 10
	for _, s := range r.Series {
		if len(s.Algorithm)+2 > width {
			width = len(s.Algorithm) + 2
		}
	}
	sb.WriteString(fmt.Sprintf("%-8s", "U/m"))
	for _, s := range r.Series {
		sb.WriteString(fmt.Sprintf("%*s", width, s.Algorithm))
	}
	sb.WriteString("\n")
	for pi := range r.Series[0].Points {
		sb.WriteString(fmt.Sprintf("%-8.3f", r.Series[0].Points[pi].TotalUtilization/m))
		for _, s := range r.Series {
			sb.WriteString(fmt.Sprintf("%*.3f", width, s.Points[pi].Ratio))
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// CSV renders the full results for plotting: one row per
// (algorithm, utilization).
func (r *Results) CSV() string {
	var sb strings.Builder
	sb.WriteString("algorithm,total_utilization,per_core_utilization,accepted,total,ratio,wilson_lo,wilson_hi,mean_splits,sim_violations\n")
	for _, s := range r.Series {
		for _, p := range s.Points {
			sb.WriteString(fmt.Sprintf("%s,%.4f,%.4f,%d,%d,%.4f,%.4f,%.4f,%.3f,%d\n",
				s.Algorithm, p.TotalUtilization, p.TotalUtilization/float64(r.Config.Cores),
				p.Accepted, p.Total, p.Ratio, p.WilsonLo, p.WilsonHi, p.Splits, p.SimViolations))
		}
	}
	return sb.String()
}

// WeightedScore is the area under the acceptance curve (mean ratio
// over the grid) — a scalar for comparing algorithms in ablations.
func (r *Results) WeightedScore(algorithm string) float64 {
	for _, s := range r.Series {
		if s.Algorithm != algorithm {
			continue
		}
		sum := 0.0
		for _, p := range s.Points {
			sum += p.Ratio
		}
		return sum / float64(len(s.Points))
	}
	return 0
}

// SeriesNames lists the algorithms in order.
func (r *Results) SeriesNames() []string {
	var out []string
	for _, s := range r.Series {
		out = append(out, s.Algorithm)
	}
	sort.Strings(out)
	return out
}
