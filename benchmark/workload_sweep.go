package main

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/analysis"
	"repro/internal/experiment"
	"repro/internal/overhead"
	"repro/internal/partition"
	"repro/internal/task"
	"repro/internal/taskgen"
)

// sweep_section4: the paper's own artifact, at the paper's shape.
const (
	sweepName      = "sweep_section4"
	sweepCores     = 4
	sweepTasks     = 16
	sweepSets      = 150  // per grid point; 16 points → 2 400 sets per pass
	sweepPilotSets = 10   // per grid point, in set-up
	sweepNominal   = 2.15 // seconds per pass on the reference host
	// latencyDivisor: the per-set latency passes evaluate the first
	// 1/latencyDivisor of every grid point's sets, on one worker.
	latencyDivisor = 4
	latencyNominal = 2.8 // seconds of budget per latency pass
	// sweepSetupRepeats: the sweep's set-up is a tenth of a second, not
	// milliseconds, so fewer builds than the serve workloads make settle
	// its median.
	sweepSetupRepeats = 15
	// stateless check: this share of sets is re-partitioned without
	// arena or SetCache and judged by the stateless full test.
	statelessStride = 100
)

var sweepAlgNames = []string{"fpts", "ffd", "wfd", "bfd", "spa1", "spa2", "edfwm", "edfffd", "edfwfd"}

// sweepEnv is the sweep's set-up product.
type sweepEnv struct {
	algs   []partition.Algorithm
	models [2]*overhead.Model // zero, paper
	grid   []float64
}

func buildSweep() (*sweepEnv, error) {
	env := &sweepEnv{models: [2]*overhead.Model{overhead.Zero(), overhead.PaperModel()}, grid: experiment.DefaultGrid(sweepCores)}
	for _, name := range sweepAlgNames {
		alg, err := partition.ByName(name)
		if err != nil {
			return nil, err
		}
		env.algs = append(env.algs, alg)
	}
	return env, nil
}

// config is the sweep's experiment.Config: the paper's shape, every
// task set drawn from the run's seed.
func (env *sweepEnv) config(seed int64, sets, workers int, model *overhead.Model, cache *taskgen.SetCache) experiment.Config {
	return experiment.Config{
		Cores: sweepCores, Tasks: sweepTasks, SetsPerPoint: sets,
		Algorithms: env.algs, Model: model, Seed: seed,
		Workers: workers, SetCache: cache,
	}
}

// pair runs the sweep under the zero and the paper overhead model,
// the two sharing one SetCache as spexp's paired runs do.
func (env *sweepEnv) pair(seed int64, sets, workers int) ([2]*experiment.Results, time.Duration) {
	cache := taskgen.NewSetCache()
	var out [2]*experiment.Results
	t0 := time.Now()
	for i, model := range env.models {
		out[i] = experiment.Run(env.config(seed, sets, workers, model, cache))
	}
	return out, time.Since(t0)
}

// setLatencies times single task sets inside experiment.Run itself:
// the paired sweep on one worker with one set per shard, each shard's
// completion stamped through Run's Progress hook, so the time between
// two completions is what that set cost under that model in Run's own
// worker loop. One worker takes its shards in order, so sample k of
// both runs is the same set and a set's latency is the sum of the two.
// Sorted.
func (env *sweepEnv) setLatencies(seed int64, sets int) []int64 {
	cache := taskgen.NewSetCache()
	lat := make([]int64, 0, sets*len(env.grid))
	for mi, model := range env.models {
		cfg := env.config(seed, sets, 1, model, cache)
		cfg.ShardSize = 1
		k, done := 0, 0
		last := time.Now()
		cfg.Progress = func(u experiment.CellUpdate) {
			if u.DoneShards == done {
				return // one update per algorithm; the first carries the stamp
			}
			done = u.DoneShards
			now := time.Now()
			if mi == 0 {
				lat = append(lat, int64(now.Sub(last)))
			} else {
				lat[k] += int64(now.Sub(last))
			}
			last = now
			k++
		}
		experiment.Run(cfg)
	}
	slices.Sort(lat)
	return lat
}

// acceptTable flattens a paired result into accepted counts, model ×
// algorithm × grid point — the paper's acceptance table.
func acceptTable(rs [2]*experiment.Results) []int {
	var t []int
	for _, r := range rs {
		for _, s := range r.Series {
			for _, p := range s.Points {
				t = append(t, p.Accepted)
			}
		}
	}
	return t
}

// setSeed is experiment's per-set seed derivation (Seed, grid point,
// set index) → generator seed, restated here because the sweep keeps
// it private. Only the traced run's serial loop and the stateless
// check draw sets with it, and the traced run checks the restatement:
// its serial loop must reproduce experiment.Run's acceptance table
// exactly. No bounded metric depends on it.
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

// passSeed is the experiment seed of a run's i-th timed pass. Indices
// sit past the set-up builds' pilots, which use sessionSeed(seed, i).
func passSeed(seed int64, i int) int64 { return sessionSeed(seed, 1000+i) }

func (env *sweepEnv) genConfig(seed int64, ui, si int) taskgen.Config {
	return taskgen.Config{N: sweepTasks, TotalUtilization: env.grid[ui], Seed: setSeed(seed, ui, si)}
}

// serialLoop is the traced run's single-goroutine restatement of a
// sweep worker, so that spans can be put around the calls into taskgen
// and partition: generate a set, offer it to every algorithm through a
// recycled arena, under both models. It times each set, optionally
// records spans, and counts acceptances.
type serialLoop struct {
	env    *sweepEnv
	gen    *taskgen.Generator
	set    *task.Set
	arenas [2]*partition.Arena
	coll   *analysis.Collector
	rec    *recorder

	setNs      []int64
	genNs      []float64 // per grid point, mean
	algNs      []float64 // per algorithm, paper model, summed
	partNs     float64   // all partition time
	accepted   []int     // model × algorithm × grid point
	setsPerAlg int
}

func newSerialLoop(env *sweepEnv, rec *recorder) *serialLoop {
	return &serialLoop{
		env: env, rec: rec, coll: &analysis.Collector{},
		arenas:   [2]*partition.Arena{partition.NewArena(), partition.NewArena()},
		algNs:    make([]float64, len(env.algs)),
		genNs:    make([]float64, len(env.grid)),
		accepted: make([]int, 2*len(env.algs)*len(env.grid)),
	}
}

// run evaluates every set of a sets-per-point sweep.
func (sl *serialLoop) run(seed int64, sets int) {
	na, ng := len(sl.env.algs), len(sl.env.grid)
	for ui := 0; ui < ng; ui++ {
		var genTotal time.Duration
		n := 0
		for si := 0; si < sets; si++ {
			root := sl.rec.beginOpt(spanSet, 0)
			t0 := time.Now()
			gs := sl.rec.beginOpt(spanTaskgen, root)
			cfg := sl.env.genConfig(seed, ui, si)
			if sl.gen == nil {
				sl.gen = taskgen.New(cfg)
			} else {
				sl.gen.Reconfigure(cfg)
			}
			sl.set = sl.gen.NextInto(sl.set)
			sl.rec.endOpt(gs)
			t1 := time.Now()
			genTotal += t1.Sub(t0)
			for mi, model := range sl.env.models {
				sl.arenas[mi].BeginSet()
				opts := partition.Options{Stats: sl.coll, Arena: sl.arenas[mi]}
				for ai, alg := range sl.env.algs {
					ps := sl.rec.beginOpt(spanPartition+ai, root)
					ta := time.Now()
					_, err := alg.PartitionOpts(sl.set, sweepCores, model, opts)
					d := time.Since(ta)
					sl.rec.endOpt(ps)
					sl.partNs += float64(d)
					if mi == 1 {
						sl.algNs[ai] += float64(d)
					}
					if err == nil {
						sl.accepted[(mi*na+ai)*ng+ui]++
					}
				}
			}
			sl.rec.endOpt(root)
			sl.setNs = append(sl.setNs, int64(time.Since(t0)))
			n++
		}
		sl.genNs[ui] = float64(genTotal) / float64(n)
		sl.setsPerAlg += n
	}
}

func (r *recorder) beginOpt(name int, parent int32) int32 {
	if r == nil {
		return 0
	}
	return r.begin(name, parent, -1)
}

func (r *recorder) endOpt(id int32) {
	if r != nil {
		r.end(id)
	}
}

// statelessCheck re-partitions a sample of sets with neither arena
// nor SetCache and puts every accepted assignment through the
// stateless full test of its policy.
func (env *sweepEnv) statelessCheck(chk *checker, seed int64, sets int) {
	for ui := range env.grid {
		for si := ui % statelessStride; si < sets; si += statelessStride {
			set := taskgen.New(env.genConfig(seed, ui, si)).Next()
			for _, model := range env.models {
				for _, alg := range env.algs {
					a, err := alg.Partition(set.Clone(), sweepCores, model)
					if err != nil {
						chk.attempted++
						continue
					}
					chk.ok(analysis.ForPolicy(a.Policy).Schedulable(a, model),
						"%s accepted set (point %d, index %d) that fails the stateless full test", alg.Name(), ui, si)
				}
			}
		}
	}
}

// runSweep runs sweep_section4.
func runSweep(o runOpts) (*result, error) {
	res := newResult(sweepName)
	res.TableOp = "task set (nine algorithms × two models)"
	chk := &checker{}
	sets := o.shrunk(sweepSets, 3)
	pilot := min(sweepPilotSets, sets)

	// Set-up: resolve the algorithms and models and run a pilot sweep,
	// which grows the runtime's heap and the allocator's size classes
	// to their working shape before anything is timed. Each build's
	// pilot draws its own sets from the seed: a sweep's cost has a heavy
	// tail (1 % of the sets take a quarter of a pass), so one draw of
	// 160 sets costs up to twice another, and the median over the builds
	// would otherwise report the draw.
	var env *sweepEnv
	var setups []float64
	for i := 0; i < o.shrunk(sweepSetupRepeats, 3); i++ {
		runtime.GC()
		t0 := time.Now()
		e, err := buildSweep()
		if err != nil {
			return nil, err
		}
		e.pair(sessionSeed(o.seed, i), pilot, o.nclient)
		setups = append(setups, time.Since(t0).Seconds())
		env = e
	}
	res.E2E["setup_s"] = summarize(setups, 0)
	many, _ := env.pair(o.seed, pilot, o.nclient)
	solo, _ := env.pair(o.seed, pilot, 1)
	chk.ok(slices.Equal(acceptTable(many), acceptTable(solo)), "pilot sweep on seed %d: Workers=1 and Workers=%d give different tables", o.seed, o.nclient)
	res.Notes = append(res.Notes, fmt.Sprintf("seed-drawn check sweep (%d sets/point): table %s, identical at Workers=1 and Workers=%d", pilot, tableDigest(acceptTable(many)), o.nclient))

	perPass := sets * len(env.grid)
	if o.trace {
		if err := traceSweep(res, chk, env, sets, o); err != nil {
			return nil, err
		}
	} else {
		// Every timed pass evaluates sets of its own, drawn from the
		// run's seed: a pass's cost hangs on the few heaviest of its
		// 2 400 sets (one set took 464 ms of a 3.5 s serial pass), so
		// passes over one draw would report that draw (ten seeds spread
		// by a quarter of their median), while the median over the draws
		// of a run is the typical pass and steps over the odd monster.
		// The warm-up runs the first pass's sets, and that pass must
		// reproduce its table.
		warm, _ := env.pair(passSeed(o.seed, 0), sets, o.nclient)
		want := acceptTable(warm)
		digest := make([]int, 0, len(want))
		var rate, cpu []float64
		for i := 0; i < numPasses(o.seconds, sweepNominal); i++ {
			runtime.GC()
			cpu0 := cpuTime()
			rs, wall := env.pair(passSeed(o.seed, i), sets, o.nclient)
			cpu = append(cpu, float64((cpuTime()-cpu0).Microseconds())/float64(perPass))
			rate = append(rate, float64(perPass)/wall.Seconds())
			res.Attempted += int64(perPass)
			table := acceptTable(rs)
			if i == 0 {
				chk.ok(slices.Equal(want, table), "pass 1: acceptance table differs from the warm-up pass over the same sets")
			}
			digest = append(digest, table...)
		}
		res.E2E["ops_per_s"] = summarize(rate, perPass)
		res.E2E["cpu_us_per_op"] = summarize(cpu, perPass)
		res.Digest = tableDigest(digest)

		// Per-set latency, from inside experiment.Run, over the first
		// 1/latencyDivisor of every grid point's sets of a pass's draw,
		// a draw per repeat.
		var p50, p90, p99 []float64
		n := 0
		for i := 0; i < numPasses(o.seconds, latencyNominal); i++ {
			lat := env.setLatencies(passSeed(o.seed, i), max(sets/latencyDivisor, 1))
			p50 = append(p50, float64(percentile(lat, 0.5))/1e3)
			p90 = append(p90, float64(percentile(lat, 0.9))/1e3)
			p99 = append(p99, float64(percentile(lat, 0.99))/1e3)
			n = len(lat)
			res.Attempted += int64(n)
		}
		res.E2E["op_p50_us"] = summarize(p50, n)
		res.E2E["op_p90_us"] = summarize(p90, n)
		res.Extra["op_p99_us"] = summarize(p99, n)
	}
	res.takePeakRSS()
	env.statelessCheck(chk, passSeed(o.seed, 0), sets)
	res.finish(chk, nil)
	return res, nil
}

// tableDigest condenses an acceptance table for the printed record.
func tableDigest(t []int) string {
	h := uint64(14695981039346656037)
	for _, v := range t {
		h ^= uint64(v)
		h *= 1099511628211
	}
	return fmt.Sprintf("%016x", h)
}

// traceSweep is the -trace 1 body of the sweep: reference passes at
// Workers=clients and Workers=1, and one full serial pass with spans.
func traceSweep(res *result, chk *checker, env *sweepEnv, sets int, o runOpts) error {
	perPass := sets * len(env.grid)
	env.pair(passSeed(o.seed, 0), sets, o.nclient) // warm-up
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rs, wallN := env.pair(passSeed(o.seed, 0), sets, o.nclient)
	runtime.ReadMemStats(&m1)
	want := acceptTable(rs)
	res.Digest = tableDigest(want)
	res.Attempted += int64(perPass)
	adm := rs[0].Admission.Add(rs[1].Admission)
	res.Layer["analysis.sweep_probes_per_set"] = ratio(float64(adm.Probes), float64(perPass))
	res.Layer["analysis.sweep_verdict_hit_ratio"] = adm.CacheHitRate()
	res.Layer["analysis.sweep_fp_iters_per_solve"] = adm.MeanFPIterations()
	res.Layer["analysis.sweep_allocs_per_probe"] = ratio(float64(m1.Mallocs-m0.Mallocs), float64(adm.Probes))
	res.Layer["proc.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	res.Layer["proc.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6

	runtime.GC()
	r1, wall1 := env.pair(passSeed(o.seed, 0), sets, 1)
	res.Attempted += int64(perPass)
	chk.ok(slices.Equal(want, acceptTable(r1)), "Workers=1 and Workers=%d give different tables", o.nclient)
	res.Layer["experiment.speedup_1_to_n"] = ratio(wall1.Seconds(), wallN.Seconds())

	// Untraced and traced serial passes over every set.
	plain := newSerialLoop(env, nil)
	t0 := time.Now()
	plain.run(passSeed(o.seed, 0), sets)
	plainWall := time.Since(t0)
	names := []string{"client.call", "nethttp.roundtrip", "admitd.handler", "set", "taskgen.next"}
	for _, a := range sweepAlgNames {
		names = append(names, "partition."+a)
	}
	rec := newRecorder(perPass*(2+2*len(env.algs))+16, names)
	sl := newSerialLoop(env, rec)
	t0 = time.Now()
	sl.run(passSeed(o.seed, 0), sets)
	tracedWall := time.Since(t0)
	res.Attempted += 2 * int64(perPass)
	res.Layer["trace.overhead_frac"] = 1 - plainWall.Seconds()/tracedWall.Seconds()
	res.Layer["trace.spans_dropped"] = float64(rec.dropped.Load())
	chk.ok(slices.Equal(want, sl.accepted) && slices.Equal(want, plain.accepted),
		"the serial loop's acceptance table differs from experiment.Run's (the restated set seeding drifted)")

	// Serial generate+partition time over what the parallel run had
	// to spend (wall × workers): the rest is orchestration — shard
	// hand-out, aggregation, and workers idling at the tail.
	serialNs := float64(plainWall)
	res.Layer["experiment.orchestration_frac"] = 1 - serialNs/(float64(wallN)*float64(o.nclient))
	var gen float64
	for _, g := range plain.genNs {
		gen += g
	}
	res.Layer["taskgen.set_ns"] = gen / float64(len(plain.genNs))
	for ai, a := range sweepAlgNames {
		res.Layer["partition.set_ns."+a] = plain.algNs[ai] / float64(plain.setsPerAlg)
	}
	serialAdm := plain.coll.Snapshot()
	res.Layer["analysis.sweep_probe_ns"] = ratio(plain.partNs, float64(serialAdm.Probes))

	// The layer table: what the median set spends where. The medians of
	// the parts of a heavy-tailed whole do not add up to its median
	// (they fell 14 % short of it), so a row is the mean over the sets
	// in the middle tenth of traced set time, and the rows add up to
	// the median set.
	spans := rec.recorded()
	self := selfTimes(spans)
	type tracedSet struct {
		dur   int64
		parts map[int32]int64 // span name → summed duration; spanSet → self time
	}
	bySpan := map[int32]*tracedSet{} // by the set span's id
	var order []*tracedSet
	var setDur []int64
	for i, s := range spans {
		switch {
		case s.name == spanSet:
			ts := &tracedSet{dur: s.end - s.start, parts: map[int32]int64{spanSet: self[i]}}
			bySpan[int32(i+1)] = ts
			order = append(order, ts)
			setDur = append(setDur, ts.dur)
		case bySpan[s.parent] != nil:
			bySpan[s.parent].parts[s.name] += s.end - s.start
		}
	}
	slices.SortFunc(order, func(a, b *tracedSet) int { return cmp.Compare(a.dur, b.dur) })
	band := order[len(order)*45/100 : len(order)*55/100+1]
	bandMean := func(name int) float64 {
		var sum int64
		for _, ts := range band {
			sum += ts.parts[int32(name)]
		}
		return float64(sum) / float64(len(band))
	}
	var total float64
	rows := []tableRow{{"taskgen.next", bandMean(spanTaskgen)}}
	for ai, a := range sweepAlgNames {
		rows = append(rows, tableRow{"partition." + a + " (zero + paper)", bandMean(spanPartition + ai)})
	}
	rows = append(rows, tableRow{"set: unattributed (loop + clock reads)", bandMean(spanSet)})
	for _, r := range rows {
		total += r.ns
	}
	slices.Sort(plain.setNs)
	untraced := float64(percentile(plain.setNs, 0.5))
	rows = append(rows,
		tableRow{"= sum of rows", total},
		tableRow{"end to end, untraced median", untraced},
		tableRow{"end to end, traced median", medianInt(setDur)},
	)
	res.Layer["trace.table_gap_frac"] = ratio(total-untraced, untraced)
	res.Table = rows
	return writeSpans(rec, o, sweepName, res)
}
