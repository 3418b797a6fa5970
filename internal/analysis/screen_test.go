package analysis

import (
	"math/big"
	"slices"
	"testing"

	"repro/internal/overhead"
	"repro/internal/task"
	"repro/internal/timeq"
)

// screenResult is what the per-entity screen said of one entity.
type screenResult struct {
	start        timeq.Time
	pass, refuse bool
}

// probeScreens fills the views of a probe as run does — add placed on
// addCores, tent the tentative chain of a split, queue bound n — on a
// scratch of its own, so the owner's views and counters stay as they
// were, and returns the probed core's view with every entity's screen.
func probeScreens(p fpProbe, add []*Entity, addCores []int, tent *fpSnapChain, probeCore, n int) (fpProbe, *probeView, []screenResult) {
	p.sc, p.stats = new(fpProbeScratch), new(AdmissionStats)
	p.sc.run++
	p.sc.size(len(p.cores))
	p.buildViews(add, addCores, probeCore, n)
	p.cloneChains(tent)
	p.resolve()
	v := &p.sc.views[probeCore]
	w := p.screens(v)
	res := make([]screenResult, len(v.cs.Entities))
	for i := len(res) - 1; i >= 0; i-- {
		r := &res[i]
		r.start, r.pass, r.refuse = w.next(i)
	}
	return p, v, res
}

// tableScreens returns the screen of every entity of a table probe of
// whole task e onto core c at queue bound n, indexed by its place in
// the probe state (as in the view probeScreens fills). It runs on a
// scratch of its own; the record's table must be current.
func tableScreens(p fpProbe, c int, e *Entity, n int) []screenResult {
	p.sc, p.stats = new(fpProbeScratch), new(AdmissionStats)
	var t tableState
	var x tableSlot
	p.tableRun(&t, c, e, n)
	res := make([]screenResult, len(t.r.tab)+1)
	for i := -1; i < len(t.r.tab); i++ {
		t.slot(i, &x)
		r := &res[t.place(i)]
		r.start, r.pass, r.refuse = rtaScreen(timeq.AddSat(x.b, x.long), x.d, x.s, len(res))
	}
	return res
}

// exactBounds are the screen's quantities for one entity in exact
// arithmetic, classified and charged by the stateless methods
// (InflatedCost, Blocking, ReleaseCost), not by the engine's sums: the
// base B, limit = D − J, and over its interferers U = Σc/T,
// L = Σc·J/T, N = Σc + L, and jobs = limit·Σ1/T + ΣJ/T + k + 2, the
// bound on the cold solve's iterations (see fpFixedPoint). With fold,
// the interferers released without jitter at periods T ≥ limit are
// charged once in B instead, their one release each counted in k, as
// the table probe screens the probed task (tableSlot.long).
type exactBounds struct {
	b, limit, u, l, n, jobs *big.Rat
}

func exactScreen(v *probeView, i int, m *overhead.Model, fold bool) exactBounds {
	cs := &CoreSet{Entities: v.cs.Entities, N: v.cs.N, CacheMax: v.cs.CacheMax}
	e := cs.Entities[i]
	rel := cs.ReleaseCost(m)
	x := exactBounds{
		b:     big.NewRat(int64(timeq.AddSat(cs.InflatedCost(e, m), cs.Blocking(e, m))), 1),
		limit: big.NewRat(int64(e.D-e.Jitter), 1),
		u:     new(big.Rat), l: new(big.Rat), n: new(big.Rat),
		jobs: big.NewRat(int64(len(cs.Entities)+2), 1),
	}
	for j, o := range cs.Entities {
		var c timeq.Time
		switch {
		case j == i:
			continue
		case o.LocalPriority < e.LocalPriority:
			c = cs.InflatedCost(o, m)
		case o.LocalPriority > e.LocalPriority && !o.MigrIn && rel > 0:
			c = rel
		default:
			continue
		}
		cr := big.NewRat(int64(c), 1)
		if fold && o.Jitter == 0 && o.T >= e.D-e.Jitter {
			x.b.Add(x.b, cr) // its one release is counted in jobs' k
			continue
		}
		x.u.Add(x.u, big.NewRat(int64(c), int64(o.T)))
		cjt := new(big.Rat).Mul(cr, big.NewRat(int64(o.Jitter), int64(o.T)))
		x.l.Add(x.l, cjt)
		x.n.Add(x.n, cr)
		x.jobs.Add(x.jobs, big.NewRat(int64(e.D-e.Jitter)+int64(o.Jitter), int64(o.T)))
	}
	x.n.Add(x.n, x.l)
	return x
}

// lhs returns B + extra + limit·U.
func (x exactBounds) lhs(extra *big.Rat) *big.Rat {
	r := new(big.Rat).Mul(x.limit, x.u)
	return r.Add(r, new(big.Rat).Add(x.b, extra))
}

// screenCase is one decoded FuzzFPEntityScreen input: whole tasks and
// two-part split chains on core 0 (a chain's other part on core 1),
// ballast on core 1 that raises the queue bound, and a whole task
// probed onto core 0 at any priority.
type screenCase struct {
	m         *overhead.Model
	committed []*task.Task
	splits    []*task.Split
	ballast   int
	converge  bool // run a full test before forking: resolved jitters, cached verdicts
	probe     *task.Task
}

// screenCaseFromBytes decodes a case. Header: model and steering mode,
// flags, ballast, a signed nudge in ns, how near 1 mode 3 puts U, the
// probe's deadline (two bytes), its budget fraction, its priority rank
// and the task the steering moves; then six bytes a committed task —
// period (two), budget fraction (two), priority and a flag byte
// (working set; split; which part of the chain core 0 hosts; whether
// the chain keeps its plain priority, so that it can tie with whole
// tasks; a constrained deadline).
//
// Flag 0x10 makes every period divide the probe's deadline (a multiple
// of 840 µs), where ⌈x⌉ = x and the screen's lower bound is exact
// without jitter; flag 0x20 puts the probe's deadline past a second,
// where the 1e-9 margin is more than a nanosecond. The modes steer what
// the fuzzer finds rarely. Modes 1 and 2 move the budget of the steered
// task — the probe, or a committed whole task — to the largest its own
// screen passes (1) or the smallest it refuses (2), after which the
// nudge moves it on; mode 3 moves the last committed whole task above
// the probe so that the probe's U sits within 1e-10..6.4e-6 of 1.
func screenCaseFromBytes(data []byte) *screenCase {
	if len(data) < 15 {
		return nil
	}
	const header = 9
	sc := &screenCase{m: fluidModels()[int(data[0]&3)%3]}
	mode := data[0] >> 2 & 3
	exact := data[0]&0x10 != 0
	long := data[0]&0x20 != 0
	sc.converge = data[0]&0x40 != 0
	sc.ballast = int(data[1] & 31)
	nudge := timeq.Time(int8(data[2]) % 5)
	nearOne := big.NewRat(1+int64(data[3]&63), [4]int64{1e10, 1e9, 1e8, 1e7}[data[3]>>6])
	dRaw := int64(data[4])<<8 | int64(data[5])
	d := timeq.Time(1+dRaw) * 20 * timeq.Microsecond
	if exact {
		d = timeq.Time(1+dRaw%2000) * 840 * timeq.Microsecond
	}
	if long {
		d += 1200 * 840 * timeq.Microsecond // 1.008 s
	}
	maxPrio := 1
	for b := data[header:]; len(b) >= 6 && len(sc.committed)+len(sc.splits) < 24; b = b[6:] {
		t := timeq.Time(1+(int64(b[0])<<8|int64(b[1]))) * 20 * timeq.Microsecond
		if exact {
			t = d / timeq.Time(1+b[0]%8) // 840 µs is divisible by 1..8
		}
		c := 1 + t*timeq.Time(int64(b[2])<<8|int64(b[3]))/(1<<18)
		prio := 1 + int(t/timeq.Microsecond) // rate monotonic
		if b[4]&1 != 0 {
			prio = 1 + int(b[4]>>1)
		}
		maxPrio = max(maxPrio, prio)
		tk := &task.Task{ID: task.ID(len(sc.committed) + len(sc.splits) + 1), WCET: c, Period: t, Priority: prio, WSS: int64(b[5]&15) * (32 << 10)}
		if b[5]&0x80 != 0 && !exact {
			tk.Deadline = t - t/4
		}
		if b[5]&0x10 == 0 || c < 2 {
			sc.committed = append(sc.committed, tk)
			continue
		}
		first, second := 0, 1
		if b[5]&0x20 != 0 {
			first, second = 1, 0 // core 0 hosts the tail, released with jitter
		}
		sc.splits = append(sc.splits, &task.Split{
			Task:    tk,
			Parts:   []task.Part{{Core: first, Budget: c / 2}, {Core: second, Budget: c - c/2}},
			NoBoost: b[5]&0x40 != 0,
		})
	}
	if len(sc.committed)+len(sc.splits) == 0 {
		return nil
	}
	// Any rank from the top to one below the lowest, equal ones included.
	prio := int(data[7]) * (maxPrio + 1) / 255
	if data[7]&1 != 0 && len(sc.committed) > 0 {
		prio = sc.committed[int(data[7]>>1)%len(sc.committed)].Priority
	}
	sc.probe = &task.Task{ID: 1000, Period: d, Priority: prio, WSS: int64(data[6]&7) * (32 << 10)}
	sc.probe.WCET = 1 + d*timeq.Time(data[6])/1024
	switch mode {
	case 1, 2:
		target := sc.probe
		if data[8] != 0 && len(sc.committed) > 0 {
			target = sc.committed[int(data[8]-1)%len(sc.committed)]
		}
		sc.steer(target, mode == 1)
		target.WCET = max(1, target.WCET+nudge)
	case 3:
		sc.nearOne(nearOne)
	}
	return sc
}

// context builds a writer context over the committed state.
func (sc *screenCase) context() Context {
	a := task.NewAssignment(2)
	a.Policy = task.FixedPriority
	ctx := FixedPriorityRTA.NewContext(a, sc.m)
	for _, tk := range sc.committed {
		ctx.Place(tk, 0)
	}
	for _, sp := range sc.splits {
		ctx.AddSplit(sp)
	}
	for i := 0; i < sc.ballast; i++ {
		ctx.Place(&task.Task{ID: task.ID(2000 + i), WCET: timeq.Microsecond, Period: timeq.Second, Priority: 1}, 1)
	}
	return ctx
}

// screens returns the probe's view and screens on x.
func (sc *screenCase) screens(x *fpContext) (*probeView, []screenResult) {
	e := newFPEntityInto(new(Entity), sc.probe)
	_, v, res := probeScreens(x.engine(), []*Entity{e}, []int{0}, nil, 0, probeN(x.cores, x.maxN, []int{0}))
	return v, res
}

// index returns the index of tk's whole-task entity in v.
func index(v *probeView, tk *task.Task) int {
	return slices.IndexFunc(v.cs.Entities, func(e *Entity) bool { return e.Task == tk })
}

// steer sets the budget of tk (the probe or a committed whole task), by
// bisection over [1, T], to the largest its screen in the probe's view
// passes (pass) or the smallest it refuses: the screen's own edge,
// wherever the code under test puts it.
func (sc *screenCase) steer(tk *task.Task, pass bool) {
	decided := func(c timeq.Time) bool {
		tk.WCET = c
		v, res := sc.screens(sc.context().(*fpContext))
		if pass {
			return !res[index(v, tk)].pass
		}
		return res[index(v, tk)].refuse
	}
	lo, hi := timeq.Time(1), tk.Period // the first budget past the edge is in (lo, hi]
	if decided(lo) || !decided(hi) {
		tk.WCET = lo
		return
	}
	for hi-lo > 1 {
		if mid := lo + (hi-lo)/2; decided(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	tk.WCET = hi
	if pass {
		tk.WCET = lo
	}
}

// nearOne moves the budget of the last committed whole task above the
// probe so that the probe's U, in exact arithmetic, sits within gap of
// 1 (where one is left to move).
func (sc *screenCase) nearOne(gap *big.Rat) {
	var last *task.Task
	for _, tk := range sc.committed {
		if tk.Priority < sc.probe.Priority {
			last = tk
		}
	}
	if last == nil {
		return
	}
	v, _ := sc.screens(sc.context().(*fpContext))
	var own timeq.Time // last's interference coefficient in U
	for _, o := range v.cs.Entities {
		if o.Task == last {
			own = (&CoreSet{Entities: v.cs.Entities, N: v.cs.N, CacheMax: v.cs.CacheMax}).InflatedCost(o, sc.m)
		}
	}
	u := exactScreen(v, index(v, sc.probe), sc.m, false).u
	// Σ without last, then the budget that brings U to 1 − gap.
	rest := new(big.Rat).Sub(u, big.NewRat(int64(own), int64(last.Period)))
	target := new(big.Rat).Sub(big.NewRat(1, 1), gap)
	room := new(big.Rat).Mul(target.Sub(target, rest), big.NewRat(int64(last.Period), 1))
	if c := ratFloor(room) - int64(own-last.WCET); c >= 1 {
		last.WCET = timeq.Time(c)
	}
}

// FuzzFPEntityScreen is the differential of the per-entity screen
// (rtaScreen) over every entity of a probed core: whole tasks and split
// parts with jitter, probes at any priority, equal priorities, ballast
// that raises N, the zero, paper and inverted-anchor models. For each
// entity of the probe's view, against the cold solve on that view and
// the screen's inequalities in exact arithmetic from the stateless
// overhead methods, it requires:
//
//   - a pass only where the cold solve converges at or below D − J
//     and B + N + limit·U ≤ limit exactly;
//   - a refusal only where the cold solve and the stateless test
//     refuse and B + L + limit·U > limit exactly;
//   - a start no later than the cold response time, nor than
//     (B + L)/(1 − U);
//   - a cold solve of at most ⌊limit·Σ1/T + ΣJ/T⌋ + k + 2 iterations,
//     the bound that makes the solve end without a cap.
//
// On a chain-free core the same holds of the screens the table probe
// runs (fpProbe.tableProbe). And the writer, its snapshot and the
// stateless test give one verdict, the writer and the snapshot counting
// the same work. An input whose first byte has bit 7 set is of the
// fluid format instead (checkFluidScreen). The seed corpus
// (testdata/fuzz/FuzzFPEntityScreen) steers to each edge under each
// model, U within 1e-9 of 1, deadlines past a second and the edge of
// the iteration cap the solve once had (cap_guard_*, which must now
// agree like any other input); its fluid_* entries are in the fluid
// format.
func FuzzFPEntityScreen(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 0 && data[0]&0x80 != 0 {
			// The fluid format: a plain core probed with a strictly
			// lowest task (fluidCaseFromBytes ignores the tag bit).
			if fc := fluidCaseFromBytes(data); fc != nil {
				checkFluidScreen(t, fc)
			}
			return
		}
		sc := screenCaseFromBytes(data)
		if sc == nil {
			return
		}
		checkEntityScreen(t, sc)
	})
}

func checkEntityScreen(t *testing.T, sc *screenCase) {
	t.Helper()
	m := sc.m
	ctx := sc.context()
	if sc.converge {
		ctx.Schedulable()
	}
	snap := ctx.Fork()

	w0 := ctx.Stats()
	onWriter := ctx.TryPlace(sc.probe, 0)
	ctx.Rollback()
	w := ctx.Stats().Sub(w0)
	r0 := ctx.ReadStats()
	onReader := snap.TryPlace(sc.probe, 0)
	r := ctx.ReadStats().Sub(r0)

	clone := snap.CloneAssignment()
	clone.Place(sc.probe, 0)
	want := FixedPriorityRTA.CoreSchedulable(clone, 0, m)
	if onWriter != want || onReader != want {
		t.Fatalf("writer %v, snapshot %v, stateless %v", onWriter, onReader, want)
	}
	if w != r {
		t.Fatalf("writer counted %+v, snapshot %+v", w, r)
	}

	fx := ctx.(*fpContext)
	v, res := sc.screens(fx)
	screens := [][]screenResult{res}
	if len(sc.splits) == 0 {
		// Chain-free, the probe runs from the table: its screens must
		// meet the same inequalities.
		screens = append(screens, tableScreens(fx.engine(), 0, newFPEntityInto(new(Entity), sc.probe), placeN(fx.cores, fx.maxN, 0)))
	}
	one := big.NewRat(1, 1)
	for i, e := range v.cs.Entities {
		rt, ok, iters := v.cs.responseTime(e, m, 0)
		if x := exactScreen(v, i, m, false); big.NewRat(int64(iters), 1).Cmp(x.jobs) > 0 {
			t.Fatalf("entity %d (%v): the cold solve took %d iterations, past the bound %s", i, e, iters, x.jobs.FloatString(1))
		}
		for path, scr := range screens {
			s := scr[i]
			x := exactScreen(v, i, m, path == 1 && e.Task == sc.probe)
			switch {
			case s.pass:
				if !ok || x.lhs(x.n).Cmp(x.limit) > 0 {
					t.Fatalf("path %d entity %d (%v) passed: cold solve %d %v, B + N + limit·U = %s, limit %s",
						path, i, e, rt, ok, x.lhs(x.n).FloatString(3), x.limit)
				}
			case s.refuse:
				if ok || want || x.lhs(x.l).Cmp(x.limit) <= 0 {
					t.Fatalf("path %d entity %d (%v) refused: cold solve %d %v, stateless %v, B + L + limit·U = %s, limit %s",
						path, i, e, rt, ok, want, x.lhs(x.l).FloatString(3), x.limit)
				}
			case s.start > 0:
				den := new(big.Rat).Sub(one, x.u)
				bound := new(big.Rat).Add(x.b, x.l)
				if (ok && s.start > rt) || den.Sign() <= 0 ||
					big.NewRat(int64(s.start), 1).Cmp(bound.Quo(bound, den)) > 0 {
					t.Fatalf("path %d entity %d (%v) started at %d: cold solve %d %v, U = %s",
						path, i, e, s.start, rt, ok, x.u.FloatString(12))
				}
			}
		}
	}
}
