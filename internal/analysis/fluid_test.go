package analysis

import (
	"math/big"
	"testing"

	"repro/internal/overhead"
	"repro/internal/task"
	"repro/internal/timeq"
)

// fluidCase is one decoded input of the fluid format: committed plain
// tasks for core 0, ballast for core 1 (it raises the queue bound), and
// the probed task, strictly lowest in priority on core 0.
type fluidCase struct {
	m         *overhead.Model
	committed []*task.Task
	ballast   int
	converge  bool // run a full test before forking: cached verdicts
	adopt     bool // open the context over the filled assignment, not Place into it
	probe     *task.Task
}

// fluidModels are the three model classes the screen must hold under:
// zero, the paper's, and one whose local queue costs fall as N grows
// (non-monotone: the engine then starts cold everywhere but the
// screen's own bound).
func fluidModels() [3]*overhead.Model {
	inverted := overhead.PaperModel()
	inverted.Queues.LocalN64[overhead.SleepDelete] = inverted.Queues.LocalN4[overhead.SleepDelete] / 2
	return [3]*overhead.Model{overhead.Zero(), overhead.PaperModel(), inverted}
}

// plainCharge returns what the stateless methods charge a plain entity
// e on a core of queue bound n and cache delay cm: a = arrival +
// departure + cm, and the blocking term of an entity nothing is lower
// than.
func plainCharge(m *overhead.Model, e *Entity, n int, cm timeq.Time) (a, blk timeq.Time) {
	cs := &CoreSet{Entities: []*Entity{e}, N: n, CacheMax: cm}
	return cs.InflatedCost(e, m) - e.C, cs.Blocking(e, m)
}

// fluidCaseFromBytes decodes a case. Header: model, mode and how the
// context is built, ballast,
// a signed nudge in ns, how near 1 mode 3 puts U, the probe's deadline
// (two bytes) and its working set; then six bytes a committed task —
// period (two), budget fraction (two), priority and working set.
// Deadlines and periods reach 1.3 s, where 1e-9 of one is a
// nanosecond. Modes steer what the fuzzer finds rarely: 1 sets the
// probe's budget so that its bound B/(1 − U) lands within the nudge of
// D; 2 does so on periods that divide D, where the bound is exact and D
// itself the least fixed point when the nudge is 0; 3 first moves the
// last budget so that U sits within 1e-10..6.4e-6 of 1.
func fluidCaseFromBytes(data []byte) *fluidCase {
	if len(data) < 13 {
		return nil
	}
	fc := &fluidCase{m: fluidModels()[int(data[0]&3)%3]}
	mode := data[0] >> 2 & 3
	fc.converge = data[0]&16 != 0
	fc.adopt = data[0]&32 != 0
	fc.ballast = int(data[1] & 31)
	nudge := timeq.Time(int8(data[2]) % 5)
	nearOne := big.NewRat(1+int64(data[3]&63), [4]int64{1e10, 1e9, 1e8, 1e7}[data[3]>>6])
	dRaw := int64(data[4])<<8 | int64(data[5])
	d := timeq.Time(1+dRaw) * 20 * timeq.Microsecond
	if mode == 2 {
		d = timeq.Time(1+dRaw%2000) * 840 * timeq.Microsecond
	}
	probeWSS := int64(data[6]) * (16 << 10)
	maxPrio := 0
	for b := data[7:]; len(b) >= 6 && len(fc.committed) < 24; b = b[6:] {
		t := timeq.Time(1+(int64(b[0])<<8|int64(b[1]))) * 20 * timeq.Microsecond
		if mode == 2 {
			t = d / timeq.Time(1+b[0]%8)
		}
		c := 1 + t*timeq.Time(int64(b[2])<<8|int64(b[3]))/(1<<18)
		prio := int(t / timeq.Microsecond) // rate monotonic
		if b[4]&1 != 0 {
			prio = int(b[4] >> 1)
		}
		maxPrio = max(maxPrio, prio)
		fc.committed = append(fc.committed, &task.Task{
			ID: task.ID(len(fc.committed) + 1), WCET: c, Period: t, Priority: prio, WSS: int64(b[5]&15) * (32 << 10),
		})
	}
	if len(fc.committed) == 0 {
		return nil
	}
	fc.probe = &task.Task{ID: 1000, Period: d, Priority: maxPrio + 1, WSS: probeWSS}
	fc.probe.WCET = 1 + d*timeq.Time(data[6])/1024
	if mode == 0 {
		return fc
	}
	n, cm := fc.bound()
	a, blk := plainCharge(fc.m, newFPEntityInto(new(Entity), fc.probe), n, cm)
	if mode == 3 {
		last := fc.committed[len(fc.committed)-1]
		rest := fluidU(fc.committed[:len(fc.committed)-1], a)
		target := new(big.Rat).Sub(big.NewRat(1, 1), nearOne)
		room := new(big.Rat).Mul(target.Sub(target, rest), big.NewRat(int64(last.Period), 1))
		if c := ratFloor(room) - int64(a); c >= 1 {
			last.WCET = timeq.Time(c)
		}
	}
	// B = D·(1 − U), B = C + a + blk.
	u := fluidU(fc.committed, a)
	want := new(big.Rat).Mul(new(big.Rat).Sub(big.NewRat(1, 1), u), big.NewRat(int64(d), 1))
	if c := timeq.Time(ratFloor(want)) - a - blk + nudge; c >= 1 {
		fc.probe.WCET = c
	}
	return fc
}

// bound returns the probe state's queue bound and core 0's cache delay
// with the probe on it.
func (fc *fluidCase) bound() (n int, cm timeq.Time) {
	n = max(len(fc.committed)+1, fc.ballast)
	cm = fc.m.Cache.MaxDelay(fc.probe.WSS)
	for _, t := range fc.committed {
		cm = max(cm, fc.m.Cache.MaxDelay(t.WSS))
	}
	return n, cm
}

// fluidU is Σ (Cⱼ + a)/Tⱼ over ts, exactly.
func fluidU(ts []*task.Task, a timeq.Time) *big.Rat {
	u := new(big.Rat)
	for _, t := range ts {
		u.Add(u, big.NewRat(int64(t.WCET+a), int64(t.Period)))
	}
	return u
}

func ratFloor(r *big.Rat) int64 {
	q := new(big.Int).Div(r.Num(), r.Denom()) // Euclidean: floor for a positive denominator
	return q.Int64()
}

// FuzzFPFluidScreen runs the fluid format's seeds under their own
// names (testdata/fuzz/FuzzFPFluidScreen); CI fuzzes the format through
// FuzzFPEntityScreen.
func FuzzFPFluidScreen(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if fc := fluidCaseFromBytes(data); fc != nil {
			checkFluidScreen(t, fc)
		}
	})
}

// checkFluidScreen checks one input of the fluid format, a plain core
// probed with a strictly lowest task, where the table probe screens the
// probed task first, from its table sums (fpProbe.tableProbe), with no
// view built. It requires: a refusal of that screen only where the
// stateless CoreSchedulable refuses, and no solve behind it; a start
// no later than the stateless response time of the probed task; the
// writer and its snapshot agreeing with the stateless verdict and
// counting the same work; and the screen as strong as its bound,
// computed here in exact arithmetic from the stateless overhead
// methods, with the committed tasks of period T ≥ D charged once in the
// base (B′) and the rest in U′ (see tableSlot.long) — it refuses
// whenever B′ + D·U′ clears D by 1e-8 of D, and, with U′ clear of 1,
// it starts within 1e-8 of the bound B′/(1 − U′) unless it decides the
// task outright.
//
// FuzzFPEntityScreen fuzzes the format, tagged by bit 7 of the first
// byte, from a tagged copy of FuzzFPFluidScreen's corpus
// (testdata/fuzz/FuzzFPEntityScreen/fluid_*): exact hits under all
// three models, one at D = 1.26 s, U within 1e-7 of 1, bounds a few ns
// either side of D and the reach of the iteration cap the solve once
// had.
func checkFluidScreen(t *testing.T, fc *fluidCase) {
	t.Helper()
	m := fc.m
	a := task.NewAssignment(2)
	a.Policy = task.FixedPriority
	place := a.Place
	var ctx Context
	if !fc.adopt {
		ctx = FixedPriorityRTA.NewContext(a, m)
		place = ctx.Place
	}
	for _, tk := range fc.committed {
		place(tk, 0)
	}
	for i := 0; i < fc.ballast; i++ {
		place(&task.Task{ID: task.ID(2000 + i), WCET: timeq.Microsecond, Period: timeq.Second, Priority: 1}, 1)
	}
	if fc.adopt {
		ctx = FixedPriorityRTA.NewContext(a, m)
	}
	if fc.converge {
		ctx.Schedulable()
	}
	snap := ctx.Fork()

	w0 := ctx.Stats()
	onWriter := ctx.TryPlace(fc.probe, 0)
	ctx.Rollback()
	w := ctx.Stats().Sub(w0)
	r0 := ctx.ReadStats()
	onReader := snap.TryPlace(fc.probe, 0)
	r := ctx.ReadStats().Sub(r0)

	clone := snap.CloneAssignment()
	clone.Place(fc.probe, 0)
	want := FixedPriorityRTA.CoreSchedulable(clone, 0, m)
	cs := BuildCore(clone, 0, m)
	var probed *Entity
	for _, e := range cs.Entities {
		if e.Task == fc.probe {
			probed = e
		}
	}
	rOracle, okOracle := cs.ResponseTime(probed, m)

	x := ctx.(*fpContext)
	n := placeN(x.cores, x.maxN, 0)
	e := newFPEntityInto(new(Entity), fc.probe)
	lowest := tableScreens(x.engine(), 0, e, n)[len(fc.committed)] // the probed task's own screen
	refuse, start := lowest.refuse, lowest.start

	if onWriter != want || onReader != want {
		t.Fatalf("writer %v, snapshot %v, stateless %v", onWriter, onReader, want)
	}
	if w != r {
		t.Fatalf("writer counted %+v, snapshot %+v", w, r)
	}
	if refuse && (want || w.FPSolves != 0) {
		t.Fatalf("screen refused; stateless %v, the probe solved %d fixed points", want, w.FPSolves)
	}
	if !refuse && okOracle && start > rOracle {
		t.Fatalf("screen start %d beyond the stateless response time %d", start, rOracle)
	}

	wantN, cm := fc.bound()
	if n != wantN {
		t.Fatalf("probe queue bound %d, want %d", n, wantN)
	}
	ac, blk := plainCharge(m, probed, n, cm)
	// The bound the screen reads: B′ = B + the committed tasks of period
	// T ≥ D at C + a each (one release in (0, D]), U′ over the rest.
	b := big.NewRat(int64(probed.C+ac+blk), 1)
	var short []*task.Task
	for _, tk := range fc.committed {
		if tk.Period >= probed.D {
			b.Add(b, big.NewRat(int64(tk.WCET+ac), 1))
		} else {
			short = append(short, tk)
		}
	}
	u := fluidU(short, ac)
	d := big.NewRat(int64(probed.D), 1)
	one := big.NewRat(1, 1)
	slack := big.NewRat(1, 1e8)
	// Refused whenever B′ + D·U′ clears D by the slack: the screen's own
	// test, which near U′ = 1 is far from the bound clearing D. It
	// implies the fluid bound's B + D·U clearing D: a long task's C + a
	// is at least D·(C + a)/T.
	lhs := new(big.Rat).Add(b, new(big.Rat).Mul(d, u))
	if lhs.Cmp(new(big.Rat).Mul(d, new(big.Rat).Add(one, slack))) > 0 && !refuse {
		t.Fatalf("B′ + D·U′ = %s clears D = %s (U′ = %s), not refused", lhs.FloatString(3), d, u.FloatString(12))
	}
	den := new(big.Rat).Sub(one, u)
	if !refuse && !lowest.pass && den.Cmp(big.NewRat(1, 1000)) > 0 {
		bound := new(big.Rat).Quo(b, den)
		low := min(ratFloor(new(big.Rat).Mul(bound, new(big.Rat).Sub(one, slack)))-1, int64(probed.D))
		if int64(start) < low {
			t.Fatalf("screen start %d, want at least %d (bound %s)", start, low, bound.FloatString(3))
		}
	}
}
