package analysis

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/overhead"
	"repro/internal/task"
	"repro/internal/taskgen"
	"repro/internal/timeq"
)

// The incremental engine decides the processor-demand criterion by
// walking down the absolute deadlines (edfDemandWalk); the stateless
// oracle lists them all and checks them in ascending order. They share
// the screens and the horizon and nothing after it, so the suites below
// compare two computations, not one with itself.

// engineDemand runs the engine's demand test on the entity set of cs as
// a committed core: verdict, and the deadlines it evaluated h at.
func engineDemand(m *overhead.Model, cs *CoreSet) (bool, int64) {
	r := coreRec{ents: cs.Entities, nNormals: len(cs.Entities), cacheMax: cs.CacheMax}
	var set CoreSet
	return edfEvalProbe(m, &r, &set, 0, nil, nil, nil, cs.N)
}

// Entity kinds of an EDF core: a whole task, or the first, a body or
// the tail part of a window-split one.
const (
	kindWhole = iota
	kindFirst
	kindBody
	kindTail
	numKinds
)

func edfEntityOf(id int, c, d, t timeq.Time, kind int, wss int64) *Entity {
	e := &Entity{Task: &task.Task{ID: task.ID(id), WCET: c, Period: t, Deadline: d, WSS: wss}, C: c, T: t, D: d}
	switch kind {
	case kindFirst:
		e.MigrOut = true
	case kindBody:
		e.PartIndex, e.MigrIn, e.MigrOut = 1, true, true
	case kindTail:
		e.PartIndex, e.MigrIn, e.RemoteSleepAdd = 2, true, true
	}
	return e
}

// walkPeriods keeps hyperperiods, and with them the oracle's
// enumeration near full utilization, short.
var walkPeriods = []timeq.Time{ms(1), ms(2), ms(4), ms(5), ms(8), ms(10), ms(16), ms(20), ms(25), ms(40), ms(50), ms(80), ms(100)}

// randomEDFCore draws a core of 1–24 entities whose budget utilization
// sums to util, with implicit or constrained deadlines (tight says how
// constrained), whole tasks and split parts, at a queue bound at or
// above its size.
func randomEDFCore(rng *rand.Rand, m *overhead.Model, util, tight float64, migrating bool) *CoreSet {
	k := 1 + rng.Intn(24)
	w := make([]float64, k)
	sum := 0.0
	for i := range w {
		w[i] = 0.05 + rng.Float64()
		sum += w[i]
	}
	var es []*Entity
	for i := range w {
		t := walkPeriods[rng.Intn(len(walkPeriods))]
		if rng.Intn(4) == 0 {
			t = ms(1) + timeq.Time(rng.Int63n(int64(ms(99))))/timeq.Microsecond*timeq.Microsecond
		}
		c := timeq.Time(float64(t) * util * w[i] / sum)
		if c < timeq.Microsecond {
			c = timeq.Microsecond
		}
		d := t
		if rng.Float64() < tight {
			// Anywhere from the budget plus some slack up to the period.
			lo := c + c/2 + 50*timeq.Microsecond
			if lo < t {
				d = lo + timeq.Time(rng.Int63n(int64(t-lo)+1))
			}
		}
		kind := kindWhole
		if migrating || rng.Intn(5) == 0 {
			kind = 1 + rng.Intn(numKinds-1)
		}
		es = append(es, edfEntityOf(i+1, c, d, t, kind, int64(rng.Intn(5))*(32<<10)))
	}
	n := k + []int{0, 0, 3, 16 - k, 64 - k}[rng.Intn(5)]
	return NewCoreSet(es, n, m)
}

// TestEDFDemandWalkMatchesEnumeration is the differential of the demand
// kernel: over seeded random cores — utilization pushed towards 1 and
// well below it, so the horizon is set by the busy period in some and
// by the largest deadline in others — the engine's verdict equals the
// oracle's, and the named fixtures pin the walk's edges.
func TestEDFDemandWalkMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(20261004))
	var pass, failWalk, failScreen, byBusy, byDmax int
	var points, raw int64
	for _, m := range []*overhead.Model{overhead.Zero(), overhead.PaperModel()} {
		for i := 0; i < 3000; i++ {
			util := 0.80 + 0.21*rng.Float64()
			tight := 0.3 * rng.Float64()
			if i%3 == 0 {
				// Light cores with tight deadlines: the horizon is D_max
				// and a miss, if any, is at an early deadline.
				util, tight = 0.2+0.6*rng.Float64(), 0.5+0.5*rng.Float64()
			}
			cs := randomEDFCore(rng, m, util, tight, i%7 == 0)
			want := cs.EDFCoreSchedulable(m)
			got, pts := engineDemand(m, cs)
			if got != want {
				t.Fatalf("model zero=%v case %d (%d entities, N=%d): walk %v, enumeration %v", m.IsZero(), i, len(cs.Entities), cs.N, got, want)
			}
			points += pts
			switch {
			case got:
				pass++
			case pts > 0:
				failWalk++
			default:
				failScreen++
			}
			if l, _, ok := cs.edfHorizon(m); ok {
				// The horizon is the busy period extended over D_max.
				if l > slices.Max(cs.soaD[:len(cs.Entities)]) {
					byBusy++
				} else {
					byDmax++
				}
				all, _ := cs.deadlinePoints(l)
				raw += int64(len(all))
			}
		}
	}
	t.Logf("%d pass, %d fail at a deadline, %d fail a screen; horizon = busy period %d, = D_max %d; %d deadlines evaluated of %d distinct", pass, failWalk, failScreen, byBusy, byDmax, points, raw)
	for name, n := range map[string]int{"pass": pass, "fail at a deadline": failWalk, "fail a screen": failScreen, "busy-period horizon": byBusy, "D_max horizon": byDmax} {
		if n < 200 {
			t.Errorf("degenerate mix: only %d cases %s", n, name)
		}
	}
	if points*4 > raw {
		t.Errorf("the walk evaluated %d of %d distinct deadlines: it is not skipping", points, raw)
	}

	z, p := overhead.Zero(), overhead.PaperModel()
	whole := func(c, d, t timeq.Time) *Entity { return edfEntityOf(0, c, d, t, kindWhole, 0) }
	for _, fx := range []struct {
		name   string
		m      *overhead.Model
		ents   []*Entity
		want   bool
		points int64 // deadlines the walk must evaluate; -1: not pinned
	}{
		// U = 1 with implicit deadlines: h(20) = 20 at the hyperperiod,
		// the horizon. The walk goes on to 16 (h = 13), 12 (h = 11),
		// 10 (h = 9) and 8 (h = 4), and no deadline lies below 4.
		{"h(t) == t", z, []*Entity{whole(ms(2), ms(4), ms(4)), whole(ms(5), ms(10), ms(10))}, true, 5},
		// One tick more demand than time at the only deadline is a miss.
		{"h(t) == t + 1", z, []*Entity{whole(ms(2), ms(4), ms(8)), whole(ms(2)+1, ms(4), ms(8))}, false, 1},
		// h(10) = 4 and 3 = h(10) − 1 is itself a deadline: it must be
		// the next one looked at, not skipped. With positive budgets a
		// deadline at exactly h(t) − 1 always passes (the step of h at t
		// is at least one tick), so this verdict cannot tell; the count
		// of deadlines does.
		{"deadline at h(t)-1, passing", z, []*Entity{whole(2, 3, 10), whole(2, 10, 10)}, true, 2},
		// Only a zero-budget entity lets that deadline be the missed one:
		// h(5) = 4, and at 3 = h(5) − 1 the demand is 4.
		{"deadline at h(t)-1, missed", z, []*Entity{whole(0, 5, 5), whole(2, 3, 100), whole(2, 3, 100)}, false, 2},
		{"one entity", p, []*Entity{whole(ms(3), ms(4), ms(10))}, true, 1},
		{"one entity over its deadline", p, []*Entity{whole(ms(4), ms(4), ms(10))}, false, 0},
		// Every entity arrives by migration: no timer release, so h has
		// no rel term at all.
		{"all migrating", p, []*Entity{
			edfEntityOf(1, ms(2), ms(5), ms(10), kindBody, 64<<10),
			edfEntityOf(2, ms(3), ms(8), ms(20), kindTail, 64<<10),
			edfEntityOf(3, ms(1), ms(4), ms(10), kindTail, 0),
		}, true, -1},
		// Timer-released entities carry release-path demand at every
		// deadline. Under the paper model at N = 2 (C' = C + 30 µs,
		// rel = 12.8 µs, B = 43 µs) these budgets miss at 10 ms by
		// 8.6 µs, and make it by 17 µs without the 25.6 µs of releases.
		{"rel term decides", p, []*Entity{whole(4940*timeq.Microsecond, ms(6), ms(10)), whole(4940*timeq.Microsecond, ms(10), ms(10))}, false, 2},
		// One short and one long period: the enumeration lists
		// ⌊(L − 1µs)/1µs⌋ + 1 deadlines of the short one and one of the
		// long one, L being the long deadline.
		{"raw == cap", z, []*Entity{whole(1, 1000, 1000), whole(1, 1_999_999_000, 1_999_999_000)}, true, -1},
		{"raw == cap + 1", z, []*Entity{whole(1, 1000, 1000), whole(1, 2_000_000_000, 2_000_000_000)}, false, 0},
	} {
		cs := NewCoreSet(fx.ents, len(fx.ents), fx.m)
		want := cs.EDFCoreSchedulable(fx.m)
		got, pts := engineDemand(fx.m, cs)
		if want != fx.want {
			t.Errorf("%s: the fixture is not what it says: enumeration %v, want %v", fx.name, want, fx.want)
		}
		if got != want || (fx.points >= 0 && pts != fx.points) {
			t.Errorf("%s: walk %v at %d deadlines, enumeration %v (want %d deadlines)", fx.name, got, pts, want, fx.points)
		}
	}
}

// edfCoreFromBytes decodes a core from fuzz input: one header byte
// (model, queue-bound slack), then eight bytes an entity — period in
// 10 µs steps up to 0.66 s, budget and deadline as fractions of it,
// kind and working set. Parameters stay small enough for the oracle to
// enumerate.
func edfCoreFromBytes(data []byte) (*overhead.Model, *CoreSet) {
	if len(data) < 9 {
		return nil, nil
	}
	m := overhead.Zero()
	if data[0]&1 != 0 {
		m = overhead.PaperModel()
	}
	slack := int(data[0] >> 1 & 63)
	var es []*Entity
	for b := data[1:]; len(b) >= 8 && len(es) < 24; b = b[8:] {
		t := timeq.Time(1+int64(b[0])<<8+int64(b[1])) * 10 * timeq.Microsecond
		c := 1 + t*timeq.Time(int64(b[2])<<8+int64(b[3]))/(1<<16)
		d := c + (t-c)*timeq.Time(b[4])/255 + timeq.Time(b[5]&15)*timeq.Microsecond
		es = append(es, edfEntityOf(len(es)+1, c, d, t, int(b[6])%numKinds, int64(b[7]&7)*(32<<10)))
	}
	return m, NewCoreSet(es, len(es)+slack, m)
}

// FuzzEDFDemandWalk: on any decodable core the engine's walk returns
// the enumeration's verdict, and panics nowhere the enumeration does
// not.
func FuzzEDFDemandWalk(f *testing.F) {
	// (2 ms, 4 ms) and (5 ms, 10 ms) less a few ticks, zero model; then a
	// whole task, a body part and a tail part under the paper model.
	f.Add([]byte{0, 0x01, 0x8f, 0x7f, 0xff, 255, 0, 0, 0, 0x03, 0xe7, 0x7f, 0xff, 255, 0, 0, 0})
	f.Add([]byte{1, 0x03, 0xe7, 0x40, 0, 128, 3, 0, 2, 0x07, 0xcf, 0x30, 0, 255, 0, 2, 1, 0x01, 0xf3, 0x20, 0, 200, 5, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, cs := edfCoreFromBytes(data)
		if cs == nil {
			return
		}
		run := func(f func() bool) (ok bool, panicked any) {
			defer func() { panicked = recover() }()
			return f(), nil
		}
		want, oraclePanic := run(func() bool { return cs.EDFCoreSchedulable(m) })
		got, enginePanic := run(func() bool { ok, _ := engineDemand(m, cs); return ok })
		if oraclePanic != nil {
			return
		}
		if enginePanic != nil {
			t.Fatalf("the walk panicked where the enumeration answered %v: %v", want, enginePanic)
		}
		if got != want {
			t.Fatalf("walk %v, enumeration %v on %s", got, want, describeCore(cs))
		}
	})
}

func describeCore(cs *CoreSet) string {
	s := fmt.Sprintf("N=%d", cs.N)
	for _, e := range cs.Entities {
		s += fmt.Sprintf(" (C=%d D=%d T=%d in=%v out=%v wss=%d)", int64(e.C), int64(e.D), int64(e.T), e.MigrIn, e.MigrOut, e.Task.WSS)
	}
	return s
}

// totalAlloc returns the bytes f allocated (process-wide, so callers
// keep the process otherwise idle).
func totalAlloc(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestEDFExtremePeriodRatio is the hostile-input guard: next to a
// 400 ms / 1 s task, a 1 µs / 2.5 µs task has 400 000 absolute
// deadlines below the horizon (it fits) and a 1 ns / 2 ns task half a
// billion (over deadlinePointCap: rejected). A probe must not list
// them — that is tens of megabytes and a tenth of a second of one
// core per request: the walk looks at a few and counts the rest in
// closed form, so a probe on either owner allocates next to nothing
// and answers as the oracle does.
func TestEDFExtremePeriodRatio(t *testing.T) {
	z := overhead.Zero()
	a := task.NewAssignment(1)
	a.Policy = task.EDF
	ctx := EDFDemand.NewContext(a, z)
	ctx.Place(&task.Task{ID: 1, WCET: ms(400), Period: ms(1000)}, 0)
	snap := ctx.Fork()
	for _, tc := range []struct {
		name string
		tk   *task.Task
		want bool
	}{
		{"1µs/2.5µs", &task.Task{ID: 2, WCET: 1000, Period: 2500}, true},
		{"1ns/2ns", &task.Task{ID: 3, WCET: 1, Period: 2}, false},
	} {
		var onWriter, onReader, oracle bool
		before := ctx.Stats()
		wBytes := totalAlloc(func() { onWriter = ctx.TryPlace(tc.tk, 0) })
		// The tentative placement is in the assignment: the stateless
		// test sees the probed state.
		oracle = EDFDemand.CoreSchedulable(a, 0, z)
		ctx.Rollback()
		rBytes := totalAlloc(func() { onReader = snap.TryPlace(tc.tk, 0) })
		if oracle != tc.want || onWriter != oracle || onReader != oracle {
			t.Errorf("%s: writer %v, reader %v, enumeration %v, want %v", tc.name, onWriter, onReader, oracle, tc.want)
		}
		if wBytes > 64<<10 || rBytes > 64<<10 {
			t.Errorf("%s: the probe allocated %d B on the writer and %d B on the reader, want < 64 KB", tc.name, wBytes, rBytes)
		}
		if d := ctx.Stats().Sub(before); d.DemandTests != 1 || d.DemandPoints > 100 {
			t.Errorf("%s: %d demand tests at %d deadlines, want one test at a handful", tc.name, d.DemandTests, d.DemandPoints)
		}
	}
}

// BenchmarkEDFDemand times one demand test on a core of the Section-4
// sweep's shape — 16 tasks packed first-fit onto 4 cores at 0.975 per
// core, paper model — as the incremental engine runs it (a writer
// probe) and as the stateless oracle does, with the deadlines each
// looks at. The probe is the last task of the packing that fits, on
// the core it fits.
func BenchmarkEDFDemand(b *testing.B) {
	const cores = 4
	m := overhead.PaperModel()
	tasks := taskgen.New(taskgen.Config{N: 16, TotalUtilization: 0.975 * cores, Seed: 1}).Next().SortedByUtilizationDesc()
	newCtx := func() (Context, *task.Assignment) {
		a := task.NewAssignment(cores)
		a.Policy = task.EDF
		return EDFDemand.NewContext(a, m), a
	}
	type fit struct {
		tk   *task.Task
		core int
	}
	var fits []fit
	ctx, a := newCtx()
	for _, tk := range tasks {
		for c := 0; c < cores; c++ {
			if ctx.TryPlace(tk, c) {
				ctx.Commit()
				fits = append(fits, fit{tk, c})
				break
			}
			ctx.Rollback()
		}
	}
	ctx, a = newCtx()
	for _, f := range fits[:len(fits)-1] {
		ctx.Place(f.tk, f.core)
	}
	ctx.Schedulable() // the committed busy periods, as the packing's own probes leave them
	probe, core := fits[len(fits)-1].tk, fits[len(fits)-1].core

	b.Run("engine", func(b *testing.B) {
		before := ctx.Stats()
		for i := 0; i < b.N; i++ {
			if !ctx.TryPlace(probe, core) {
				b.Fatal("the probe must fit")
			}
			ctx.Rollback()
		}
		d := ctx.Stats().Sub(before)
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(d.DemandTests), "ns/test")
		b.ReportMetric(d.MeanDemandPoints(), "points/test")
	})
	b.Run("oracle", func(b *testing.B) {
		a.Place(probe, core)
		cs := EDFBuildCore(a, core, m)
		l, _, _ := cs.edfHorizon(m)
		pts, _ := cs.deadlinePoints(l)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !EDFDemand.CoreSchedulable(a, core, m) {
				b.Fatal("the probe must fit")
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/test")
		b.ReportMetric(float64(len(pts)), "points/test")
		a.Normal[core] = a.Normal[core][:len(a.Normal[core])-1]
	})
}
