package analysis

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/overhead"
	"repro/internal/task"
	"repro/internal/timeq"
)

// Allocation-regression guards for the snapshot read path. The
// admission hot loop is TryPlace/TrySplit on a published snapshot;
// after the SoA kernels and the pooled probe scratch these must not
// allocate at all in steady state — a single alloc per probe caps
// throughput long before the arithmetic does.
//
// testing.AllocsPerRun averages over every run and does not warm up,
// so each guard first runs its probe a few times to populate the
// scratch pools.

// allocSnapshot builds a committed context with a few admitted tasks
// (and optionally a split chain), engages publication, and returns
// the snapshot plus a probe task that was never committed.
func allocSnapshot(t *testing.T, pol task.Policy, withSplit bool) (Snapshot, *task.Task) {
	t.Helper()
	m := overhead.PaperModel()
	a := task.NewAssignment(4)
	a.Policy = pol
	ctx := ForPolicy(pol).NewContext(a, m)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 12; i++ {
		tk := probeTask(rng, int64(i+1))
		if ctx.TryPlace(tk, i%4) {
			ctx.Commit()
		} else {
			ctx.Rollback()
		}
	}
	if withSplit {
		sp := &task.Split{
			Task:  &task.Task{ID: 900, WCET: ms(4), Period: ms(40), Priority: 40000, WSS: 64 << 10},
			Parts: []task.Part{{Core: 0, Budget: ms(2)}, {Core: 1, Budget: ms(2)}},
		}
		if pol == task.EDF {
			sp.Windows = []timeq.Time{ms(20), ms(20)}
		}
		ctx.AddSplit(sp)
	}
	return ctx.Fork(), probeTask(rng, 500)
}

// probeSplit is a fresh two-part split to probe with (never committed).
func probeSplit(pol task.Policy) *task.Split {
	sp := &task.Split{
		Task:  &task.Task{ID: 901, WCET: ms(2), Period: ms(50), Priority: 41000, WSS: 32 << 10},
		Parts: []task.Part{{Core: 1, Budget: ms(1)}, {Core: 2, Budget: ms(1)}},
	}
	if pol == task.EDF {
		sp.Windows = []timeq.Time{ms(25), ms(25)}
	}
	return sp
}

func assertZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("alloc guards are meaningless under -race: sync.Pool drops Puts to randomize reuse")
	}
	for i := 0; i < 5; i++ {
		f() // warm pools and cost caches
	}
	if n := testing.AllocsPerRun(100, f); n != 0 {
		t.Errorf("%s: %.1f allocs/op, want 0", name, n)
	}
}

// TestSnapshotTryPlaceAllocFree guards the whole-task probe of a
// repeated shape: every probe solves from pooled scratch and leaves
// nothing behind in the snapshot, under both policies.
func TestSnapshotTryPlaceAllocFree(t *testing.T) {
	for _, pol := range []task.Policy{task.FixedPriority, task.EDF} {
		snap, tk := allocSnapshot(t, pol, false)
		assertZeroAllocs(t, pol.String()+"/TryPlace", func() {
			snap.TryPlace(tk, 0)
		})
	}
}

// TestSnapshotTryPlaceSolveAllocFree guards the full solve path: a
// stream of shapes that never repeat costs the same zero allocations as
// a repeated one, under both policies. With a committed fixed-priority
// split chain the probe also builds per-core views, clones the chains
// and runs the jitter resolution. Chain-free probes, answered from the
// core's table, cost nothing either: one the probed task's own screen
// refuses, and ones the per-entity screens pass, refuse and start.
func TestSnapshotTryPlaceSolveAllocFree(t *testing.T) {
	for _, pol := range []task.Policy{task.FixedPriority, task.EDF} {
		snap, _ := allocSnapshot(t, pol, false)
		rng := rand.New(rand.NewSource(5))
		unique := make([]*task.Task, 128)
		for i := range unique {
			unique[i] = probeTask(rng, int64(1000+i))
		}
		i := 0
		assertZeroAllocs(t, pol.String()+"/TryPlace unique shapes", func() {
			snap.TryPlace(unique[i%len(unique)], i%snap.NumCores())
			i++
		})
	}
	snap, tk := allocSnapshot(t, task.FixedPriority, true)
	assertZeroAllocs(t, "FP/TryPlace+chains", func() {
		snap.TryPlace(tk, 2)
	})
	// Chain-free, the probed task meets its own screen first, which
	// refuses a heavy one below every committed priority. Every entity
	// then meets its own screen, which passes, refuses or starts it: a
	// light lowest task leaves nothing to solve, a heavy one at the top
	// is refused with no solve, and a lowest one whose bounds straddle
	// its deadline is solved from the screen's start.
	snap, _ = allocSnapshot(t, task.FixedPriority, false)
	s := snap.(*fpSnapshot)
	for _, tc := range []struct {
		name         string
		wcet         timeq.Time
		prio         int
		fits, solves bool
	}{
		{"own-screen-refused", ms(99), 20000, false, false},
		{"screen-passed", ms(1), 20000, true, false},
		{"screen-refused", ms(99), 1, false, false},
		{"screen-started", ms(93), 20000, true, true},
	} {
		tk := &task.Task{ID: 700, WCET: tc.wcet, Period: ms(100), Priority: tc.prio, WSS: 64 << 10}
		e := newFPEntityInto(new(Entity), tk)
		p := fpProbe{m: s.m, mono: s.mono, maxN: s.maxN, cores: s.cores, chains: s.chains}
		n := placeN(s.cores, s.maxN, 0)
		_, v, scr := probeScreens(p, []*Entity{e}, []int{0}, nil, 0, n)
		ownRefused := tableScreens(p, 0, e, n)[slices.Index(v.cs.Entities, e)].refuse
		before := s.rs.Snapshot()
		fits := snap.TryPlace(tk, 0)
		w := s.rs.Snapshot().Sub(before)
		if fits != tc.fits || ownRefused != (tc.name == "own-screen-refused") || (w.FPSolves > 0) != tc.solves || w.CoreTests != 1 {
			t.Fatalf("FP/TryPlace %s: verdict %v, own screen refused %v, %+v", tc.name, fits, ownRefused, work(w))
		}
		own := scr[slices.Index(v.cs.Entities, e)]
		if tc.name == "screen-started" && (own.start == 0 || own.pass || own.refuse || w.WarmStarts == 0) {
			t.Fatalf("FP/TryPlace %s: the probed task's screen %+v, %+v", tc.name, own, work(w))
		}
		assertZeroAllocs(t, "FP/TryPlace "+tc.name, func() {
			if snap.TryPlace(tk, 0) != tc.fits {
				t.Fatalf("%s: verdict %v", tc.name, !tc.fits)
			}
		})
	}
}

// TestSnapshotTrySplitAllocFree guards split probes: FP runs the chain
// path, EDF the demand test, both from pooled scratch.
func TestSnapshotTrySplitAllocFree(t *testing.T) {
	for _, pol := range []task.Policy{task.FixedPriority, task.EDF} {
		snap, _ := allocSnapshot(t, pol, pol == task.FixedPriority)
		sp := probeSplit(pol)
		assertZeroAllocs(t, pol.String()+"/TrySplit", func() {
			snap.TrySplit(sp, 1)
		})
	}
}

// TestSnapshotProberBatchAllocFree guards the batched-verdict shape
// admitd uses: one Prober pinned across K probes.
func TestSnapshotProberBatchAllocFree(t *testing.T) {
	snap, tk := allocSnapshot(t, task.FixedPriority, true)
	sp := probeSplit(task.FixedPriority)
	assertZeroAllocs(t, "FP/Prober batch", func() {
		p := snap.Prober()
		for c := 0; c < snap.NumCores(); c++ {
			p.TryPlace(tk, c)
		}
		p.TrySplit(sp, 1)
		p.Close()
	})
}

// TestSnapshotSchedulableAllocFree guards the state-render read: the
// full-test verdict is computed at most once per snapshot, so repeat
// reads are one atomic load.
func TestSnapshotSchedulableAllocFree(t *testing.T) {
	for _, pol := range []task.Policy{task.FixedPriority, task.EDF} {
		snap, _ := allocSnapshot(t, pol, false)
		assertZeroAllocs(t, pol.String()+"/Schedulable", func() {
			snap.Schedulable()
		})
	}
}
