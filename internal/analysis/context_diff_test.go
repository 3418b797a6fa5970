package analysis

import (
	"math/rand"
	"testing"

	"repro/internal/overhead"
	"repro/internal/task"
	"repro/internal/taskgen"
	"repro/internal/timeq"
)

// The differential fuzz suite: for randomized task sets and
// randomized placement/split/commit/rollback sequences, every context
// decision must match the stateless Schedulable / CoreSchedulable
// path exactly, for both analyzers and both the zero and the paper
// overhead model. SelfCheck wraps each context so the comparison runs
// on the identical assignment state at the moment of each probe; any
// divergence panics inside the wrapped call.

// withSelfCheck runs f with the stateless shadow enabled.
func withSelfCheck(t *testing.T, f func()) {
	t.Helper()
	old := SelfCheck
	SelfCheck = true
	defer func() { SelfCheck = old }()
	f()
}

// randomSet draws a small random task set with RM priorities.
func randomSet(rng *rand.Rand, n int, util float64) *task.Set {
	s := taskgen.New(taskgen.Config{
		N:                n,
		TotalUtilization: util,
		Seed:             rng.Int63(),
	}).Next()
	return s
}

// randomSplit carves t into 2..maxParts parts over distinct random
// cores; for EDF it attaches equal deadline windows.
func randomSplit(rng *rand.Rand, t *task.Task, cores int, edf bool) *task.Split {
	k := 2 + rng.Intn(2)
	if k > cores {
		k = cores
	}
	if k < 2 {
		return nil
	}
	perm := rng.Perm(cores)[:k]
	budgets := make([]timeq.Time, k)
	remaining := t.WCET
	for i := 0; i < k-1; i++ {
		share := remaining / timeq.Time(k-i+1)
		if share < timeq.Microsecond {
			share = timeq.Microsecond
		}
		if share >= remaining {
			return nil
		}
		budgets[i] = share
		remaining -= share
	}
	budgets[k-1] = remaining
	if remaining <= 0 {
		return nil
	}
	sp := &task.Split{Task: t}
	for i := 0; i < k; i++ {
		sp.Parts = append(sp.Parts, task.Part{Core: perm[i], Budget: budgets[i]})
	}
	if edf {
		d := t.EffectiveDeadline()
		w := d / timeq.Time(k)
		for i := 0; i < k; i++ {
			if w < budgets[i] {
				return nil // window must cover the budget
			}
			sp.Windows = append(sp.Windows, w)
		}
	}
	return sp
}

// driveRandomOps replays a random probe/commit/rollback sequence
// against a self-checked context. Returns the number of probes run.
func driveRandomOps(rng *rand.Rand, an Analyzer, m *overhead.Model, cores int, set *task.Set) int {
	a := task.NewAssignment(cores)
	ctx := an.NewContext(a, m)
	probes := 0
	for _, t := range set.SortedByUtilizationDesc() {
		switch op := rng.Intn(10); {
		case op < 6: // probe a few cores, maybe keep one
			placed := false
			for c := 0; c < cores; c++ {
				probes++
				fits := ctx.TryPlace(t, c)
				if fits && !placed && rng.Intn(2) == 0 {
					ctx.Commit()
					placed = true
					break
				}
				ctx.Rollback()
			}
			if !placed && rng.Intn(2) == 0 {
				// Unprobed placement of the last probed core.
				ctx.Place(t, rng.Intn(cores))
			}
		case op < 8: // try a split
			sp := randomSplit(rng, t, cores, an.Policy() == task.EDF)
			if sp == nil {
				continue
			}
			c := sp.Parts[rng.Intn(len(sp.Parts))].Core
			probes++
			fits := ctx.TrySplit(sp, c)
			if fits && rng.Intn(2) == 0 {
				ctx.Commit()
			} else {
				ctx.Rollback()
			}
		case op < 9: // unprobed split install
			sp := randomSplit(rng, t, cores, an.Policy() == task.EDF)
			if sp == nil {
				continue
			}
			ctx.AddSplit(sp)
		default: // unprobed placement
			ctx.Place(t, rng.Intn(cores))
		}
		if rng.Intn(3) == 0 {
			ctx.Schedulable()
		}
	}
	ctx.Schedulable()
	ctx.Flush()
	return probes
}

// TestContextMatchesStatelessFuzz drives randomized probe sequences
// for both analyzers under both overhead models; the SelfCheck shadow
// panics on the first divergence from the stateless path.
func TestContextMatchesStatelessFuzz(t *testing.T) {
	withSelfCheck(t, func() {
		rng := rand.New(rand.NewSource(20260729))
		// Zero and PaperModel are monotone (chains resolve from the
		// committed jitters); the scaled remote penalty shrinks the
		// remote-local gap with N, and the inverted model shrinks a
		// local anchor — both must force the cold fallback and still
		// match the stateless path exactly.
		inverted := overhead.PaperModel()
		inverted.Queues.LocalN64[overhead.ReadyAdd] = inverted.Queues.LocalN4[overhead.ReadyAdd] / 2
		models := []*overhead.Model{
			overhead.Zero(),
			overhead.PaperModel(),
			overhead.PaperModel().WithRemotePenalty(8),
			inverted,
		}
		probes := 0
		for round := 0; round < 30; round++ {
			cores := 2 + rng.Intn(3)
			n := 4 + rng.Intn(8)
			util := 0.5*float64(cores) + rng.Float64()*0.5*float64(cores)
			set := randomSet(rng, n, util)
			for _, an := range []Analyzer{FixedPriorityRTA, EDFDemand} {
				for _, m := range models {
					probes += driveRandomOps(rng, an, m, cores, set.Clone())
				}
			}
		}
		if probes < 500 {
			t.Fatalf("fuzz drove only %d probes; sequences degenerate", probes)
		}
	})
}

// TestModelMonotoneGate pins the monotonicity gate: the shipped models
// at penalty 1 are monotone, scaled penalties over PaperModel's
// shrinking remote-local gaps are not, and neither are inverted
// anchor tables.
func TestModelMonotoneGate(t *testing.T) {
	if !modelMonotone(overhead.Zero()) || !modelMonotone(overhead.PaperModel()) {
		t.Fatal("shipped models must be monotone")
	}
	for _, p := range []float64{2, 4, 8} {
		if modelMonotone(overhead.PaperModel().WithRemotePenalty(p)) {
			t.Fatalf("penalty %v scales PaperModel's shrinking remote gaps; must not be monotone", p)
		}
	}
	inv := overhead.PaperModel()
	inv.Queues.LocalN64[overhead.SleepAdd] = 1
	if modelMonotone(inv) {
		t.Fatal("inverted local anchors must not be monotone")
	}
}

// TestContextWarmRepeatedFullTests checks that repeated Schedulable
// calls (served increasingly from the verdict cache) keep answering
// like the stateless path while mutations interleave.
func TestContextWarmRepeatedFullTests(t *testing.T) {
	withSelfCheck(t, func() {
		rng := rand.New(rand.NewSource(7))
		set := randomSet(rng, 10, 3.0)
		for _, an := range []Analyzer{FixedPriorityRTA, EDFDemand} {
			a := task.NewAssignment(4)
			ctx := an.NewContext(a, overhead.PaperModel())
			for _, tk := range set.Clone().SortedByUtilizationDesc() {
				for c := 0; c < 4; c++ {
					if ctx.TryPlace(tk, c) {
						ctx.Commit()
						break
					}
					ctx.Rollback()
				}
				ctx.Schedulable()
				ctx.Schedulable() // immediate repeat must hit the cache
			}
		}
	})
}

// TestContextStatsAccumulate sanity-checks the stats plumbing: the
// attached collector grows by what the context flushed.
func TestContextStatsAccumulate(t *testing.T) {
	coll := &Collector{}
	rng := rand.New(rand.NewSource(99))
	set := randomSet(rng, 8, 2.5)
	a := task.NewAssignment(4)
	ctx := FixedPriorityRTA.NewContext(a, overhead.PaperModel())
	ctx.SetCollector(coll)
	for _, tk := range set.SortedByUtilizationDesc() {
		for c := 0; c < 4; c++ {
			if ctx.TryPlace(tk, c) {
				ctx.Commit()
				break
			}
			ctx.Rollback()
		}
	}
	ctx.Schedulable()
	local := ctx.Stats()
	if local.Probes == 0 || local.FPSolves == 0 {
		t.Fatalf("context recorded no work: %+v", local)
	}
	ctx.Flush()
	if got := ctx.Stats(); got != (AdmissionStats{}) {
		t.Fatalf("Flush must zero local stats, got %+v", got)
	}
	if got := coll.Snapshot(); got != local {
		t.Fatalf("collector %+v != flushed local %+v", got, local)
	}
}

// TestEndGroupRefusesPendingProbe pins the probe invariant: no probe
// is pending outside one call, so closing a group commit over an
// unresolved probe panics, under both policies and whether or not the
// context publishes.
func TestEndGroupRefusesPendingProbe(t *testing.T) {
	for _, an := range []Analyzer{FixedPriorityRTA, EDFDemand} {
		for _, fork := range []bool{false, true} {
			ctx := an.NewContext(task.NewAssignment(2), overhead.PaperModel())
			if fork {
				ctx.Fork()
			}
			ctx.BeginGroup()
			ctx.TryPlace(&task.Task{ID: 1, WCET: timeq.Millisecond, Period: 10 * timeq.Millisecond, Priority: 1}, 0)
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%T fork=%v: EndGroup with a pending probe did not panic", an, fork)
					}
				}()
				ctx.EndGroup()
			}()
		}
	}
}
