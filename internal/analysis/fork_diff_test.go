package analysis

import (
	"math/rand"
	"testing"

	"repro/internal/overhead"
	"repro/internal/task"
	"repro/internal/timeq"
)

// The fork differential suite: a snapshot forked from a context must
// answer every probe exactly as (a) the parent context would on the
// same committed state and (b) a cold stateless analyzer on a fresh
// copy of that state — across both policies and all overhead-model
// classes (zero, paper, scaled remote penalty, inverted anchors; the
// latter two exercise the non-monotone cold fallback).

// forkModels returns the four overhead-model classes the monotonicity
// gate distinguishes.
func forkModels() []*overhead.Model {
	inverted := overhead.PaperModel()
	inverted.Queues.LocalN64[overhead.ReadyAdd] = inverted.Queues.LocalN4[overhead.ReadyAdd] / 2
	return []*overhead.Model{
		overhead.Zero(),
		overhead.PaperModel(),
		overhead.PaperModel().WithRemotePenalty(8),
		inverted,
	}
}

// probeTask draws a fresh light task to probe with (never committed).
func probeTask(rng *rand.Rand, id int64) *task.Task {
	period := timeq.Time(10+rng.Intn(90)) * timeq.Millisecond
	wcet := period / timeq.Time(20+rng.Intn(60))
	if wcet < timeq.Microsecond {
		wcet = timeq.Microsecond
	}
	return &task.Task{
		ID: task.ID(id), WCET: wcet, Period: period,
		Priority: 10000 + int(id%100), WSS: 64 << 10,
	}
}

// checkFork compares every fork answer against the parent context and
// the cold stateless analyzer on a clone of the snapshot state.
func checkFork(t *testing.T, rng *rand.Rand, ctx Context, m *overhead.Model, probeID *int64) {
	t.Helper()
	an := ctx.Analyzer()
	snap := ctx.Fork()
	cores := snap.NumCores()

	// The fork must be the committed state: its clone and the parent
	// assignment must agree (no probe is pending here).
	clone := snap.CloneAssignment()
	if got, want := clone.String(), ctx.Assignment().String(); got != want {
		t.Fatalf("fork assignment view diverged:\nfork:   %s\nparent: %s", got, want)
	}

	for trial := 0; trial < 3; trial++ {
		*probeID++
		tk := probeTask(rng, *probeID)
		c := rng.Intn(cores)

		snapGot := snap.TryPlace(tk, c)
		if again := snap.TryPlace(tk, c); again != snapGot {
			t.Fatalf("repeated probe diverged: %v then %v", snapGot, again)
		}
		ctxGot := ctx.TryPlace(tk, c)
		ctx.Rollback()
		stateless := func() bool {
			a := snap.CloneAssignment()
			a.Place(tk, c)
			return an.CoreSchedulable(a, c, m)
		}()
		if snapGot != ctxGot || snapGot != stateless {
			t.Fatalf("TryPlace(%v, core %d): fork=%v parent=%v stateless=%v (policy %v)",
				tk, c, snapGot, ctxGot, stateless, an.Policy())
		}

		if sp := randomSplit(rng, tk, cores, an.Policy() == task.EDF); sp != nil {
			pc := sp.Parts[0].Core
			snapSp := snap.TrySplit(sp, pc)
			ctxSp := ctx.TrySplit(sp, pc)
			ctx.Rollback()
			statelessSp := func() bool {
				a := snap.CloneAssignment()
				a.Splits = append(a.Splits, sp)
				return an.CoreSchedulable(a, pc, m)
			}()
			if snapSp != ctxSp || snapSp != statelessSp {
				t.Fatalf("TrySplit(%v, core %d): fork=%v parent=%v stateless=%v (policy %v)",
					sp.Task, pc, snapSp, ctxSp, statelessSp, an.Policy())
			}
		}
	}

	snapFull := snap.Schedulable()
	ctxFull := ctx.Schedulable()
	statelessFull := an.Schedulable(snap.CloneAssignment(), m)
	if snapFull != ctxFull || snapFull != statelessFull {
		t.Fatalf("Schedulable: fork=%v parent=%v stateless=%v (policy %v)",
			snapFull, ctxFull, statelessFull, an.Policy())
	}
}

// TestForkMatchesParentAndStateless drives random committed
// histories — placements, splits, removals — forking after every
// committed mutation and differentially checking each fork.
func TestForkMatchesParentAndStateless(t *testing.T) {
	rng := rand.New(rand.NewSource(20260730))
	var probeID int64 = 1 << 32
	for _, an := range []Analyzer{FixedPriorityRTA, EDFDemand} {
		for mi, m := range forkModels() {
			m := overhead.Normalize(m)
			cores := 2 + rng.Intn(3)
			set := randomSet(rng, 6+rng.Intn(6), 0.6*float64(cores))
			a := task.NewAssignment(cores)
			ctx := an.NewContext(a, m)
			var admitted []task.ID
			for _, tk := range set.SortedByUtilizationDesc() {
				switch rng.Intn(4) {
				case 0: // probe + commit
					c := rng.Intn(cores)
					if ctx.TryPlace(tk, c) {
						ctx.Commit()
						admitted = append(admitted, tk.ID)
					} else {
						ctx.Rollback()
					}
				case 1: // split install
					if sp := randomSplit(rng, tk, cores, an.Policy() == task.EDF); sp != nil {
						ctx.AddSplit(sp)
						admitted = append(admitted, tk.ID)
					} else {
						ctx.Place(tk, rng.Intn(cores))
						admitted = append(admitted, tk.ID)
					}
				default: // unprobed placement
					ctx.Place(tk, rng.Intn(cores))
					admitted = append(admitted, tk.ID)
				}
				if len(admitted) > 0 && rng.Intn(5) == 0 {
					i := rng.Intn(len(admitted))
					if !ctx.Remove(admitted[i]) {
						t.Fatalf("Remove(%d) reported absent", admitted[i])
					}
					admitted = append(admitted[:i], admitted[i+1:]...)
				}
				checkFork(t, rng, ctx, m, &probeID)
			}
			// Identical Seq means the identical snapshot object.
			if s1, s2 := ctx.Fork(), ctx.Fork(); s1.Seq() != s2.Seq() {
				t.Fatalf("model %d: forks between commits diverged: %d vs %d", mi, s1.Seq(), s2.Seq())
			}
			ctx.Flush()
		}
	}
}

// TestForkReadStats checks that snapshot probes account their work on
// the context's read-side counters, kept apart from the writer's, and
// that Flush drains both.
func TestForkReadStats(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := task.NewAssignment(2)
	ctx := FixedPriorityRTA.NewContext(a, overhead.PaperModel())
	for i, tk := range randomSet(rng, 6, 1.0).Tasks {
		ctx.Place(tk, i%2)
	}
	writer := ctx.Stats()
	snap := ctx.Fork()
	for i := 0; i < 5; i++ {
		snap.TryPlace(probeTask(rng, int64(1e9+i)), i%2)
	}
	rs := ctx.ReadStats()
	if rs.Probes != 5 || rs.CoreTests == 0 {
		t.Fatalf("read stats missing fork probes: %+v", rs)
	}
	if got := ctx.Stats(); got != writer {
		t.Fatalf("fork probes leaked into writer stats: %+v vs %+v", got, writer)
	}
	var coll Collector
	ctx.SetCollector(&coll)
	ctx.Flush()
	if got := ctx.ReadStats(); got != (AdmissionStats{}) {
		t.Fatalf("Flush must drain read stats, got %+v", got)
	}
	if folded := coll.Snapshot(); folded.Probes < rs.Probes+writer.Probes {
		t.Fatalf("Flush dropped counters: folded %+v, read %+v, writer %+v", folded, rs, writer)
	}
}
