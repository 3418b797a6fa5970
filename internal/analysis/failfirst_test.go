package analysis

import (
	"math/rand"
	"testing"

	"repro/internal/overhead"
	"repro/internal/task"
	"repro/internal/timeq"
)

// The incremental evaluators test a core failure first: the failed
// veto, then the entities from the lowest priority up, returning at
// the first that misses (fpEvalCore). The stateless path walks the
// core top-down. These tests pin that the order is verdict-neutral on
// cores that are close enough to full for both verdicts to occur, and
// that the early exit keeps paying.

// heavyProbe draws a probe task the way the daemon's heavy traffic
// does: ns-grained period, 1–12 % of a core, a priority unrelated to
// the period.
func heavyProbe(rng *rand.Rand, id int64) *task.Task {
	period := 10*timeq.Millisecond + timeq.Time(rng.Int63n(int64(990*timeq.Millisecond)))
	wcet := timeq.Time(float64(period) * (0.01 + 0.11*rng.Float64()))
	return &task.Task{ID: task.ID(id), WCET: wcet, Period: period, Priority: 1 + rng.Intn(4000), WSS: 64 << 10}
}

// TestFailureFirstMatchesStateless drives first-fit admission of
// near-saturating task sets through a long-lived writer context and
// its snapshots, and through a fresh (cold) context per
// probe, with and without committed split chains, under the zero and
// the paper model. Every verdict must equal the stateless
// CoreSchedulable on the same assignment state.
func TestFailureFirstMatchesStateless(t *testing.T) {
	rng := rand.New(rand.NewSource(20260930))
	an := FixedPriorityRTA
	var accepted, rejected, vetoed int
	for round := 0; round < 24; round++ {
		m := overhead.Normalize(overhead.Zero())
		if round%2 == 1 {
			m = overhead.Normalize(overhead.PaperModel())
		}
		withChains := round%4 >= 2
		cores := 2 + rng.Intn(3)
		set := randomSet(rng, 6*cores, (0.8+0.2*rng.Float64())*float64(cores))
		// Constrain a third of the deadlines, some to within a kernel
		// segment of the budget, so that the entity that misses can sit
		// anywhere in the priority order — the top included — and not
		// only at the bottom, where implicit deadlines put it.
		for _, tk := range set.Tasks {
			switch rng.Intn(6) {
			case 0:
				tk.Deadline = tk.WCET + timeq.Time(rng.Int63n(int64(300*timeq.Microsecond)))
			case 1:
				tk.Deadline = tk.WCET + timeq.Time(rng.Int63n(int64(tk.WCET)))
			}
			if tk.Deadline > tk.Period {
				tk.Deadline = 0
			}
		}
		ctx := an.NewContext(task.NewAssignment(cores), m)
		ctx.Fork()

		// stateless answers for "a with tk placed whole on core c".
		placed := func(a *task.Assignment, tk *task.Task, c int) bool {
			a.Place(tk, c)
			ok := an.CoreSchedulable(a, c, m)
			a.Normal[c] = a.Normal[c][:len(a.Normal[c])-1]
			return ok
		}
		withSplit := func(a *task.Assignment, sp *task.Split, c int) bool {
			a.Splits = append(a.Splits, sp)
			ok := an.CoreSchedulable(a, c, m)
			a.Splits = a.Splits[:len(a.Splits)-1]
			return ok
		}
		note := func(ok bool) {
			if ok {
				accepted++
			} else {
				rejected++
			}
		}

		for i, tk := range set.SortedByUtilizationDesc() {
			if withChains && i%5 == 2 {
				// A split, probed on each of its hosts; some are kept
				// whatever the verdict, so later probes resolve chains
				// with entities that fail (the veto path).
				sp := randomSplit(rng, tk, cores, false)
				if sp == nil {
					continue
				}
				// Unboosted parts sit mid-order and take interference,
				// so on a full core they can miss.
				sp.NoBoost = rng.Intn(2) == 0
				keep := rng.Intn(2) == 0
				for pi, part := range sp.Parts {
					c := part.Core
					want := withSplit(ctx.Fork().CloneAssignment(), sp, c)
					if got := ctx.Fork().TrySplit(sp, c); got != want {
						t.Fatalf("round %d: snapshot TrySplit(%v, core %d) = %v, stateless = %v", round, tk, c, got, want)
					}
					cold := an.NewContext(ctx.Fork().CloneAssignment(), m)
					if got := cold.TrySplit(sp, c); got != want {
						t.Fatalf("round %d: cold TrySplit(%v, core %d) = %v, stateless = %v", round, tk, c, got, want)
					}
					got := ctx.TrySplit(sp, c)
					if got != want {
						t.Fatalf("round %d: warm TrySplit(%v, core %d) = %v, stateless = %v", round, tk, c, got, want)
					}
					if len(ctx.(*fpContext).sc.failed) > 0 {
						vetoed++
					}
					note(got)
					if keep && pi == len(sp.Parts)-1 {
						ctx.Commit()
					} else {
						ctx.Rollback()
					}
				}
				continue
			}
			for c := 0; c < cores; c++ {
				snap := ctx.Fork()
				want := placed(snap.CloneAssignment(), tk, c)
				if got := snap.TryPlace(tk, c); got != want {
					t.Fatalf("round %d: snapshot TryPlace(%v, core %d) = %v, stateless = %v", round, tk, c, got, want)
				}
				cold := an.NewContext(snap.CloneAssignment(), m)
				if got := cold.TryPlace(tk, c); got != want {
					t.Fatalf("round %d: cold TryPlace(%v, core %d) = %v, stateless = %v", round, tk, c, got, want)
				}
				got := ctx.TryPlace(tk, c)
				if got != want {
					t.Fatalf("round %d: warm TryPlace(%v, core %d) = %v, stateless = %v", round, tk, c, got, want)
				}
				note(got)
				if got {
					ctx.Commit()
					break
				}
				ctx.Rollback()
			}
			if i%4 == 3 {
				// Full tests in between resolve the committed jitters
				// and fill verdicts, as a state read does on the daemon.
				want := an.Schedulable(ctx.Assignment(), m)
				if got := ctx.Schedulable(); got != want {
					t.Fatalf("round %d: warm Schedulable = %v, stateless = %v", round, got, want)
				}
				if got := ctx.Fork().Schedulable(); got != want {
					t.Fatalf("round %d: snapshot Schedulable = %v, stateless = %v", round, got, want)
				}
			}
		}
	}
	t.Logf("%d accepted, %d rejected, %d probes resolved a failing chain entity", accepted, rejected, vetoed)
	if accepted < 200 || rejected < 200 || vetoed == 0 {
		t.Fatal("degenerate run: too few of one of them")
	}
}

// TestRejectedCoreTestSolves pins what failure-first buys on the shape
// it was built for: a heavy session (8 cores, 96 tasks at ΣU = 0.75·m,
// packed first-fit) probed first-fit with unique tasks, on the reader
// and on the writer, with the daemon's period-blind priorities and
// with rate-monotonic ones (the probe then lands mid-order). A
// rejected core test must stop within a few solves of the entity that
// misses; walking the core from the top it solved about every entity
// above that one (≈ k, a dozen here). An entity the screens refuse or
// pass — the new task first, on a chain-free core — runs no solve:
// screened entities run 0 solves.
func TestRejectedCoreTestSolves(t *testing.T) {
	const cores = 8
	rng := rand.New(rand.NewSource(1))
	m := overhead.Normalize(overhead.PaperModel())
	ctx := FixedPriorityRTA.NewContext(task.NewAssignment(cores), m)
	set := randomSet(rng, 12*cores, 0.75*cores)
	for _, tk := range set.Tasks {
		for c := 0; c < cores; c++ {
			if ctx.TryPlace(tk, c) {
				ctx.Commit()
				break
			}
			ctx.Rollback()
		}
	}
	for _, tc := range []struct {
		name       string
		reader, rm bool
	}{{"reader", true, false}, {"writer", false, false}, {"reader/rm", true, true}, {"writer/rm", false, true}} {
		var rejections, solves, entities int64
		for i := int64(0); i < 400; i++ {
			tk := heavyProbe(rng, 1<<20+i)
			if tc.rm {
				tk.Priority = 1
				for _, o := range set.Tasks {
					if o.Period <= tk.Period {
						tk.Priority++
					}
				}
			}
			for c := 0; c < cores; c++ {
				var ok bool
				var spent int64
				if tc.reader {
					before := ctx.ReadStats().FPSolves
					ok = ctx.Fork().TryPlace(tk, c)
					spent = ctx.ReadStats().FPSolves - before
				} else {
					before := ctx.Stats().FPSolves
					ok = ctx.TryPlace(tk, c)
					ctx.Rollback()
					spent = ctx.Stats().FPSolves - before
				}
				if ok {
					break
				}
				rejections++
				solves += spent
				entities += int64(len(ctx.Assignment().Normal[c])) + 1
			}
		}
		if rejections < 1000 {
			t.Fatalf("%s: only %d rejected core tests; the fixture is not heavy", tc.name, rejections)
		}
		t.Logf("%s: %d rejected core tests, %.2f solves each over cores of %.1f entities",
			tc.name, rejections, float64(solves)/float64(rejections), float64(entities)/float64(rejections))
		if solves > 3*rejections {
			t.Errorf("%s: %d solves over %d rejected core tests (%.2f each), want ≤ 3", tc.name,
				solves, rejections, float64(solves)/float64(rejections))
		}
	}
}
