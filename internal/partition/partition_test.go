package partition

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/overhead"
	"repro/internal/task"
	"repro/internal/taskgen"
	"repro/internal/timeq"
)

func ms(x int64) timeq.Time { return timeq.Time(x) * timeq.Millisecond }

func newSet(t *testing.T, specs ...[2]int64) *task.Set {
	t.Helper()
	tasks := make([]*task.Task, len(specs))
	for i, sp := range specs {
		tasks[i] = &task.Task{ID: task.ID(i + 1), WCET: ms(sp[0]), Period: ms(sp[1])}
	}
	s := task.NewSet(tasks...)
	s.AssignRM()
	return s
}

func TestHeuristicNames(t *testing.T) {
	if FFD.Name() != "FFD" || WFD.Name() != "WFD" || BFD.Name() != "BFD" || FF.Name() != "FF" {
		t.Error("canonical names wrong")
	}
	anon := &Heuristic{Fit: BestFit, Order: PriorityOrder}
	if anon.Name() == "" {
		t.Error("anonymous heuristic has empty name")
	}
}

func TestValidateInputErrors(t *testing.T) {
	s := newSet(t, [2]int64{1, 10})
	if _, err := FFD.Partition(s, 0, nil); err == nil {
		t.Error("0 cores accepted")
	}
	empty := &task.Set{}
	if _, err := FFD.Partition(empty, 2, nil); err == nil {
		t.Error("empty set accepted")
	}
	noPrio := task.NewSet(&task.Task{ID: 1, WCET: ms(1), Period: ms(10)})
	if _, err := FFD.Partition(noPrio, 2, nil); err == nil {
		t.Error("unprioritized set accepted")
	}
}

func TestFFDPartitionsEasySet(t *testing.T) {
	// Four tasks, U=0.25 each: trivially partitionable on 2 cores.
	s := newSet(t, [2]int64{5, 20}, [2]int64{5, 20}, [2]int64{5, 20}, [2]int64{5, 20})
	a, err := FFD.Partition(s, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.NumSplit() != 0 {
		t.Fatal("FFD must not split")
	}
	if !analysis.FixedPriorityRTA.Schedulable(a, overhead.Zero()) {
		t.Fatal("returned assignment not schedulable")
	}
}

func TestWFDSpreadsLoad(t *testing.T) {
	// Two big tasks and two small ones on 2 cores: WFD puts the big
	// ones on different cores.
	s := newSet(t, [2]int64{8, 20}, [2]int64{8, 20}, [2]int64{1, 20}, [2]int64{1, 20})
	a, err := WFD.Partition(s, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	u0, u1 := a.CoreUtilization(0), a.CoreUtilization(1)
	if u0 != u1 {
		t.Fatalf("WFD should balance: %v vs %v", u0, u1)
	}
}

func TestFFDPacksTight(t *testing.T) {
	// FFD concentrates on the first core while it fits.
	s := newSet(t, [2]int64{4, 20}, [2]int64{4, 20})
	a, err := FFD.Partition(s, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Normal[0]) != 2 || len(a.Normal[1]) != 0 {
		t.Fatalf("FFD placement: %d/%d", len(a.Normal[0]), len(a.Normal[1]))
	}
}

// The classic partitioning pathology: m+1 tasks of utilization just
// over 1/2 cannot be partitioned on m cores, but semi-partitioning
// schedules them by splitting one task.
func TestSplittingBeatsPartitioningPathology(t *testing.T) {
	// 3 tasks, U ≈ 0.6 each, 2 cores. ΣU = 1.8 < 2.
	s := newSet(t, [2]int64{12, 20}, [2]int64{12, 20}, [2]int64{12, 20})
	for _, h := range []*Heuristic{FFD, WFD, BFD} {
		if _, err := h.Partition(s, 2, nil); err != ErrUnschedulable {
			t.Fatalf("%s should fail on the pathology, got %v", h.Name(), err)
		}
	}
	a, err := SPA2.Partition(s, 2, nil)
	if err != nil {
		t.Fatalf("SPA2 failed: %v", err)
	}
	if a.NumSplit() == 0 {
		t.Fatal("SPA2 should have split a task")
	}
	if !analysis.FixedPriorityRTA.Schedulable(a, overhead.Zero()) {
		t.Fatal("SPA2 assignment not schedulable")
	}
}

func TestSPANames(t *testing.T) {
	if SPA1.Name() != "SPA1" || SPA2.Name() != "SPA2" {
		t.Error("SPA names")
	}
	b := &SPA{Variant: 2, FillByBound: true}
	if b.Name() != "SPA2-bound" {
		t.Errorf("bound name %q", b.Name())
	}
}

func TestSPA1HandlesWholeFits(t *testing.T) {
	// Low utilization: nothing should be split.
	s := newSet(t, [2]int64{2, 20}, [2]int64{2, 20}, [2]int64{2, 20})
	a, err := SPA1.Partition(s, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumSplit() != 0 {
		t.Fatal("needless split")
	}
}

func TestSPA2PreassignsHeavy(t *testing.T) {
	// One heavy task (U=0.9) among light ones on 2 cores.
	s := newSet(t, [2]int64{18, 20}, [2]int64{4, 20}, [2]int64{4, 20}, [2]int64{4, 20})
	a, err := SPA2.Partition(s, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The heavy task must not be split.
	for _, sp := range a.Splits {
		if sp.Task.Utilization() > 0.85 {
			t.Fatal("heavy task was split")
		}
	}
	if !analysis.FixedPriorityRTA.Schedulable(a, overhead.Zero()) {
		t.Fatal("not schedulable")
	}
}

func TestSPA2TooManyHeavy(t *testing.T) {
	// Three heavy tasks on 2 cores: impossible.
	s := newSet(t, [2]int64{18, 20}, [2]int64{18, 20}, [2]int64{18, 20})
	if _, err := SPA2.Partition(s, 2, nil); err != ErrUnschedulable {
		t.Fatalf("got %v", err)
	}
}

func TestSPABoundFill(t *testing.T) {
	// Three tasks of U=0.5 on 2 cores: ΣU=1.5 is under the per-core
	// Liu & Layland thresholds, and the middle task gets split when
	// core 0 reaches Θ(2).
	alg := &SPA{Variant: 2, FillByBound: true}
	s := newSet(t, [2]int64{10, 20}, [2]int64{10, 20}, [2]int64{10, 20})
	a, err := alg.Partition(s, 2, overhead.Zero())
	if err != nil {
		t.Fatalf("bound-fill SPA2 failed: %v", err)
	}
	if a.NumSplit() != 1 {
		t.Fatalf("bound fill should split exactly one task, got %d", a.NumSplit())
	}
	if !analysis.FixedPriorityRTA.Schedulable(a, overhead.Zero()) {
		t.Fatal("not schedulable")
	}
}

func TestPartitionWithPaperOverheads(t *testing.T) {
	// The U=0.6 pathology is *exactly* at capacity, so it cannot
	// absorb any overhead; with a little slack (U=0.575 each,
	// ΣU=1.725 on 2 cores) the millisecond-scale periods absorb the
	// µs-scale overheads and SPA2 still admits by splitting.
	tasks := []*task.Task{
		{ID: 1, WCET: 11500 * timeq.Microsecond, Period: ms(20)},
		{ID: 2, WCET: 11500 * timeq.Microsecond, Period: ms(20)},
		{ID: 3, WCET: 11500 * timeq.Microsecond, Period: ms(20)},
	}
	s := task.NewSet(tasks...)
	s.AssignRM()
	m := overhead.PaperModel()
	a, err := SPA2.Partition(s, 2, m)
	if err != nil {
		t.Fatalf("SPA2 with overheads failed: %v", err)
	}
	if a.NumSplit() == 0 {
		t.Fatal("expected a split")
	}
	if !analysis.FixedPriorityRTA.Schedulable(a, m) {
		t.Fatal("not schedulable under the admission model")
	}
	// The same set cannot be FFD-partitioned (two U=0.575 tasks do
	// not share a core).
	if _, err := FFD.Partition(s, 2, m); err != ErrUnschedulable {
		t.Fatalf("FFD: %v", err)
	}
}

func TestOverheadReducesAdmission(t *testing.T) {
	// With µs-scale periods, the paper's µs-scale overheads dominate:
	// a set schedulable without overheads must be rejected with them.
	// Per-job overhead under the paper model is ≈ 23µs; a 10µs job in
	// a 32µs period fits alone without overheads but not with them.
	tasks := []*task.Task{
		{ID: 1, WCET: 10 * timeq.Microsecond, Period: 32 * timeq.Microsecond},
		{ID: 2, WCET: 10 * timeq.Microsecond, Period: 32 * timeq.Microsecond},
	}
	s := task.NewSet(tasks...)
	s.AssignRM()
	if _, err := FFD.Partition(s, 2, nil); err != nil {
		t.Fatalf("zero overhead should admit: %v", err)
	}
	if _, err := FFD.Partition(s, 2, overhead.PaperModel()); err == nil {
		t.Fatal("µs-period set admitted despite overheads larger than periods")
	}
}

// Cross-algorithm property on random sets: every produced assignment
// is valid, schedulable under its own model, and splits only for SPA.
func TestRandomSetsAllAlgorithms(t *testing.T) {
	algs := []Algorithm{FFD, WFD, BFD, FF, SPA1, SPA2, TS}
	models := map[string]*overhead.Model{"zero": overhead.Zero(), "paper": overhead.PaperModel()}
	g := taskgen.New(taskgen.Config{N: 12, TotalUtilization: 2.6, Seed: 1234})
	sets := g.Batch(10)
	for mi, model := range models {
		for _, alg := range algs {
			admitted := 0
			for si, s := range sets {
				a, err := alg.Partition(s.Clone(), 4, model)
				if err == ErrUnschedulable {
					continue
				}
				if err != nil {
					t.Fatalf("%s/%s set %d: %v", alg.Name(), mi, si, err)
				}
				admitted++
				if err := a.Validate(); err != nil {
					t.Fatalf("%s/%s set %d: invalid: %v", alg.Name(), mi, si, err)
				}
				if !analysis.FixedPriorityRTA.Schedulable(a, model) {
					t.Fatalf("%s/%s set %d: unschedulable assignment returned", alg.Name(), mi, si)
				}
				if _, isH := alg.(*Heuristic); isH && a.NumSplit() > 0 {
					t.Fatalf("%s split a task", alg.Name())
				}
				for _, sp := range a.Splits {
					if len(sp.Parts) < 2 {
						t.Fatalf("%s produced a 1-part split", alg.Name())
					}
				}
				// All tasks present exactly once.
				if got := len(a.AllTasks()); got != s.Len() {
					t.Fatalf("%s/%s set %d: %d tasks assigned, want %d", alg.Name(), mi, si, got, s.Len())
				}
			}
			if admitted == 0 {
				t.Errorf("%s/%s admitted nothing at U=2.6 on 4 cores", alg.Name(), mi)
			}
		}
	}
}

// FP-TS must dominate FFD/WFD in acceptance on utilization-heavy
// sets — the paper's headline. FP-TS accepts every FFD-schedulable
// set by construction, so domination must be exact, and at ΣU=3.6 on
// 4 cores it must also win strictly.
func TestFPTSDominatesPartitioned(t *testing.T) {
	g := taskgen.New(taskgen.Config{N: 8, TotalUtilization: 3.6, Seed: 77})
	sets := g.Batch(40)
	count := func(alg Algorithm) int {
		n := 0
		for _, s := range sets {
			if _, err := alg.Partition(s.Clone(), 4, nil); err == nil {
				n++
			}
		}
		return n
	}
	ts := count(TS)
	ffd := count(FFD)
	wfd := count(WFD)
	if ts <= ffd || ts <= wfd {
		t.Fatalf("FP-TS=%d should strictly dominate FFD=%d and WFD=%d here", ts, ffd, wfd)
	}
}

// Each splitter's Unsplit twin is its whole-task prefix: on every set
// of the default 4-core grid (ΣU/m 0.600…0.975), under the zero, paper
// and 10× paper models, the twin accepts iff the splitter accepts with
// no split, and then with the identical per-core lists. The sweep
// derives the twins' cells from this. Unsplit names no twin for any
// other algorithm.
func TestUnsplitTwinMatchesSplitter(t *testing.T) {
	sets := 30
	if testing.Short() {
		sets = 8
	}
	models := []struct {
		name  string
		model *overhead.Model
	}{
		{"zero", overhead.Zero()},
		{"paper", overhead.PaperModel()},
		{"paper10x", overhead.PaperModel().Scale(10)},
	}
	accepted := 0
	for _, md := range models {
		for pm := 600; pm <= 975; pm += 25 {
			g := taskgen.New(taskgen.Config{N: 16, TotalUtilization: 4 * float64(pm) / 1000, Seed: int64(pm)})
			for si, s := range g.Batch(sets) {
				for _, sp := range []Algorithm{TS, TSNoBoost, WM} {
					tw := Unsplit(sp)
					a, err := sp.Partition(s, 4, md.model)
					b, terr := tw.Partition(s, 4, md.model)
					derived := err == nil && a.NumSplit() == 0
					if derived != (terr == nil) {
						t.Fatalf("%s pm=%d set %d: %s accepted=%v splits>0=%v, %s accepted=%v",
							md.name, pm, si, sp.Name(), err == nil, err == nil && !derived, tw.Name(), terr == nil)
					}
					if !derived {
						continue
					}
					accepted++
					if a.Policy != b.Policy || len(b.Splits) != 0 {
						t.Fatalf("%s pm=%d set %d: %s and %s stamp %v/%v", md.name, pm, si, sp.Name(), tw.Name(), a.Policy, b.Policy)
					}
					for c := range a.Normal {
						if !slices.Equal(a.Normal[c], b.Normal[c]) {
							t.Fatalf("%s pm=%d set %d core %d: %s places %v, %s places %v",
								md.name, pm, si, c, sp.Name(), a.Normal[c], tw.Name(), b.Normal[c])
						}
					}
				}
			}
		}
	}
	if accepted == 0 {
		t.Fatal("no set accepted without a split: the equivalence was never exercised")
	}

	twins := map[string]Algorithm{"fpts": FFD, "edfwm": EDFFFD}
	for _, name := range []string{"fpts", "ffd", "wfd", "bfd", "spa1", "spa2", "edfwm", "edfffd", "edfwfd"} {
		alg, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := Unsplit(alg); got != twins[name] {
			t.Errorf("Unsplit(%s) = %v, want %v", name, got, twins[name])
		}
	}
}

func TestFPTSSplitsOnlyWhenNeeded(t *testing.T) {
	// Low utilization: identical to FFD, no splits.
	s := newSet(t, [2]int64{2, 20}, [2]int64{2, 20}, [2]int64{2, 20})
	a, err := TS.Partition(s, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumSplit() != 0 {
		t.Fatal("needless split")
	}
	// The pathology: must split.
	s2 := newSet(t, [2]int64{12, 20}, [2]int64{12, 20}, [2]int64{12, 20})
	a2, err := TS.Partition(s2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a2.NumSplit() != 1 {
		t.Fatalf("want exactly 1 split, got %d", a2.NumSplit())
	}
	if !analysis.FixedPriorityRTA.Schedulable(a2, overhead.Zero()) {
		t.Fatal("not schedulable")
	}
}

func TestFPTSName(t *testing.T) {
	if TS.Name() != "FP-TS" {
		t.Errorf("name %q", TS.Name())
	}
}

// The boost ablation: both priority designs for split parts must be
// sound and dominate plain FFD (each is FFD plus a splitting
// fallback); which one accepts more is workload-dependent — boosted
// parts migrate predictably but steal from every local task, plain-RM
// parts interfere less but push jitter downstream — so the ordering
// is reported by the ablation bench, not asserted here.
func TestBoostAblation(t *testing.T) {
	g := taskgen.New(taskgen.Config{N: 8, TotalUtilization: 3.7, Seed: 99})
	sets := g.Batch(40)
	boosted, plain, ffd := 0, 0, 0
	for _, s := range sets {
		if _, err := FFD.Partition(s.Clone(), 4, nil); err == nil {
			ffd++
		}
		if _, err := TS.Partition(s.Clone(), 4, nil); err == nil {
			boosted++
		}
		if a, err := TSNoBoost.Partition(s.Clone(), 4, nil); err == nil {
			plain++
			if !analysis.FixedPriorityRTA.Schedulable(a, overhead.Zero()) {
				t.Fatal("no-boost assignment unschedulable")
			}
			for _, sp := range a.Splits {
				if !sp.NoBoost {
					t.Fatal("split missing NoBoost flag")
				}
			}
		}
	}
	if boosted < ffd || plain < ffd {
		t.Fatalf("splitting variants (boost=%d plain=%d) must dominate FFD (%d)", boosted, plain, ffd)
	}
	if TSNoBoost.Name() != "FP-TS-noboost" {
		t.Errorf("name %q", TSNoBoost.Name())
	}
}

// ΣU = 3.9 on 2 cores is infeasible for every algorithm, EDF and
// splitting included: each refuses it with ErrUnschedulable.
func TestScheduleUnschedulable(t *testing.T) {
	set := taskgen.New(taskgen.Config{N: 8, TotalUtilization: 3.9, Seed: 1}).Next()
	for _, alg := range []Algorithm{FFD, WFD, BFD, FF, SPA1, SPA2, TS, EDFFFD, EDFWFD, WM} {
		if _, err := alg.Partition(set.Clone(), 2, nil); !errors.Is(err, ErrUnschedulable) {
			t.Errorf("%s: got %v, want ErrUnschedulable", alg.Name(), err)
		}
	}
}

// Every exported algorithm carries the name the sweep tables and the
// CLI's -algs flag use.
func TestAlgorithmsExported(t *testing.T) {
	names := map[string]Algorithm{
		"FP-TS": TS, "FFD": FFD, "WFD": WFD, "BFD": BFD, "SPA1": SPA1, "SPA2": SPA2,
		"EDF-WM": WM, "EDF-FFD": EDFFFD, "EDF-WFD": EDFWFD,
	}
	for want, alg := range names {
		if alg.Name() != want {
			t.Errorf("algorithm %q has name %q", want, alg.Name())
		}
	}
}
