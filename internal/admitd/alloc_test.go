package admitd

import (
	"context"
	"testing"

	"repro/api"
	"repro/internal/overhead"
	"repro/internal/task"
)

// Allocation-regression guards for the service read path, the admitd
// half of the analysis-layer guards in internal/analysis/alloc_test.go:
// a non-holding try, a cache-hit state render, and a try-only batch
// must not allocate in steady state. These are the endpoints read
// traffic hammers; a single alloc per request shows up directly as GC
// time.

// benchTask is a deterministic light task (≤1.5% core utilization)
// drawn from a finite catalog of classes, like real admission traffic.
func benchTask(id int64) api.Task {
	period := int64(20+id%180) * 1_000_000
	wcet := period / 80
	return api.Task{ID: id, WCETNs: wcet, PeriodNs: period, Priority: int(100 + id%4000), WSS: 64 << 10}
}

// allocSession seeds a 4-core fixed-priority session with a dozen
// resident tasks: six on core 3, which pins the global queue bound,
// and two on each other core.
func allocSession(tb testing.TB) *Session {
	tb.Helper()
	s := newSession("alloc", task.FixedPriority, overhead.PaperModel(), task.NewAssignment(4), nil, nil)
	id := int64(1)
	admit := func(core int) {
		req := api.AdmitRequest{Task: benchTask(id), Core: &core}
		var v api.Verdict
		var err error
		s.call(func() { v, err = s.admitLocked(req) }) //nolint:errcheck // checked below
		if err != nil || !v.Admitted {
			tb.Fatalf("seed %d on core %d: %+v %v", id, core, v, err)
		}
		id++
	}
	for i := 0; i < 6; i++ {
		admit(3)
	}
	for c := 0; c < 3; c++ {
		admit(c)
		admit(c)
	}
	return s
}

func sessAssertZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("alloc guards are meaningless under -race: sync.Pool drops Puts to randomize reuse")
	}
	for i := 0; i < 5; i++ {
		f() // warm pools, caches and verdict memos
	}
	if n := testing.AllocsPerRun(100, f); n != 0 {
		t.Errorf("%s: %.1f allocs/op, want 0", name, n)
	}
}

// TestTryReadAllocFree guards the non-holding admission query: wire
// conversion into pooled scratch, the COW duplicate check, and a
// first-fit probe through one pinned prober; on an explicit core, also
// a probe the new task's own screen refuses and ones the per-entity
// screens pass, refuse and start.
func TestTryReadAllocFree(t *testing.T) {
	s := allocSession(t)
	defer s.close()
	req := api.AdmitRequest{Task: benchTask(1 << 40)}
	sessAssertZeroAllocs(t, "tryRead/first-fit", func() {
		if _, err := s.tryRead(req.Task, 0, false); err != nil {
			t.Fatal(err)
		}
	})
	const core = 2
	reqCore := api.AdmitRequest{Task: benchTask(1<<40 + 1)}
	sessAssertZeroAllocs(t, "tryRead/explicit-core", func() {
		if _, err := s.tryRead(reqCore.Task, core, true); err != nil {
			t.Fatal(err)
		}
	})
	// Below every resident priority the new task's own screen, which a
	// chain-free probe meets first, refuses a heavy task with no fixed
	// point solved. Every entity of a probed core then
	// meets its own screen: a light task leaves nothing to solve, a heavy
	// one at the top of the order is refused by the screens of the
	// residents below it, and one whose bounds straddle its deadline is
	// solved once, started from the screen's bound.
	for _, tc := range []struct {
		name   string
		wcet   int64
		prio   int
		admit  bool
		solves int64
	}{
		{"own-screen-refused", 99_000_000, 9000, false, 0},
		{"screen-passed", 1_000_000, 9000, true, 0},
		{"screen-refused", 99_000_000, 1, false, 0},
		{"screen-started", 96_400_000, 9000, true, 1},
	} {
		wt := api.Task{ID: 1<<40 + 2, WCETNs: tc.wcet, PeriodNs: 100_000_000, Priority: tc.prio, WSS: 64 << 10}
		before := s.actx.ReadStats()
		v, err := s.tryRead(wt, core, true)
		w := s.actx.ReadStats().Sub(before)
		if err != nil || v.Admitted != tc.admit || w.CoreTests != 1 {
			t.Fatalf("%s: verdict %+v, %v, %d core tests", tc.name, v, err, w.CoreTests)
		}
		if w.FPSolves != tc.solves || w.WarmStarts != w.FPSolves {
			t.Fatalf("%s: %d solves, %d warm", tc.name, w.FPSolves, w.WarmStarts)
		}
		sessAssertZeroAllocs(t, "tryRead/"+tc.name, func() {
			if _, err := s.tryRead(wt, core, true); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestStateReadAllocFree guards the served state read: between
// commits, repeat reads hit the rendered-body memo and return its
// encoded bytes — no render, no encoding, no allocation.
func TestStateReadAllocFree(t *testing.T) {
	s := allocSession(t)
	defer s.close()
	sessAssertZeroAllocs(t, "stateReadBytes/cache-hit", func() {
		if _, err := s.stateReadBytes(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestStatsReadAllocFree guards the stats read: three atomic loads
// and struct arithmetic.
func TestStatsReadAllocFree(t *testing.T) {
	s := allocSession(t)
	defer s.close()
	sessAssertZeroAllocs(t, "statsRead", func() {
		if _, err := s.statsRead(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestBatchTryReadAllocFree guards the try-only batch: K wire tasks
// convert into the pooled slab and probe first-fit, in order, against
// one snapshot through one prober.
func TestBatchTryReadAllocFree(t *testing.T) {
	s := allocSession(t)
	defer s.close()
	tasks := make([]api.Task, 8)
	for i := range tasks {
		tasks[i] = benchTask(1<<41 + int64(i))
	}
	req := api.BatchRequest{Tasks: tasks, TryOnly: true}
	ctx := context.Background()
	sessAssertZeroAllocs(t, "batchTryRead", func() {
		sum, err := s.batchTryRead(ctx, req, nil)
		if err != nil {
			t.Fatal(err)
		}
		if sum.Admitted+sum.Rejected != len(tasks) {
			t.Fatalf("batch summary %+v, want %d verdicts", sum, len(tasks))
		}
	})
}
