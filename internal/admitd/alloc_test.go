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
// first-fit probe through one pinned prober.
func TestTryReadAllocFree(t *testing.T) {
	s := allocSession(t)
	defer s.close()
	req := api.AdmitRequest{Task: benchTask(1 << 40)}
	sessAssertZeroAllocs(t, "tryRead/first-fit", func() {
		if _, err := s.tryRead(req); err != nil {
			t.Fatal(err)
		}
	})
	core := 2
	reqCore := api.AdmitRequest{Task: benchTask(1<<40 + 1), Core: &core}
	sessAssertZeroAllocs(t, "tryRead/explicit-core", func() {
		if _, err := s.tryRead(reqCore); err != nil {
			t.Fatal(err)
		}
	})
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
