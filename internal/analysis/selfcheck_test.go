package analysis

import (
	"testing"

	"repro/internal/overhead"
	"repro/internal/task"
	"repro/internal/timeq"
)

func TestSelfCheckWrapperEngaged(t *testing.T) {
	withSelfCheck(t, func() {
		a := task.NewAssignment(2)
		ctx := FixedPriorityRTA.NewContext(a, overhead.Zero())
		if _, ok := ctx.(*checkedContext); !ok {
			t.Fatalf("SelfCheck did not wrap the context: %T", ctx)
		}
		tk := &task.Task{ID: 1, WCET: timeq.Millisecond, Period: 10 * timeq.Millisecond, Priority: 1}
		inner := ctx.(*checkedContext).Context.(*fpContext)
		if !ctx.TryPlace(tk, 0) {
			t.Fatal("trivial placement must fit")
		}
		ctx.Commit()
		// Sabotage the committed warm vector with an overshooting value;
		// warm starts never lower a converged fixed point below the
		// cold result, and the shadow would panic on any divergence.
		inner.cores[0].warm[0] = 9 * timeq.Millisecond
		tk2 := &task.Task{ID: 2, WCET: timeq.Millisecond, Period: 20 * timeq.Millisecond, Priority: 2}
		if !ctx.TryPlace(tk2, 0) {
			t.Fatal("second placement must fit")
		}
		ctx.Commit()
		if !ctx.Schedulable() {
			t.Fatal("assignment must stay schedulable")
		}
	})
}
