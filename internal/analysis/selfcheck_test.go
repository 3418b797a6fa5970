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
		tk2 := &task.Task{ID: 2, WCET: timeq.Millisecond, Period: 20 * timeq.Millisecond, Priority: 2}
		if !ctx.TryPlace(tk2, 0) {
			t.Fatal("second placement must fit")
		}
		ctx.Commit()
		if !ctx.Schedulable() {
			t.Fatal("assignment must stay schedulable")
		}
		// Sabotage core 0's cached verdict: the shadow must catch the
		// context answering what the stateless analyzer does not.
		inner.verdicts[0].ok = false
		defer func() {
			if recover() == nil {
				t.Fatal("SelfCheck let a diverging Schedulable through")
			}
		}()
		ctx.Schedulable()
	})
}
