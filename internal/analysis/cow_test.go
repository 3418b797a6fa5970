package analysis

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/overhead"
	"repro/internal/task"
	"repro/internal/timeq"
)

// TestForkedRecordsAreCopyOnWrite pins the copy-on-write mark
// (coreRec.shared) deterministically: a snapshot's records share their
// entity slices and tables with the writer, so every writer mutation
// after the fork — a commit into the middle of a core, a removal, a
// full test that moves chain jitters, a chain committed onto every core
// — must leave the snapshot's slices exactly as published, and the
// snapshot must keep answering as the stateless analyzer does on its
// own assignment. The fixture gives every published record spare
// capacity, so a writer that skipped the copy would write into the
// very arrays the snapshot reads.
func TestForkedRecordsAreCopyOnWrite(t *testing.T) {
	const cores = 4
	m := overhead.PaperModel()
	light := func(id int64, prio int) *task.Task {
		period := timeq.Time(20+5*(id%7)) * timeq.Millisecond
		return &task.Task{ID: task.ID(id), WCET: period / 40, Period: period, Priority: prio, WSS: 64 << 10}
	}
	split := func(pol task.Policy, id int64, parts ...int) *task.Split {
		sp := &task.Split{Task: light(id, int(id)), Parts: make([]task.Part, len(parts))}
		for i, c := range parts {
			sp.Parts[i] = task.Part{Core: c, Budget: sp.Task.WCET / timeq.Time(len(parts))}
			if pol == task.EDF {
				sp.Windows = append(sp.Windows, sp.Task.Period/timeq.Time(len(parts)))
			}
		}
		return sp
	}
	for _, pol := range []task.Policy{task.FixedPriority, task.EDF} {
		t.Run(pol.String(), func(t *testing.T) {
			an := ForPolicy(pol)
			a := task.NewAssignment(cores)
			a.Policy = pol
			ctx := an.NewContext(a, m)
			for c := 0; c < cores; c++ {
				for k := 1; k <= 3; k++ {
					ctx.Place(light(int64(10*k+c), 100*k+c), c)
				}
			}
			// A chain from core 2 into core 1 (EDF: a window split), so
			// the snapshot holds split parts and, under fixed priorities,
			// chain jitters.
			ctx.AddSplit(split(pol, 90, 2, 1))
			ctx.Schedulable()
			ctx.Fork()
			// One commit per core takes every record private with spare
			// capacity; the unprobed Place leaves core 3 a verdict for the
			// next full test to compute.
			for c := 0; c < cores; c++ {
				ctx.TryPlace(light(int64(40+c), 400+c), c)
				ctx.Commit()
			}
			ctx.Place(light(53, 250), 3)
			snap := ctx.Fork()
			var st *snapState
			switch s := snap.(type) {
			case *fpSnapshot:
				st = (*snapState)(s)
			case *edfSnapshot:
				st = (*snapState)(s)
			}
			type published struct {
				ents []*Entity
				vals []Entity
			}
			want := make([]published, cores)
			for c := range want {
				r := &st.cores[c]
				want[c].ents = slices.Clone(r.ents)
				for _, e := range r.ents {
					want[c].vals = append(want[c].vals, *e)
				}
			}

			// Every commit republishes, so each kind of write gets a core
			// no earlier write has copied: the full test evaluates core
			// 3, a commit lands in the middle of core 0, the removal
			// shifts core 2 (and, under fixed priorities, resets every
			// chain jitter, core 1's among them), a commit lands ahead of
			// core 1's split part, and the last chain lands on every
			// core.
			ctx.Schedulable()
			ctx.TryPlace(light(60, 150), 0)
			ctx.Commit()
			if !ctx.Remove(22) {
				t.Fatal("fixture task 22 not found")
			}
			ctx.TryPlace(light(61, 50), 1)
			ctx.Commit()
			ctx.Schedulable()
			ctx.TrySplit(split(pol, 91, 0, 1, 2, 3), 0)
			ctx.Commit()
			ctx.Schedulable()

			for c := range want {
				r := &st.cores[c]
				if !slices.Equal(r.ents, want[c].ents) {
					t.Fatalf("core %d: published entity slice changed under the snapshot", c)
				}
				for i, e := range r.ents {
					if *e != want[c].vals[i] {
						t.Fatalf("core %d entity %d: published entity mutated: %+v, was %+v", c, i, *e, want[c].vals[i])
					}
				}
			}

			clone := snap.CloneAssignment()
			if got, want := snap.Schedulable(), an.Schedulable(clone, m); got != want {
				t.Fatalf("snapshot Schedulable = %v, stateless %v", got, want)
			}
			rng := rand.New(rand.NewSource(3))
			for i := int64(0); i < 16; i++ {
				tk := probeTask(rng, 1000+i)
				c := int(i) % cores
				a := snap.CloneAssignment()
				a.Place(tk, c)
				if got, want := snap.TryPlace(tk, c), an.CoreSchedulable(a, c, m); got != want {
					t.Fatalf("snapshot TryPlace(%v, core %d) = %v, stateless %v", tk, c, got, want)
				}
			}
		})
	}
}
