package analysis

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/overhead"
	"repro/internal/task"
	"repro/internal/timeq"
)

// viewProbe evaluates a whole-task probe of e onto core c at queue
// bound n the way a chain state does — fillView, then fpEvalCore — on
// a scratch of its own, and returns the verdict.
func viewProbe(p fpProbe, e *Entity, c, n int) bool {
	p, v := viewOf(p, e, c, n)
	return fpEvalCore(&p, v, nil)
}

// viewOf fills, on a scratch of its own, the view a chain state's probe
// of whole task e onto core c at queue bound n would test, and returns
// the engine bound to that scratch with it.
func viewOf(p fpProbe, e *Entity, c, n int) (fpProbe, *probeView) {
	p.sc, p.stats = new(fpProbeScratch), new(AdmissionStats)
	p.sc.run++
	p.sc.size(len(p.cores))
	p.buildViews([]*Entity{e}, []int{c}, c, n)
	p.cloneChains(nil)
	v := &p.sc.views[c]
	v.cs.ensureCosts(p.m)
	return p, v
}

// tableProbeOn runs the table probe on a scratch of its own and returns
// the verdict.
func tableProbeOn(p fpProbe, e *Entity, c, n int) bool {
	p.sc, p.stats = new(fpProbeScratch), new(AdmissionStats)
	return p.tableProbe(c, e, n)
}

// place is the index of table slot i (−1: the probed task) in the
// probe state, whose entity pos is the probed task.
func (t *tableState) place(i int) int {
	switch {
	case i < 0:
		return t.pos
	case i >= t.pos:
		return i + 1
	}
	return i
}

// tableColdSolves returns, indexed by place in the probe state, every
// entity's base and cold response time as the table probe of whole task
// e onto core c at queue bound n computes them, on a scratch of its own.
func tableColdSolves(p fpProbe, e *Entity, c, n int) (base, rt []timeq.Time, ok []bool) {
	p.sc, p.stats = new(fpProbeScratch), new(AdmissionStats)
	var t tableState
	var x tableSlot
	p.tableRun(&t, c, e, n)
	k := len(t.r.tab) + 1
	base, rt, ok = make([]timeq.Time, k), make([]timeq.Time, k), make([]bool, k)
	for i := -1; i < k-1; i++ {
		t.slot(i, &x)
		j := t.place(i)
		base[j] = x.b
		rt[j], ok[j], _ = p.tableSolve(&t, &x, 0)
	}
	return base, rt, ok
}

// TestPlainProbeMatchesViews is the differential of the table probe
// against the view evaluator, which chain states still use. On random
// chain-free states — both models, priority ties among the committed
// tasks and with the probe, probes that raise the queue bound and the
// core's cache delay, records shrunk by a removal, records shared with
// a snapshot — every whole-task probe must get one verdict from the
// table, the view evaluator, the writer, its snapshot and the stateless
// analysis; and every entity's base and cold response time, as the
// table charges them, must equal the view's (ensureCosts,
// responseTime), whatever the screens decide.
func TestPlainProbeMatchesViews(t *testing.T) {
	for _, m := range []*overhead.Model{overhead.Zero(), overhead.PaperModel()} {
		m = overhead.Normalize(m)
		rng := rand.New(rand.NewSource(20261019))
		var fits, misses, ties, raisedN, raisedCM, afterRemove int
		for round := 0; round < 40; round++ {
			cores := 2 + rng.Intn(3)
			ctx := FixedPriorityRTA.NewContext(task.NewAssignment(cores), m)
			x := ctx.(*fpContext)
			set := randomSet(rng, 5*cores, (0.6+0.35*rng.Float64())*float64(cores))
			for i, tk := range set.Tasks {
				if i > 0 && rng.Intn(4) == 0 {
					tk.Priority = set.Tasks[rng.Intn(i)].Priority // a tie
				}
				for c := 0; c < cores; c++ {
					if ctx.TryPlace(tk, c) {
						ctx.Commit()
						break
					}
					ctx.Rollback()
				}
			}
			if rng.Intn(2) == 0 {
				ctx.Schedulable() // fill every verdict
			}
			if rng.Intn(2) == 0 {
				ctx.Fork() // records shared with a snapshot from here on
			}
			removed := make([]bool, cores) // a removal shrank the core
			for i := int64(0); i < 30; i++ {
				tk := heavyProbe(rng, 1<<20+int64(round)<<8+i)
				if rng.Intn(3) == 0 {
					tk.Priority = set.Tasks[rng.Intn(len(set.Tasks))].Priority
				}
				if rng.Intn(4) == 0 {
					tk.WSS = 1 << 20 // past every committed working set
				}
				c := rng.Intn(cores)
				if rng.Intn(3) == 0 {
					// The fullest core: the probe raises the queue bound.
					for d := range x.cores {
						if len(x.cores[d].ents) > len(x.cores[c].ents) {
							c = d
						}
					}
				}
				e := newFPEntityInto(new(Entity), tk)
				n := placeN(x.cores, x.maxN, c)
				if n != probeN(x.cores, x.maxN, []int{c}) {
					t.Fatalf("placeN %d, probeN %d", n, probeN(x.cores, x.maxN, []int{c}))
				}
				r := &x.cores[c]
				onTable := tableProbeOn(x.engine(), e, c, n)
				onView := viewProbe(x.engine(), e, c, n)
				onWriter := ctx.TryPlace(tk, c)
				want := FixedPriorityRTA.CoreSchedulable(ctx.Assignment(), c, m)
				ctx.Rollback()
				name := fmt.Sprintf("zero=%v round %d probe %d (core %d, prio %d)", m.IsZero(), round, i, c, tk.Priority)
				if onTable != want || onView != want || onWriter != want {
					t.Fatalf("%s: table %v, view %v, writer %v, stateless %v", name, onTable, onView, onWriter, want)
				}
				if x.publishing.Load() {
					if got := ctx.Fork().TryPlace(tk, c); got != want {
						t.Fatalf("%s: snapshot %v, stateless %v", name, got, want)
					}
				}
				bt, rt, okt := tableColdSolves(x.engine(), e, c, n)
				_, v := viewOf(x.engine(), e, c, n)
				for j, o := range v.cs.Entities {
					rv, okv, _ := v.cs.responseTime(o, m, 0)
					if bv := timeq.AddSat(v.cs.infl[j], v.cs.blocking[j]); bt[j] != bv || rt[j] != rv || okt[j] != okv {
						t.Fatalf("%s: entity %d: table base %d, cold solve %d %v; view base %d, cold solve %d %v", name, j, bt[j], rt[j], okt[j], bv, rv, okv)
					}
				}
				if want {
					fits++
				} else {
					misses++
				}
				if slices.ContainsFunc(r.ents, func(o *Entity) bool { return o.LocalPriority == tk.Priority }) {
					ties++
				}
				if n > x.maxN {
					raisedN++
				}
				if m.Cache.MaxDelay(tk.WSS) > r.cacheMax {
					raisedCM++
				}
				if removed[c] {
					afterRemove++
				}
				switch rng.Intn(8) {
				case 0:
					if ctx.TryPlace(tk, c) {
						ctx.Commit()
					} else {
						ctx.Rollback()
					}
				case 1:
					if ts := x.a.Normal[c]; len(ts) > 0 {
						removed[c] = ctx.Remove(ts[rng.Intn(len(ts))].ID)
					}
				case 2:
					ctx.Fork()
				}
			}
		}
		t.Logf("zero=%v: %d fit, %d miss; %d ties, %d raised N, %d raised CacheMax, %d after a removal",
			m.IsZero(), fits, misses, ties, raisedN, raisedCM, afterRemove)
		if fits < 100 || misses < 100 || ties < 50 || raisedN < 50 || (raisedCM < 50 && !m.IsZero()) || afterRemove < 50 {
			t.Fatal("degenerate run: too few of one of the covered cases")
		}
	}
}
