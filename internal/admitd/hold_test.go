package admitd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"testing"

	"repro/api"
	"repro/internal/analysis"
	"repro/internal/overhead"
	"repro/internal/task"
)

// holdOp is one step of the hold differential: a whole task (on a
// named core or first fit) or a split.
type holdOp struct {
	admit api.AdmitRequest
	split *api.SplitRequest
}

// randHoldOp draws step i: a task of 5–40 % of a core with a unique
// priority, split over two cores a third of the time (with EDF-WM
// windows under EDF).
func randHoldOp(rng *rand.Rand, i, cores int, p task.Policy) holdOp {
	period := int64(10+rng.Intn(90)) * 1e6
	wcet := period * int64(5+rng.Intn(36)) / 100
	j := api.Task{ID: int64(i + 1), WCETNs: wcet, PeriodNs: period, Priority: i + 1}
	if rng.Intn(3) == 0 {
		a := rng.Intn(cores)
		b := (a + 1 + rng.Intn(cores-1)) % cores
		first := wcet / 2
		sp := api.Split{Task: j, Parts: []api.Part{{Core: a, BudgetNs: first}, {Core: b, BudgetNs: wcet - first}}}
		if p == task.EDF {
			sp.WindowsNs = []int64{period / 2, period / 2}
		}
		return holdOp{split: &api.SplitRequest{Split: sp}}
	}
	op := holdOp{admit: api.AdmitRequest{Task: j}}
	if rng.Intn(2) == 0 {
		c := rng.Intn(cores)
		op.admit.Core = &c
	}
	return op
}

// TestHoldCommitMatchesAdmit is the held-probe differential: on twin
// sessions, a holding try or split followed by commit (or by rollback,
// when the verdict rejects) must answer the verdict a direct admit or
// split answers and leave the identical state bytes — snapshot
// verdict included — and the sessions must then answer every further
// admit identically. FP and EDF, zero and paper overheads, whole and
// split tasks, named cores and first fit, with the SelfCheck shadow on.
func TestHoldCommitMatchesAdmit(t *testing.T) {
	prev := analysis.SelfCheck
	analysis.SelfCheck = true
	defer func() { analysis.SelfCheck = prev }()
	const cores, steps, after = 4, 40, 12
	for _, p := range []task.Policy{task.FixedPriority, task.EDF} {
		for _, m := range []struct {
			name  string
			model *overhead.Model
		}{{"zero", overhead.Zero()}, {"paper", overhead.PaperModel()}} {
			t.Run(fmt.Sprintf("%s/%s", policyName(p), m.name), func(t *testing.T) {
				held := newSession("s", p, m.model, task.NewAssignment(cores), nil, nil)
				defer held.close()
				direct := newSession("s", p, m.model, task.NewAssignment(cores), nil, nil)
				defer direct.close()
				rng := rand.New(rand.NewSource(int64(p)*10 + int64(len(m.name))))
				var holds, commits int
				for i := 0; i < steps; i++ {
					op := randHoldOp(rng, i, cores, p)
					var hv, cv, dv api.Verdict
					var herr, cerr, derr error
					onActor(t, held, func() {
						if op.split != nil {
							req := *op.split
							req.Hold = true
							hv, herr = held.splitLocked(req)
						} else {
							req := op.admit
							req.Hold = true
							hv, herr = held.holdLocked(req)
						}
						switch {
						case herr != nil || !hv.Pending:
						case hv.Admitted:
							cv, cerr = held.commitLocked()
						default:
							cv, cerr = held.rollbackLocked()
						}
					})
					onActor(t, direct, func() {
						if op.split != nil {
							dv, derr = direct.splitLocked(*op.split)
						} else {
							dv, derr = direct.admitLocked(op.admit)
						}
					})
					if herr != nil || derr != nil || cerr != nil {
						t.Fatalf("step %d: errors hold=%v commit=%v direct=%v", i, herr, cerr, derr)
					}
					if hv.Pending {
						holds++
					}
					hv.Pending = false
					if hv != dv {
						t.Fatalf("step %d: held verdict %+v, direct %+v", i, hv, dv)
					}
					if hv.Admitted {
						commits++
						if want := (api.Verdict{TaskID: dv.TaskID, Admitted: true, Core: dv.Core}); cv != want {
							t.Fatalf("step %d: commit answered %+v, want %+v", i, cv, want)
						}
					}
					sameState(t, i, held, direct)
				}
				if holds == 0 || commits == 0 || commits == holds {
					t.Fatalf("the draw held %d probes and committed %d: it must exercise both outcomes", holds, commits)
				}
				for i := steps; i < steps+after; i++ {
					op := randHoldOp(rng, i, cores, p)
					req := op.admit
					if op.split != nil {
						req = api.AdmitRequest{Task: op.split.Split.Task}
					}
					var hv, dv api.Verdict
					var herr, derr error
					onActor(t, held, func() { hv, herr = held.admitLocked(req) })
					onActor(t, direct, func() { dv, derr = direct.admitLocked(req) })
					if herr != nil || derr != nil || hv != dv {
						t.Fatalf("admit %d after the holds: %+v/%v, direct %+v/%v", i, hv, herr, dv, derr)
					}
				}
				sameState(t, steps+after, held, direct)
			})
		}
	}
}

// onActor runs f on s's actor.
func onActor(t *testing.T, s *Session, f func()) {
	t.Helper()
	if err := s.call(f); err != nil {
		t.Fatal(err)
	}
}

// sameState fails unless both sessions render byte-identical state
// bodies.
func sameState(t *testing.T, step int, a, b *Session) {
	t.Helper()
	ab, err1 := a.stateReadBytes()
	bb, err2 := b.stateReadBytes()
	if err1 != nil || err2 != nil {
		t.Fatalf("step %d: state: %v / %v", step, err1, err2)
	}
	if !bytes.Equal(ab, bb) {
		t.Fatalf("step %d: state diverged:\nheld   %s\ndirect %s", step, ab, bb)
	}
}

// TestCheckpointWhileHeld takes a checkpoint round while a probe is
// held: the round must leave the hold out (the state still shows it
// pending) and the hold must still commit afterwards. A second hold is
// left out when the server closes; the restart must recover exactly
// the committed tasks, with nothing pending.
func TestCheckpointWhileHeld(t *testing.T) {
	dir := t.TempDir()
	srv := newTestServer(t, Config{DataDir: dir})
	mustStatus(t, srv, "POST", "/v1/sessions", api.CreateSessionRequest{Name: "h", Cores: 2}, http.StatusCreated)
	mustStatus(t, srv, "POST", "/v1/sessions/h/admit", api.AdmitRequest{Task: api.Task{ID: 1, WCETNs: 1e6, PeriodNs: 1e7, Priority: 1}}, http.StatusOK)
	mustStatus(t, srv, "POST", "/v1/sessions/h/try", api.AdmitRequest{Task: api.Task{ID: 2, WCETNs: 1e6, PeriodNs: 1e7, Priority: 2}, Hold: true}, http.StatusOK)
	if err := srv.store.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var st api.State
	if err := json.Unmarshal(mustStatus(t, srv, "GET", "/v1/sessions/h", nil, http.StatusOK), &st); err != nil {
		t.Fatal(err)
	}
	if !st.ProbePending || len(st.Tasks) != 1 {
		t.Fatalf("after the checkpoint the hold must still be out over one task: %+v", st)
	}
	var v api.Verdict
	if err := json.Unmarshal(mustStatus(t, srv, "POST", "/v1/sessions/h/commit", nil, http.StatusOK), &v); err != nil {
		t.Fatal(err)
	}
	if !v.Admitted || v.TaskID != 2 {
		t.Fatalf("commit after the checkpoint: %+v", v)
	}
	mustStatus(t, srv, "POST", "/v1/sessions/h/try", api.AdmitRequest{Task: api.Task{ID: 3, WCETNs: 1e6, PeriodNs: 1e7, Priority: 3}, Hold: true}, http.StatusOK)
	srv.Close()

	srv2 := newTestServer(t, Config{DataDir: dir})
	var got api.State
	if err := json.Unmarshal(mustStatus(t, srv2, "GET", "/v1/sessions/h", nil, http.StatusOK), &got); err != nil {
		t.Fatal(err)
	}
	var ids []int64
	for _, j := range got.Tasks {
		ids = append(ids, j.ID)
	}
	if got.ProbePending || len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
		t.Fatalf("restart must recover exactly tasks 1 and 2, nothing held: %+v", got)
	}
}
