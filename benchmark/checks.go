package main

import (
	"context"
	"fmt"

	"repro/api"
	"repro/client"
	"repro/internal/analysis"
	"repro/internal/overhead"
	"repro/internal/task"
	"repro/internal/timeq"
)

// checker counts correctness checks; every failed one is a failed
// operation of the run.
type checker struct {
	attempted, failed int64
	msgs              []string
	unschedulable     int // sessions whose committed state fails the full test
}

func (c *checker) ok(cond bool, format string, args ...any) bool {
	c.attempted++
	if !cond {
		c.failed++
		if len(c.msgs) < 8 {
			c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
		}
	}
	return cond
}

// toTask converts a wire task to the analysis model (the same field
// mapping the server applies).
func toTask(j api.Task) *task.Task {
	return &task.Task{
		ID: task.ID(j.ID), Name: j.Name,
		WCET: timeq.Time(j.WCETNs), Period: timeq.Time(j.PeriodNs), Deadline: timeq.Time(j.DeadlineNs),
		Priority: j.Priority, WSS: j.WSS,
	}
}

// rebuild turns a session's State reply into a task.Assignment the
// stateless analyzer can judge.
func rebuild(st *api.State) *task.Assignment {
	a := task.NewAssignment(st.Cores)
	a.Policy = task.FixedPriority
	for _, j := range st.Tasks {
		a.Place(toTask(j), j.Core)
	}
	return a
}

// statelessFirstFit answers a try the way the stateless analyzer
// does: the first core whose CoreSchedulable admits the task.
func statelessFirstFit(a *task.Assignment, t *task.Task, model *overhead.Model) (core, probes int) {
	an := analysis.ForPolicy(a.Policy)
	for c := 0; c < a.NumCores; c++ {
		probes++
		a.Normal[c] = append(a.Normal[c], t)
		fits := an.CoreSchedulable(a, c, model)
		a.Normal[c] = a.Normal[c][:len(a.Normal[c])-1]
		if fits {
			return c, probes
		}
	}
	return -1, probes
}

// sameResidents reports whether a state reply holds exactly the IDs
// the model of acknowledged writes says are resident.
func sameResidents(st *api.State, m *sessModel) bool {
	want := m.resident()
	got := make(map[int64]bool, len(st.Tasks))
	for _, j := range st.Tasks {
		got[j.ID] = true
	}
	same := len(got) == len(want)
	for id := range want {
		same = same && got[id]
	}
	return same
}

// maxReplaysPerSession bounds the stateless replays: the stateless
// analyzer rebuilds every per-core set per probe, so it is checked on
// a sample — 1 in 256 of the tries the session served, up to this cap.
const maxReplaysPerSession = 64

// checkSessions runs the post-workload checks on every session,
// through a fresh in-process client, with the system quiesced: the
// resident ID set equals the model of acknowledged writes; the
// stateless full test of the rebuilt assignment agrees with the
// server's own schedulability flag; and a 1-in-256 sample of try
// verdicts, re-issued on that state, equals stateless first-fit.
//
// Admission is per core (a probe is not vetoed by other cores), while
// the queue bound N couples them, so a committed state may fail the
// full test without any verdict having been wrong: such sessions are
// counted and printed, and only a disagreement with the stateless
// oracle is a failure.
func checkSessions(chk *checker, c *client.Client, models []*sessModel) {
	ctx := context.Background()
	model := overhead.PaperModel()
	for _, m := range models {
		sess := c.Session(m.name)
		st, err := sess.State(ctx)
		if !chk.ok(err == nil, "%s: state: %v", m.name, err) {
			continue
		}
		chk.ok(sameResidents(&st, m), "%s: resident IDs differ from the acked-write model (%d vs %d)", m.name, len(st.Tasks), len(m.resident()))
		a := rebuild(&st)
		sched := analysis.ForPolicy(a.Policy).Schedulable(a, model)
		chk.ok(st.Schedulable != nil && *st.Schedulable == sched,
			"%s: server says schedulable=%v, the stateless full test says %v", m.name, st.Schedulable != nil && *st.Schedulable, sched)
		if !sched {
			chk.unschedulable++
		}

		replays := int(m.tries / 256)
		if replays > maxReplaysPerSession {
			replays = maxReplaysPerSession
		}
		if replays < 1 {
			replays = 1
		}
		for i := 0; i < replays; i++ {
			m.nextTry++
			probe := m.drawTask(m.nextTry)
			v, err := sess.Try(ctx, api.AdmitRequest{Task: probe})
			if !chk.ok(err == nil, "%s: replay try: %v", m.name, err) {
				continue
			}
			m.sampled++
			core, probes := statelessFirstFit(a, toTask(probe), model)
			chk.ok(v.Admitted == (core >= 0) && v.Core == core && v.Probes == probes,
				"%s: try %d: server (admitted=%v core=%d probes=%d) vs stateless (core=%d probes=%d)",
				m.name, probe.ID, v.Admitted, v.Core, v.Probes, core, probes)
		}
	}
}
