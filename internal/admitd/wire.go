// Package admitd is the online admission-control service: the
// paper's overhead-aware schedulability test served as a long-running
// HTTP/JSON daemon over live cluster sessions.
//
// A client creates a named session (a core count, a scheduling policy
// and an overhead model) and then asks, request by request, "can this
// task join this core set right now?". Each session owns one live
// analysis.Context — the incremental admission machinery the batch
// sweeps use — so consecutive admissions are warm incremental probes
// against the session's committed state, not cold re-analyses of the
// whole assignment. Sessions are serialized by a per-session actor
// goroutine, stored in a striped shard map, evicted LRU under a
// session cap (snapshotted to disk first, restored transparently on
// next touch), and snapshotted on graceful shutdown.
//
// The wire contract — every request, response and error envelope —
// is the public api package (one versioned schema, shared with the
// client SDK); this package is its server-side transport. This file
// is the seam between the two: converting wire tasks and splits to
// the internal model (with validation) and back, and mapping internal
// errors onto the api error codes. See DESIGN.md §3.
package admitd

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"repro/api"
	"repro/internal/task"
	"repro/internal/taskgen"
	"repro/internal/timeq"
)

// toTask validates and converts the wire task. Fixed-priority
// sessions require an explicit priority: admission is online, so
// there is no whole set to run rate-monotonic assignment over.
func toTask(j api.Task, p task.Policy) (*task.Task, error) {
	t := new(task.Task)
	if err := toTaskInto(t, j, p); err != nil {
		return nil, err
	}
	return t, nil
}

// toTaskInto is toTask into caller-provided storage, so the read path
// can convert into pooled scratch. The filled task must only be
// retained by callers that own t; probe paths that recycle t must not
// hand it to anything that keeps the pointer past the probe.
func toTaskInto(t *task.Task, j api.Task, p task.Policy) error {
	*t = task.Task{
		ID:       task.ID(j.ID),
		Name:     j.Name,
		WCET:     timeq.Time(j.WCETNs),
		Period:   timeq.Time(j.PeriodNs),
		Deadline: timeq.Time(j.DeadlineNs),
		Priority: j.Priority,
		WSS:      j.WSS,
	}
	if j.ID == 0 {
		return fmt.Errorf("task needs a nonzero id")
	}
	if len(j.Name) > walMaxString {
		return fmt.Errorf("task %d: name longer than %d bytes", j.ID, walMaxString)
	}
	if err := t.Validate(); err != nil {
		return err
	}
	if p == task.FixedPriority && t.Priority == 0 {
		return fmt.Errorf("task %d: fixed-priority sessions need an explicit priority (smaller = higher)", j.ID)
	}
	return nil
}

// fromTask converts a task back to the wire form.
func fromTask(t *task.Task, core int) api.Task {
	return api.Task{
		ID:         int64(t.ID),
		Name:       t.Name,
		WCETNs:     int64(t.WCET),
		PeriodNs:   int64(t.Period),
		DeadlineNs: int64(t.Deadline),
		Priority:   t.Priority,
		WSS:        t.WSS,
		Core:       core,
	}
}

// toSplit validates and converts the wire split.
func toSplit(j api.Split, p task.Policy) (*task.Split, error) {
	t, err := toTask(j.Task, p)
	if err != nil {
		return nil, err
	}
	sp := &task.Split{Task: t}
	for _, pt := range j.Parts {
		sp.Parts = append(sp.Parts, task.Part{Core: pt.Core, Budget: timeq.Time(pt.BudgetNs)})
	}
	for _, w := range j.WindowsNs {
		sp.Windows = append(sp.Windows, timeq.Time(w))
	}
	if p == task.EDF && !sp.HasWindows() {
		return nil, fmt.Errorf("split %d: EDF sessions need windows_ns (EDF-WM deadline windows)", j.Task.ID)
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return sp, nil
}

// fromSplit converts a split back to the wire form.
func fromSplit(sp *task.Split) api.Split {
	j := api.Split{Task: fromTask(sp.Task, sp.Parts[0].Core)}
	for _, p := range sp.Parts {
		j.Parts = append(j.Parts, api.Part{Core: p.Core, BudgetNs: int64(p.Budget)})
	}
	for _, w := range sp.Windows {
		j.WindowsNs = append(j.WindowsNs, int64(w))
	}
	return j
}

// toTaskGen converts the wire generator config to the internal one.
// The two share their JSON schema field for field, so the conversion
// goes through JSON — a drift would surface as a decode error here,
// not as a silently dropped field.
func toTaskGen(g *api.TaskGen) (taskgen.Config, error) {
	var cfg taskgen.Config
	data, err := json.Marshal(g)
	if err != nil {
		return cfg, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return cfg, fmt.Errorf("generate: %w", err)
	}
	return cfg, nil
}

// parsePolicy maps the wire policy names.
func parsePolicy(s string) (task.Policy, error) {
	switch s {
	case "", "fp", "fixed-priority":
		return task.FixedPriority, nil
	case "edf", "EDF":
		return task.EDF, nil
	default:
		return 0, fmt.Errorf("unknown policy %q (fp|edf)", s)
	}
}

// policyName is the canonical wire name.
func policyName(p task.Policy) string {
	if p == task.EDF {
		return "edf"
	}
	return "fp"
}

// toAPIError maps an internal error onto the wire envelope: every
// endpoint returns the same {code, message} body, with the status
// derived from the code (404 for missing resources, 409 for
// conflicting state, 410 for a closed session, 500 for a session
// whose durable state cannot be rebuilt, 400 otherwise).
func toAPIError(err error) *api.Error {
	var ae *api.Error
	if errors.As(err, &ae) {
		return ae
	}
	code := api.CodeBadRequest
	switch {
	case errors.Is(err, errUnrecoverable):
		code = api.CodeInternal
	case errors.Is(err, ErrSessionNotFound):
		code = api.CodeSessionNotFound
	case errors.Is(err, ErrUnknownTask):
		code = api.CodeUnknownTask
	case errors.Is(err, ErrSessionExists):
		code = api.CodeSessionExists
	case errors.Is(err, ErrProbePending):
		code = api.CodeProbePending
	case errors.Is(err, ErrNoProbePending):
		code = api.CodeNoProbePending
	case errors.Is(err, ErrProbeRejected):
		code = api.CodeProbeRejected
	case errors.Is(err, ErrDuplicateTask):
		code = api.CodeDuplicateTask
	case errors.Is(err, ErrSessionClosed):
		code = api.CodeSessionClosed
	case errors.Is(err, ErrSeqTruncated):
		code = api.CodeSeqTruncated
	}
	return &api.Error{Code: code, Message: err.Error()}
}
