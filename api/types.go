package api

import "encoding/json"

// Task is the wire form of one sporadic task. Durations are
// nanoseconds. Core carries the placement in state/snapshot output
// (and is ignored on input — admission decides the placement).
type Task struct {
	ID         int64  `json:"id"`
	Name       string `json:"name,omitempty"`
	WCETNs     int64  `json:"wcet_ns"`
	PeriodNs   int64  `json:"period_ns"`
	DeadlineNs int64  `json:"deadline_ns,omitempty"`
	Priority   int    `json:"priority,omitempty"`
	WSS        int64  `json:"wss,omitempty"`
	Core       int    `json:"core,omitempty"`
}

// Part is one per-core share of a split task.
type Part struct {
	Core     int   `json:"core"`
	BudgetNs int64 `json:"budget_ns"`
}

// Split is the wire form of a split task: the task, its per-core
// budgets, and (EDF sessions) the EDF-WM deadline windows.
type Split struct {
	Task      Task    `json:"task"`
	Parts     []Part  `json:"parts"`
	WindowsNs []int64 `json:"windows_ns,omitempty"`
}

// CreateSessionRequest opens a named cluster session.
type CreateSessionRequest struct {
	Name  string `json:"name"`
	Cores int    `json:"cores"`
	// Policy is "fp" (default) or "edf".
	Policy string `json:"policy,omitempty"`
	// Model is "paper" (default), "zero", or an inline overhead-model
	// object in the spexp -model JSON schema.
	Model json.RawMessage `json:"model,omitempty"`
}

// SessionCreated acknowledges a created session.
type SessionCreated struct {
	Name    string `json:"name"`
	Cores   int    `json:"cores"`
	Policy  string `json:"policy"`
	Version string `json:"version"`
}

// SessionList names the live sessions.
type SessionList struct {
	Sessions []string `json:"sessions"`
	Count    int      `json:"count"`
}

// SessionDeleted acknowledges a deleted session.
type SessionDeleted struct {
	Deleted bool `json:"deleted"`
}

// AdmitRequest asks whether a task can join the session. A nil Core
// means first-fit over all cores; Hold (try endpoint only) keeps the
// probe pending for an explicit commit/rollback.
type AdmitRequest struct {
	Task Task `json:"task"`
	Core *int `json:"core,omitempty"`
	Hold bool `json:"hold,omitempty"`
}

// SplitRequest probes or admits a split task.
type SplitRequest struct {
	Split Split `json:"split"`
	Hold  bool  `json:"hold,omitempty"`
}

// RemoveRequest removes a previously admitted task by ID.
type RemoveRequest struct {
	ID int64 `json:"id"`
}

// Removed acknowledges a removed task.
type Removed struct {
	Removed bool  `json:"removed"`
	ID      int64 `json:"id"`
}

// Verdict is the outcome of one admission request.
type Verdict struct {
	TaskID   int64 `json:"task_id"`
	Admitted bool  `json:"admitted"`
	// Core is the placement (-1 when rejected or for splits).
	Core int `json:"core"`
	// Pending marks a held probe awaiting commit/rollback.
	Pending bool `json:"pending,omitempty"`
	// Probes counts the cores probed to reach the verdict.
	Probes int `json:"probes"`
}

// State describes a session's committed assignment.
type State struct {
	Name            string    `json:"name"`
	Cores           int       `json:"cores"`
	Policy          string    `json:"policy"`
	Tasks           []Task    `json:"tasks"`
	Splits          []Split   `json:"splits,omitempty"`
	CoreUtilization []float64 `json:"core_utilization"`
	// Schedulable is the full admission test on the committed state;
	// omitted while a held probe is pending.
	Schedulable  *bool `json:"schedulable,omitempty"`
	ProbePending bool  `json:"probe_pending,omitempty"`
}

// SessionStats is one session's request and admission counters.
type SessionStats struct {
	Name     string `json:"name"`
	Tasks    int    `json:"tasks"`
	Admitted int64  `json:"admitted"`
	Rejected int64  `json:"rejected"`
	Removed  int64  `json:"removed"`
	// State-cache counters report the per-snapshot rendered-body
	// memo on the state read path: a hit served bytes cached on the
	// current snapshot, a miss re-rendered (new snapshot sequence).
	StateCacheHits   int64          `json:"state_cache_hits"`
	StateCacheMisses int64          `json:"state_cache_misses"`
	Admission        AdmissionStats `json:"admission"`
}

// ServerStats are the server-wide counters. AdmissionFlushed
// aggregates the admission counters of closed and evicted sessions;
// live-session detail is at the per-session stats route.
type ServerStats struct {
	Requests         int64          `json:"requests"`
	SessionsLive     int64          `json:"sessions_live"`
	SessionsCreated  int64          `json:"sessions_created"`
	SessionsEvicted  int64          `json:"sessions_evicted"`
	SessionsRestored int64          `json:"sessions_restored"`
	SessionsDeleted  int64          `json:"sessions_deleted"`
	AdmissionFlushed AdmissionStats `json:"admission_flushed"`
}

// Health is the liveness reply.
type Health struct {
	Status string `json:"status"`
}

// TaskGen parameterizes server-side task-set generation (the batch
// endpoint's Generate field). It mirrors the generator's JSON schema
// field for field; durations are nanoseconds.
type TaskGen struct {
	N                  int     `json:"n"`
	TotalUtilization   float64 `json:"total_utilization"`
	MaxTaskUtilization float64 `json:"max_task_utilization,omitempty"`
	PeriodMinNs        int64   `json:"period_min_ns,omitempty"`
	PeriodMaxNs        int64   `json:"period_max_ns,omitempty"`
	// Periods picks the period distribution by name: "log-uniform"
	// (default), "uniform", "harmonic", or "automotive".
	Periods string `json:"periods,omitempty"`
	WSSMin  int64  `json:"wss_min,omitempty"`
	WSSMax  int64  `json:"wss_max,omitempty"`
	Seed    int64  `json:"seed,omitempty"`
}

// BatchRequest admits a whole task set task by task, streaming one
// verdict line per task (NDJSON) and a final BatchSummary line.
// Exactly one of Tasks or Generate must be set; Generate draws the
// set server-side. Order "util-desc" offers tasks in decreasing
// utilization (the FFD replay order); default is input order.
//
// TryOnly switches the batch to the server's concurrent read path:
// nothing is committed, and every task is probed independently
// against one immutable snapshot of the committed state (fanned
// across a bounded worker pool). Each verdict then answers "would
// this task fit right now, alone?" — successive tasks do not see
// each other, unlike the sequential admitting batch.
type BatchRequest struct {
	Tasks    []Task   `json:"tasks,omitempty"`
	Generate *TaskGen `json:"generate,omitempty"`
	Order    string   `json:"order,omitempty"`
	TryOnly  bool     `json:"try_only,omitempty"`
}

// AuditReport answers "why did mutation N commit?": the session is
// rebuilt from checkpoint + commit-log replay to seq N-1, and the
// logged mutation is re-run cold with the stats collector attached.
// Task is the replayed task (splits report the split's task); nil
// for removes. Tasks is the committed task count at N-1. Admission
// carries the re-run's collector counters (probes, fixed-point
// iterations, warm starts).
type AuditReport struct {
	Name        string         `json:"name"`
	Seq         int64          `json:"seq"`
	Op          string         `json:"op"`
	TaskID      int64          `json:"task_id"`
	Core        int            `json:"core"`
	Tasks       int            `json:"tasks"`
	Admitted    bool           `json:"admitted"`
	Schedulable bool           `json:"schedulable"`
	Task        *Task          `json:"task,omitempty"`
	Admission   AdmissionStats `json:"admission"`
}

// BatchSummary is the final NDJSON line of a batch response. TryOnly
// echoes the request's read-path mode: counts are would-admit
// answers and the session was not mutated.
type BatchSummary struct {
	Done        bool `json:"done"`
	Admitted    int  `json:"admitted"`
	Rejected    int  `json:"rejected"`
	Schedulable bool `json:"schedulable"`
	TaskCount   int  `json:"task_count"`
	Canceled    bool `json:"canceled,omitempty"`
	TryOnly     bool `json:"try_only,omitempty"`
}
