// Package sched is a discrete-event simulator of the paper's
// semi-partitioned kernel scheduler (Section 2): each core owns a
// ready queue (binomial heap) and a sleep queue (red-black tree);
// timer-driven releases insert jobs into the ready queue and trigger
// the scheduler; split tasks carry a per-core time budget and migrate
// to the next core when it is exhausted, returning to the home core's
// sleep queue when the tail part finishes.
//
// Every overhead the paper measures (Section 3) is injected at the
// point in the timeline where the kernel would pay it — rls, sch,
// cnt1/cnt2, the δ/θ queue operations (local or remote), and the
// cache-related preemption/migration delay — so a simulation run
// reproduces the Figure 1 anatomy and lets the property tests verify
// that analysis-admitted assignments never miss deadlines.
package sched

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/overhead"
	"repro/internal/task"
	"repro/internal/timeq"
	"repro/internal/trace"
)

// Policy selects the per-core scheduling discipline. It is an alias
// of task.Policy: assignments carry their policy, and Run derives the
// dispatching discipline from it.
type Policy = task.Policy

const (
	// FixedPriority is rate-monotonic fixed-priority scheduling with
	// boosted split parts — the paper's FP-TS runtime.
	FixedPriority = task.FixedPriority
	// EDF schedules by earliest absolute deadline; split tasks must
	// carry EDF-WM deadline windows (task.Split.Windows), and a
	// migrated part becomes eligible at its window start.
	EDF = task.EDF
)

// Config parameterizes one simulation run.
type Config struct {
	// Model is the overhead model to inject; nil means overhead.Zero().
	Model *overhead.Model
	// Policy overrides the dispatching discipline. The zero value
	// defers to the assignment's own policy (stamped by the
	// partitioning algorithm), which is almost always what you want;
	// setting EDF forces EDF dispatching of a hand-built assignment.
	// Note the deliberate asymmetry: fixed-priority dispatching
	// cannot be forced onto an EDF-stamped assignment (EDF split
	// windows are meaningless under fixed priority, and FixedPriority
	// is indistinguishable from "unset").
	Policy Policy
	// Horizon is the simulated duration; 0 means 10× the longest
	// period in the assignment.
	Horizon timeq.Time
	// Recorder receives the event stream; nil discards it.
	Recorder trace.Recorder
	// Offsets delays the first release of selected tasks; absent
	// tasks release at time 0 (the synchronous critical instant).
	Offsets map[task.ID]timeq.Time
	// ArrivalJitter makes tasks sporadic: each inter-arrival time is
	// Period plus a uniformly drawn delay in [0, ArrivalJitter].
	// Deadlines remain relative to the actual release. Zero (the
	// default) is strictly periodic — the analysis' critical instant.
	ArrivalJitter timeq.Time
	// Seed drives the sporadic arrival draw (ignored when
	// ArrivalJitter is zero).
	Seed int64
}

// Miss describes one deadline miss.
type Miss struct {
	Task     task.ID
	Release  timeq.Time
	Deadline timeq.Time
	// At is when the miss was detected (completion time, or the
	// overrunning release for aborts).
	At timeq.Time
	// Overrun marks a job that was still unfinished when the
	// simulation horizon ended (a completed-late job has it false).
	Overrun bool
}

// String renders the miss.
func (m Miss) String() string {
	k := "completed late"
	if m.Overrun {
		k = "unfinished at horizon"
	}
	return fmt.Sprintf("τ%d released %v deadline %v: %s at %v", m.Task, m.Release, m.Deadline, k, m.At)
}

// Stats aggregates a run.
type Stats struct {
	Releases    int
	Finishes    int
	Preemptions int
	// Migrations counts body-part budget exhaustions (one per
	// cross-core hop).
	Migrations int
	Misses     int
	// OverheadTime is the total kernel time per category: rls, sch,
	// cnt1, cnt2, rq-add, rq-del, sq-add, sq-del, cache.
	OverheadTime map[string]timeq.Time
	// ExecTime is the total job execution time across cores
	// (excluding overheads and cache reloads).
	ExecTime timeq.Time
	// PerCore breaks execution and overhead time down by core.
	PerCore []CoreStats
	// Horizon is the simulated duration.
	Horizon timeq.Time
}

// CoreStats is one core's time accounting.
type CoreStats struct {
	Exec     timeq.Time
	Overhead timeq.Time
}

// Utilization returns the core's busy fraction (execution plus
// overhead over the horizon).
func (c CoreStats) Utilization(horizon timeq.Time) float64 {
	if horizon == 0 {
		return 0
	}
	return float64(c.Exec+c.Overhead) / float64(horizon)
}

// TotalOverhead sums OverheadTime.
func (s *Stats) TotalOverhead() timeq.Time {
	var t timeq.Time
	for _, v := range s.OverheadTime {
		t += v
	}
	return t
}

// OverheadRatio is total overhead time divided by total core time
// (cores × horizon).
func (s *Stats) OverheadRatio(numCores int) float64 {
	if s.Horizon == 0 || numCores == 0 {
		return 0
	}
	return float64(s.TotalOverhead()) / (float64(s.Horizon) * float64(numCores))
}

// Result is the outcome of a run.
type Result struct {
	Stats  Stats
	Misses []Miss
	// MaxResponse is the largest observed response time per task
	// (completion − release).
	MaxResponse map[task.ID]timeq.Time
	// Jobs counts completed jobs per task.
	Jobs map[task.ID]int
	// MaxTardiness is the largest lateness per task (completion −
	// deadline, only positive values recorded) — the soft real-time
	// view of an overloaded run. Empty when all deadlines were met.
	MaxTardiness map[task.ID]timeq.Time
}

// Schedulable reports whether the run completed without misses.
func (r *Result) Schedulable() bool { return len(r.Misses) == 0 }

// WorstTardiness returns the largest tardiness across tasks (zero
// for a clean run).
func (r *Result) WorstTardiness() timeq.Time {
	var w timeq.Time
	for _, t := range r.MaxTardiness {
		if t > w {
			w = t
		}
	}
	return w
}

// Run simulates the assignment for the configured horizon.
func Run(a *task.Assignment, cfg Config) (*Result, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	model := cfg.Model
	if model == nil {
		model = overhead.Zero()
	}
	rec := cfg.Recorder
	if rec == nil {
		rec = trace.Discard{}
	}
	horizon := cfg.Horizon
	if horizon == 0 {
		var maxT timeq.Time
		for _, t := range a.AllTasks() {
			maxT = timeq.Max(maxT, t.Period)
		}
		horizon = 10 * maxT
	}
	if horizon <= 0 {
		return nil, errors.New("sched: non-positive horizon")
	}
	// The effective policy is the assignment's own unless the config
	// explicitly forces EDF; the caller no longer has to restate what
	// the partitioning algorithm already decided.
	policy := cfg.Policy
	if policy == FixedPriority {
		policy = a.Policy
	}
	if policy == EDF {
		for _, sp := range a.Splits {
			if !sp.HasWindows() {
				return nil, fmt.Errorf("sched: EDF policy requires deadline windows on split %v", sp.Task)
			}
		}
	}
	if cfg.ArrivalJitter < 0 {
		return nil, errors.New("sched: negative arrival jitter")
	}
	e := newEngine(a, model, rec, horizon, cfg.Offsets)
	e.policy = policy
	if cfg.ArrivalJitter > 0 {
		e.jitter = cfg.ArrivalJitter
		e.rng = rand.New(rand.NewSource(cfg.Seed))
	}
	if err := e.run(); err != nil {
		return nil, err
	}
	return e.result(), nil
}
