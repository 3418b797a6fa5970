package admitd

import (
	"fmt"

	"repro/api"
	"repro/internal/analysis"
	"repro/internal/overhead"
	"repro/internal/task"
)

// sessionSnapshot is one session's committed state: enough to rebuild
// the assignment in its canonical order (tasks listed per core in
// placement order, splits in install order) so a restored context
// answers bit-identically to the evicted one. On disk it is a
// checkpoint record (walEncodeCheckpoint); the JSON tags describe the
// older layout's checkpoint files, read once by the import. A held
// probe is never checkpointed: it is a verdict beside the committed
// state, not part of it, and a session evicted or shut down with one
// out drops it.
type sessionSnapshot struct {
	Name   string          `json:"name"`
	Cores  int             `json:"cores"`
	Policy string          `json:"policy"`
	Model  *overhead.Model `json:"model"`
	Tasks  []api.Task      `json:"tasks"`
	Splits []api.Split     `json:"splits,omitempty"`

	Admitted int64 `json:"admitted"`
	Rejected int64 `json:"rejected"`
	Removed  int64 `json:"removed"`
	// State-memo read counters (see Session.stateHits); omitempty
	// keeps pre-telemetry snapshots readable.
	StateCacheHits   int64 `json:"state_cache_hits,omitempty"`
	StateCacheMisses int64 `json:"state_cache_misses,omitempty"`
	// Admission carries the session's cumulative admission counters
	// across eviction/restore cycles.
	Admission analysis.AdmissionStats `json:"admission"`

	// Seq is the last durable mutation this state covers; Gen (the
	// older files only) the session generation whose stream it was.
	Seq int64  `json:"seq,omitempty"`
	Gen uint64 `json:"gen,omitempty"`
}

// checkpointLocked appends the session's committed state as a
// checkpoint record at its durable seq — on the actor, so a stream's
// LSN order is its seq order. A held probe stays held.
func (s *Session) checkpointLocked() error {
	snap := &sessionSnapshot{
		Name:             s.name,
		Cores:            s.a.NumCores,
		Policy:           policyName(s.policy),
		Model:            s.model,
		Admitted:         s.admitted.Load(),
		Rejected:         s.rejected.Load(),
		Removed:          s.removed.Load(),
		StateCacheHits:   s.stateHits.Load(),
		StateCacheMisses: s.stateMisses.Load(),
		Admission:        s.statsLocked(),
		Seq:              s.durableSeq(),
	}
	for c := 0; c < s.a.NumCores; c++ {
		for _, t := range s.a.Normal[c] {
			snap.Tasks = append(snap.Tasks, fromTask(t, c))
		}
	}
	for _, sp := range s.a.Splits {
		snap.Splits = append(snap.Splits, fromSplit(sp))
	}
	s.walBuf = walEncodeCheckpoint(s.walBuf[:0], snap)
	pos, err := s.wlog.Append(s.wstream, snap.Seq, s.walBuf)
	if err == nil {
		s.wplane.setCkpt(s.walEnt, snap.Seq, pos)
	}
	return err
}

// buildAssignment reconstructs a snapshot's assignment in canonical
// order (tasks per core in placement order, splits in install order)
// and resolves its policy and overhead model. Shared by the session
// restore path and the commit-log audit path.
func buildAssignment(snap *sessionSnapshot) (task.Policy, *overhead.Model, *task.Assignment, error) {
	p, err := parsePolicy(snap.Policy)
	if err != nil {
		return 0, nil, nil, err
	}
	if snap.Cores <= 0 {
		return 0, nil, nil, fmt.Errorf("admitd: snapshot %q: %d cores", snap.Name, snap.Cores)
	}
	model := overhead.Normalize(snap.Model)
	a := task.NewAssignment(snap.Cores)
	for _, j := range snap.Tasks {
		t, err := toTask(j, p)
		if err != nil {
			return 0, nil, nil, fmt.Errorf("admitd: snapshot %q: %w", snap.Name, err)
		}
		if j.Core < 0 || j.Core >= snap.Cores {
			return 0, nil, nil, fmt.Errorf("admitd: snapshot %q: task %d on core %d", snap.Name, j.ID, j.Core)
		}
		a.Place(t, j.Core)
	}
	for _, j := range snap.Splits {
		sp, err := toSplit(j, p)
		if err != nil {
			return 0, nil, nil, fmt.Errorf("admitd: snapshot %q: %w", snap.Name, err)
		}
		a.Splits = append(a.Splits, sp)
	}
	if err := a.Validate(); err != nil {
		return 0, nil, nil, fmt.Errorf("admitd: snapshot %q: %w", snap.Name, err)
	}
	return p, model, a, nil
}

// restoreSession rebuilds a session from its snapshot: the assignment
// is reconstructed in canonical order and a fresh (cold) context is
// opened over it — decisions are bit-identical to the stateless
// analyzer, hence to the warm context that was evicted.
func restoreSession(snap *sessionSnapshot, coll *analysis.Collector, met *serverMetrics) (*Session, error) {
	p, model, a, err := buildAssignment(snap)
	if err != nil {
		return nil, err
	}
	s := newSession(snap.Name, p, model, a, coll, met)
	s.admitted.Store(snap.Admitted)
	s.rejected.Store(snap.Rejected)
	s.removed.Store(snap.Removed)
	s.stateHits.Store(snap.StateCacheHits)
	s.stateMisses.Store(snap.StateCacheMisses)
	s.baseStats = snap.Admission
	return s, nil
}
