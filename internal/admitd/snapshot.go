package admitd

import (
	"encoding/json"
	"fmt"
	"net/url"
	"os"
	"path/filepath"

	"repro/api"
	"repro/internal/analysis"
	"repro/internal/overhead"
	"repro/internal/task"
	"repro/internal/wal"
)

// sessionSnapshot is the on-disk form of one session: enough to
// rebuild the assignment in its canonical order (tasks listed per
// core in placement order, splits in install order) so a restored
// context answers bit-identically to the evicted one. A held probe
// is never snapshotted: snapshotLocked rolls a pending probe back
// first — the session is being evicted or shut down, so the probe
// could never be resolved anyway, and its tentative mutation must
// not be persisted as committed state.
type sessionSnapshot struct {
	Name   string          `json:"name"`
	Cores  int             `json:"cores"`
	Policy string          `json:"policy"`
	Model  json.RawMessage `json:"model"`
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

	// Durability-plane checkpoint stamp: Seq is the highest durable
	// mutation sequence this snapshot covers (commit-log records at or
	// below it are compactable), Gen the session generation whose
	// stream it belongs to. Both zero when durability is off —
	// omitempty keeps plain eviction snapshots byte-stable.
	Seq int64  `json:"seq,omitempty"`
	Gen uint64 `json:"gen,omitempty"`
}

// snapshotLocked captures the session's committed state; it must run
// on the actor. A held probe is discarded (rolled back) first.
func (s *Session) snapshotLocked() (*sessionSnapshot, error) {
	if s.pendKind != pendNone {
		_, _ = s.rollbackLocked() //nolint:errcheck // pending by the check above
	}
	model, err := json.Marshal(s.model)
	if err != nil {
		return nil, err
	}
	snap := &sessionSnapshot{
		Name:             s.name,
		Cores:            s.a.NumCores,
		Policy:           policyName(s.policy),
		Model:            model,
		Admitted:         s.admitted.Load(),
		Rejected:         s.rejected.Load(),
		Removed:          s.removed.Load(),
		StateCacheHits:   s.stateHits.Load(),
		StateCacheMisses: s.stateMisses.Load(),
		Admission:        s.statsLocked(),
	}
	if s.wlog != nil {
		snap.Seq = s.durableSeq()
		snap.Gen = s.walGen
	}
	for c := 0; c < s.a.NumCores; c++ {
		for _, t := range s.a.Normal[c] {
			snap.Tasks = append(snap.Tasks, fromTask(t, c))
		}
	}
	for _, sp := range s.a.Splits {
		snap.Splits = append(snap.Splits, fromSplit(sp))
	}
	return snap, nil
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
	model := &overhead.Model{}
	if err := json.Unmarshal(snap.Model, model); err != nil {
		return 0, nil, nil, fmt.Errorf("admitd: snapshot %q model: %w", snap.Name, err)
	}
	model = overhead.Normalize(model)
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

// snapshotPath maps a session name to its file (path-escaped, so any
// name is safe on disk).
func snapshotPath(dir, name string) string {
	return filepath.Join(dir, url.PathEscape(name)+".json")
}

// writeSnapshot persists one snapshot atomically AND durably: write
// to a temp file, fsync it, rename into place, fsync the directory.
// The earlier write+rename-only version could lose both file and
// rename to a crash — fatal once the commit log compacts on the
// assumption the checkpoint is on disk.
func writeSnapshot(dir string, snap *sessionSnapshot) error {
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	return wal.WriteFileAtomic(snapshotPath(dir, snap.Name), data, 0o644)
}

// decodeCheckpoint reads a session's checkpoint file into v, reporting
// whether there was one. Errors name the file.
func decodeCheckpoint(dir, name string, v any) (bool, error) {
	path := snapshotPath(dir, name)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("admitd: reading checkpoint: %w", err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return false, fmt.Errorf("admitd: parsing checkpoint %s: %w", path, err)
	}
	return true, nil
}

// readSnapshot loads one snapshot; a missing file returns (nil, nil).
func readSnapshot(dir, name string) (*sessionSnapshot, error) {
	snap := &sessionSnapshot{}
	if ok, err := decodeCheckpoint(dir, name, snap); !ok {
		return nil, err
	}
	return snap, nil
}

// readStamp reads only a checkpoint's durability stamp, without
// building its task lists: what the recovery scan needs of every
// checkpoint, where the full decode is owed only to the streams it
// goes on to restore. A missing file reads as unstamped.
func readStamp(dir, name string) (seq int64, gen uint64, err error) {
	var stamp struct {
		Seq int64  `json:"seq"`
		Gen uint64 `json:"gen"`
	}
	_, err = decodeCheckpoint(dir, name, &stamp)
	return stamp.Seq, stamp.Gen, err
}
