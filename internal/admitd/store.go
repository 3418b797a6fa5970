package admitd

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/overhead"
	"repro/internal/task"
	"repro/internal/wal"
)

// numShards stripes the session map so unrelated sessions never
// contend on one lock; per-session serialization is the actor's job,
// the shards only guard the name → session mapping.
const numShards = 16

// ErrSessionExists rejects creating a name that is already live (or
// snapshotted, when persistence is on).
var ErrSessionExists = errors.New("admitd: session already exists")

// ErrSessionNotFound is the lookup miss.
var ErrSessionNotFound = errors.New("admitd: session not found")

type storeShard struct {
	mu sync.Mutex
	m  map[string]*Session
}

// Store is the sharded session registry: striped maps, a logical
// clock for LRU, and an eviction cap.
type Store struct {
	shards      [numShards]storeShard
	maxSessions int

	// plane is the durability plane (nil when DataDir is unset): the
	// commit log and its stream registry, whose checkpoint records
	// evicted sessions park in until their next touch.
	plane *walPlane

	// Periodic checkpoint + compaction driver (plane only).
	ckptTick *time.Ticker
	ckptStop chan struct{}
	ckptDone chan struct{}
	ckptOnce sync.Once

	clock atomic.Int64 // logical LRU clock, bumped per touch
	count atomic.Int64

	created, evicted, restored, deleted atomic.Int64

	// coll aggregates admission stats across every session the store
	// ever hosted — the server-wide /stats view.
	coll *analysis.Collector

	// met is the owning server's telemetry plane, stamped on every
	// session the store creates or restores; nil when the store is
	// used without a Server (tests, embedders).
	met *serverMetrics
}

// StoreConfig parameterizes a Store.
type StoreConfig struct {
	// MaxSessions caps live sessions; 0 means 1024. Creation beyond
	// the cap evicts the least-recently-used session (checkpointing it
	// first when DataDir is set; it is gone for good otherwise).
	MaxSessions int
	// DataDir, when non-empty, turns the durability plane on: every
	// committed mutation is written to a per-shard commit log under
	// DataDir/wal, and so are checkpoints — one per evicted session, one
	// per live session each round and at Close — from which missing
	// sessions are restored transparently; a crashed store recovers to
	// exactly the acknowledged state.
	DataDir string
	// Fsync picks the commit policy (default wal.SyncGroup): always
	// fsyncs every commit boundary before the ack; group acks at
	// apply time and background-syncs once per FsyncInterval (bounded
	// loss window); off leaves flushing to the OS.
	Fsync wal.SyncPolicy
	// FsyncInterval is the group policy's background commit cadence:
	// dirty logs are fsynced once per interval, bounding the loss
	// window of a crash to about one interval of acked writes.
	// 0 or negative means 5ms. Ignored by the always/off policies.
	FsyncInterval time.Duration
	// CheckpointEvery is the snapshot-compaction period: 0 means 30s,
	// negative disables the periodic driver (Checkpoint can still be
	// called directly; eviction and Close checkpoint regardless).
	CheckpointEvery time.Duration
}

// defaultCheckpointEvery is the checkpoint-compaction period when
// the config leaves it zero.
const defaultCheckpointEvery = 30 * time.Second

// defaultFsyncInterval is the group policy's background commit
// cadence when the config leaves it unset: a ~5ms loss window and
// zero added ack latency. The cadence is a direct throughput knob
// on virtualized disks, where every flush costs ~150-200µs of
// device barrier regardless of how little data is dirty — 1ms ticks
// measured ~20% off admitd's single-core write throughput, 5ms ~4%.
// (For scale: PostgreSQL's wal_writer_delay defaults to 200ms,
// Redis appendfsync everysec to 1s.)
const defaultFsyncInterval = 5 * time.Millisecond

// NewStore builds the registry and — with DataDir set — opens the
// durability plane, running crash recovery on its commit logs before
// the store serves anything.
func NewStore(cfg StoreConfig) (*Store, error) {
	max := cfg.MaxSessions
	if max <= 0 {
		max = 1024
	}
	st := &Store{maxSessions: max, coll: &analysis.Collector{}}
	if cfg.DataDir != "" {
		window := cfg.FsyncInterval
		if window <= 0 {
			window = defaultFsyncInterval
		}
		plane, err := openWalPlane(cfg.DataDir, cfg.Fsync, window)
		if err != nil {
			return nil, err
		}
		st.plane = plane
	}
	for i := range st.shards {
		st.shards[i].m = make(map[string]*Session)
	}
	if st.plane != nil && cfg.CheckpointEvery >= 0 {
		every := cfg.CheckpointEvery
		if every == 0 {
			every = defaultCheckpointEvery
		}
		st.ckptTick = time.NewTicker(every)
		st.ckptStop = make(chan struct{})
		st.ckptDone = make(chan struct{})
		go st.checkpointLoop()
	}
	return st, nil
}

func (st *Store) shardFor(name string) *storeShard {
	h := fnv.New32a()
	h.Write([]byte(name))
	return &st.shards[h.Sum32()%numShards]
}

// touch stamps the session's LRU position.
func (st *Store) touch(s *Session) {
	s.lastUsed.Store(st.clock.Add(1))
}

// shardSizes samples every shard's live-session count (scrape-time
// striping-balance gauge; locks each shard briefly, one at a time).
func (st *Store) shardSizes(sizes *[numShards]int) {
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		sizes[i] = len(sh.m)
		sh.mu.Unlock()
	}
}

// maxSessionCores caps a session's core count. The count sizes every
// per-core structure of the session's assignment and analysis context,
// so Create refuses a larger one before allocating any of them.
const maxSessionCores = 1024

// Create opens a fresh session. The eviction loop runs before the
// shard lock is taken (evicting scans all shards), so the cap can
// transiently overshoot under concurrent creates — it is a resource
// bound, not an invariant.
func (st *Store) Create(name string, cores int, p task.Policy, model *overhead.Model) (*Session, error) {
	if name == "" {
		return nil, fmt.Errorf("admitd: empty session name")
	}
	if cores <= 0 {
		return nil, fmt.Errorf("admitd: %d cores", cores)
	}
	if cores > maxSessionCores {
		return nil, fmt.Errorf("admitd: %d cores exceeds the limit of %d per session", cores, maxSessionCores)
	}
	st.shrink(int64(st.maxSessions) - 1)
	sh := st.shardFor(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.m[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrSessionExists, name)
	}
	if st.plane != nil && st.plane.lookup(name) != nil {
		return nil, fmt.Errorf("%w: %q (durable)", ErrSessionExists, name)
	}
	model = overhead.Normalize(model)
	s := newSession(name, p, model, task.NewAssignment(cores), st.coll, st.met)
	if st.plane != nil {
		// The create record is appended and committed before the
		// session becomes reachable: an acked create survives a crash.
		modelJSON, err := json.Marshal(model)
		if err != nil {
			s.close()
			return nil, err
		}
		stream, ent, l, err := st.plane.create(name, cores, policyName(p), modelJSON)
		if err != nil {
			s.close()
			return nil, err
		}
		s.attachWal(st.plane, l, stream, ent, 0)
	}
	st.touch(s)
	sh.m[name] = s
	st.count.Add(1)
	st.created.Add(1)
	return s, nil
}

// Get returns a live session, restoring it when the store is durable
// and the name is not live: from its checkpoint and commit-log tail if
// it was evicted, from the state the open-time scan folded if this is
// its first touch since a restart. The shard lock is held throughout,
// ordering the restore against a checkpoint carried for the name.
func (st *Store) Get(name string) (*Session, error) {
	sh := st.shardFor(name)
	sh.mu.Lock()
	if s, ok := sh.m[name]; ok {
		st.touch(s)
		sh.mu.Unlock()
		return s, nil
	}
	if st.plane == nil {
		sh.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrSessionNotFound, name)
	}
	// Durable restore: latest checkpoint record + commit-log tail
	// (restoreDurable attaches the WAL stream).
	s, err := st.restoreDurable(name)
	if err != nil {
		sh.mu.Unlock()
		return nil, err
	}
	st.touch(s)
	sh.m[name] = s
	st.count.Add(1)
	st.restored.Add(1)
	sh.mu.Unlock()
	st.shrink(int64(st.maxSessions)) // restoring may push past the cap
	return s, nil
}

// Delete closes and forgets a session. With the durability plane, the
// actor drains first, then the tombstone record retires the generation
// (committed per the plane's policy) — recovery will never resurrect
// the name, and recreating it opens a fresh generation. The tombstone
// is appended under the shard lock, after any checkpoint a round
// carried for the name: no checkpoint record can outlive it.
func (st *Store) Delete(name string) error {
	sh := st.shardFor(name)
	sh.mu.Lock()
	s, found := sh.m[name]
	if found {
		delete(sh.m, name)
		st.count.Add(-1)
	}
	sh.mu.Unlock()
	if s != nil {
		s.close()
	}
	if st.plane != nil {
		sh.mu.Lock()
		found = st.plane.delete(name) || found
		sh.mu.Unlock()
	}
	if !found {
		return fmt.Errorf("%w: %q", ErrSessionNotFound, name)
	}
	st.deleted.Add(1)
	return nil
}

// shrink evicts least-recently-used sessions until at most n are live.
func (st *Store) shrink(n int64) {
	for st.count.Load() > n && st.evictOne() {
	}
}

// evictOne removes the least-recently-used session: checkpoint (when
// durable), close, forget. Reports whether anything was evicted.
func (st *Store) evictOne() bool {
	var victim *Session
	var victimShard *storeShard
	best := int64(1<<62 - 1)
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		for _, s := range sh.m {
			if lu := s.lastUsed.Load(); lu < best {
				best, victim, victimShard = lu, s, sh
			}
		}
		sh.mu.Unlock()
	}
	if victim != nil && st.evict(victimShard, victim) {
		st.evicted.Add(1)
	}
	return victim != nil
}

// evict removes a session from its shard — unless someone else already
// has — then, under the shard lock, appends its checkpoint record on its
// actor and stops it: a restore of the name waits for its last append,
// and no carried checkpoint lands after it. One that cannot be appended
// loses nothing (the log holds every mutation) but is counted. The wait
// for the last append's fsync handoff comes after the unlock.
func (st *Store) evict(sh *storeShard, s *Session) bool {
	sh.mu.Lock()
	if cur, ok := sh.m[s.name]; !ok || cur != s {
		sh.mu.Unlock()
		return false
	}
	delete(sh.m, s.name)
	st.count.Add(-1)
	var err error
	if st.plane != nil && s.call(func() { err = s.checkpointLocked() }) == nil && err != nil {
		st.plane.noteError()
	}
	s.stop()
	sh.mu.Unlock()
	s.close()
	return true
}

// Range calls f on every live session (no particular order).
func (st *Store) Range(f func(*Session)) {
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		live := make([]*Session, 0, len(sh.m))
		for _, s := range sh.m {
			live = append(live, s)
		}
		sh.mu.Unlock()
		for _, s := range live {
			f(s)
		}
	}
}

// Close stops all actors — the graceful-shutdown path. With the
// durability plane it is a last checkpoint round: the periodic driver
// stops, the logs rotate, every session appends its checkpoint as it
// closes, evicted streams are carried, the logs compact down to the
// checkpoints, and the shard logs close (flushing and syncing their
// tails).
func (st *Store) Close() {
	st.stopCheckpoints()
	var fresh [walShards]uint64
	if st.plane != nil {
		fresh = st.plane.rotate()
	}
	st.Range(func(s *Session) { st.evict(st.shardFor(s.name), s) })
	if st.plane != nil {
		_ = st.checkpointStreams(fresh) //nolint:errcheck // counted as wal errors
		st.plane.compact()
		st.plane.closeLogs()
	}
}

// stopCheckpoints halts the periodic checkpoint driver (idempotent).
func (st *Store) stopCheckpoints() {
	if st.ckptStop == nil {
		return
	}
	st.ckptOnce.Do(func() {
		close(st.ckptStop)
		<-st.ckptDone
		st.ckptTick.Stop()
	})
}
