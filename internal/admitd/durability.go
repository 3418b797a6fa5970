package admitd

import (
	"errors"
	"fmt"
	"hash/fnv"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/api"
	"repro/internal/analysis"
	"repro/internal/report"
	"repro/internal/task"
	"repro/internal/wal"
)

// The durability plane: a per-store-shard write-ahead commit log
// (internal/wal) recording every committed session mutation, plus
// periodic checkpoints (the existing sessionSnapshot, stamped with
// the durable sequence number it covers) that bound replay work and
// let the log compact. Recovery loads the newest gen-matched
// checkpoint and replays the stream tail — the restored context is
// cold, so decisions are bit-identical to the stateless analyzer,
// exactly the existing snapshot-restore contract.
//
// Stream naming: one WAL stream per session *generation* —
// url.PathEscape(name) + "/" + gen — so deleting a session and
// recreating the name never splices two histories. A delete appends
// a tombstone record and retires the generation; the next create
// opens gen+1. Sequence numbers are dense per generation: the create
// record is seq 0 and every committed mutation is seqBase+CommitSeq,
// so a feed resume can verify gaplessness by counting.
//
// What is NOT replayed: rejected-probe counters and state-cache
// counters reset to their checkpoint values after a crash (rejections
// do not mutate committed state, so they are not logged).

// ErrSeqTruncated: a replay request (feed from_seq, audit seq)
// reaches before the commit log's retained window — checkpoint
// compaction removed it — or the session has no commit log at all.
var ErrSeqTruncated = errors.New("admitd: sequence range predates the retained commit log")

// errWalStop aborts a replay early once the caller has what it needs.
var errWalStop = errors.New("admitd: wal replay stop")

// streamState tracks one session name's durable stream. gen and
// deleted are guarded by walPlane.mu; the sequence watermarks are
// atomics so the session actor and the compaction coverage check
// never contend on the plane lock.
type streamState struct {
	gen     uint64
	deleted bool
	ckptSeq atomic.Int64 // highest seq the on-disk checkpoint covers; -1 none
	lastSeq atomic.Int64 // highest seq appended for the live generation
}

// walShards stripes sessions over physical commit-log files. It is
// deliberately decoupled from the session map's numShards and
// deliberately 1: the cost that dominates a durable ack is the
// fsync, whose CPU burn is per *file* — with one log, every drain
// committing in a sync window shares a single fsync, while sixteen
// logs would pay sixteen. Append-path mutex contention on the single
// log is microseconds per record and nowhere near the bottleneck;
// hosts with parallel-flush storage can raise this.
const walShards = 1

// walPlane owns the store's commit logs (walShards segmented logs,
// fnv-striped by session name), the per-name stream registry, and
// the checkpoint directory.
type walPlane struct {
	dir     string // DataDir
	ckptDir string
	policy  wal.SyncPolicy
	logs    [walShards]*wal.Log

	// syncOnDrain: acks wait for the covering fsync (always policy).
	// The session actor hands each drain's completion tokens to an
	// async commit pipeline so it never blocks on the device itself.
	syncOnDrain bool

	// group batches ack-path fsyncs across actors (always policy
	// only): concurrent drains committing at the same time share one
	// fsync instead of each paying its own device sync.
	group *wal.GroupSync

	// The group policy's background committer: fsyncs dirty logs once
	// per interval, so an acked write is on the device within ~one
	// interval of the ack (the bounded-loss contract).
	syncStop chan struct{}
	syncDone chan struct{}

	// met is installed by Server.New after the store (and plane)
	// exist; the fsync-latency hook loads it atomically.
	met atomic.Pointer[serverMetrics]

	mu      sync.Mutex
	streams map[string]*streamState

	// encMu guards encBuf, the recycled create/tombstone record
	// scratch (wal.Log.Append copies the payload into its group
	// buffer synchronously, so the scratch is free again on return).
	encMu  sync.Mutex
	encBuf []byte

	// Recovery summary across all shards (surfaced as metrics).
	recoveredRecords  uint64
	truncatedSegments int
	droppedBytes      int64

	appendedBytes atomic.Int64
	checkpoints   atomic.Int64
	walErrors     atomic.Int64
}

func shardIndex(name string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(name))
	return h.Sum32() % walShards
}

// streamKey names one session generation's WAL stream.
func streamKey(name string, gen uint64) string {
	return url.PathEscape(name) + "/" + strconv.FormatUint(gen, 10)
}

// parseStreamKey inverts streamKey.
func parseStreamKey(key string) (name string, gen uint64, ok bool) {
	i := len(key) - 1
	for i >= 0 && key[i] != '/' {
		i--
	}
	if i < 0 {
		return "", 0, false
	}
	gen, err := strconv.ParseUint(key[i+1:], 10, 64)
	if err != nil {
		return "", 0, false
	}
	name, err = url.PathUnescape(key[:i])
	if err != nil {
		return "", 0, false
	}
	return name, gen, true
}

// openWalPlane opens (or creates) the data directory: walShards
// segmented logs under wal/shard-NN, checkpoints under checkpoints/.
// Recovery runs per log — each truncates at its last valid record
// independently — and the stream registry is rebuilt by scanning
// every surviving record, then reconciled against the checkpoint
// files.
//
// The plane maps the admission policies onto the log:
//
//   - always: appends buffer; every commit boundary (drain, create,
//     delete) fsyncs — batched across actors by a GroupSync — before
//     the ack releases. Durable-on-ack.
//   - group: appends buffer; a background committer fsyncs dirty logs
//     once per window. Acks release at apply time; a crash loses at
//     most ~one window of acked writes, never consistency (the CRC
//     framing truncates any torn tail). The synchronous_commit=off /
//     appendfsync-everysec tier.
//   - off: appends buffer; flushes ride segment rolls and Close. The
//     OS decides when bytes reach the device.
func openWalPlane(dataDir string, policy wal.SyncPolicy, window time.Duration) (*walPlane, error) {
	p := &walPlane{
		dir:     dataDir,
		ckptDir: filepath.Join(dataDir, "checkpoints"),
		policy:  policy,
		streams: make(map[string]*streamState),
	}
	// The log's own per-append fsync mode is never used: the plane
	// owns the commit boundary. always/group both open buffered logs
	// (SyncGroup) and differ in who calls Sync and whether acks wait.
	logPolicy := wal.SyncGroup
	if policy == wal.SyncOff {
		logPolicy = wal.SyncOff
	}
	if policy == wal.SyncAlways {
		p.syncOnDrain = true
		p.group = wal.NewGroupSync(0)
	}
	if err := os.MkdirAll(p.ckptDir, 0o755); err != nil {
		return nil, err
	}
	onFsync := func(d time.Duration) {
		if m := p.met.Load(); m != nil {
			m.walFsyncLat.Observe(d)
		}
	}
	for i := range p.logs {
		dir := filepath.Join(dataDir, "wal", fmt.Sprintf("shard-%02d", i))
		l, rec, err := wal.Open(wal.Options{Dir: dir, Policy: logPolicy, OnFsync: onFsync})
		if err != nil {
			for j := 0; j < i; j++ {
				p.logs[j].Close()
			}
			return nil, fmt.Errorf("admitd: wal shard %d: %w", i, err)
		}
		p.logs[i] = l
		p.recoveredRecords += rec.Records
		if rec.Truncated {
			p.truncatedSegments++
			p.droppedBytes += rec.DroppedBytes + int64(rec.DroppedSegments)
		}
	}
	if err := p.scanStreams(); err != nil {
		p.closeLogs()
		return nil, err
	}
	if err := p.reconcileCheckpoints(); err != nil {
		p.closeLogs()
		return nil, err
	}
	if policy == wal.SyncGroup {
		p.syncStop = make(chan struct{})
		p.syncDone = make(chan struct{})
		go p.syncLoop(window)
	}
	return p, nil
}

// syncLoop is the group policy's background committer: once per
// window, flush and fsync every log with unsynced bytes (a clean log
// costs a mutex check). Cadence rides the runtime timer, so the
// effective floor is its resolution (~1ms on small virtualized
// hosts); the loss window is "about one interval", not an exact one.
func (p *walPlane) syncLoop(window time.Duration) {
	defer close(p.syncDone)
	tick := time.NewTicker(window)
	defer tick.Stop()
	for {
		select {
		case <-p.syncStop:
			return
		case <-tick.C:
			for _, l := range p.logs {
				if err := l.Sync(); err != nil {
					p.noteError()
				}
			}
		}
	}
}

// scanStreams rebuilds the stream registry from the surviving log
// records: per name, the highest generation wins; within it the
// highest sequence and the tombstone flag.
func (p *walPlane) scanStreams() error {
	for _, l := range p.logs {
		err := l.Replay(func(r wal.Record) error {
			name, gen, ok := parseStreamKey(r.Stream)
			if !ok {
				return fmt.Errorf("admitd: wal: malformed stream key %q", r.Stream)
			}
			e := p.streams[name]
			if e == nil || gen > e.gen {
				e = &streamState{gen: gen}
				e.ckptSeq.Store(-1)
				e.lastSeq.Store(r.Seq)
				p.streams[name] = e
			} else if gen < e.gen {
				return nil // retired generation, awaiting compaction
			}
			if r.Seq > e.lastSeq.Load() {
				e.lastSeq.Store(r.Seq)
			}
			if len(r.Payload) > 0 && r.Payload[0] == walKindDelete {
				e.deleted = true
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// reconcileCheckpoints folds the checkpoint files into the registry.
// A checkpoint newer than every surviving record (the whole stream
// was compacted away) re-establishes the stream; a stale one (older
// generation — delete raced a crash before the file was removed) is
// ignored, the generation check on the restore path guards it too.
func (p *walPlane) reconcileCheckpoints() error {
	ents, err := os.ReadDir(p.ckptDir)
	if err != nil {
		return err
	}
	for _, de := range ents {
		if de.IsDir() || filepath.Ext(de.Name()) != ".json" {
			continue
		}
		name, err := url.PathUnescape(de.Name()[:len(de.Name())-len(".json")])
		if err != nil {
			continue
		}
		snap, err := readSnapshot(p.ckptDir, name)
		if err != nil || snap == nil || snap.Gen == 0 {
			continue // unreadable or pre-durability snapshot: not WAL-tracked
		}
		e := p.streams[name]
		if e == nil || snap.Gen > e.gen {
			e = &streamState{gen: snap.Gen}
			e.ckptSeq.Store(snap.Seq)
			e.lastSeq.Store(snap.Seq)
			p.streams[name] = e
			continue
		}
		if snap.Gen == e.gen {
			e.ckptSeq.Store(snap.Seq)
			if snap.Seq > e.lastSeq.Load() {
				e.lastSeq.Store(snap.Seq)
			}
		}
	}
	return nil
}

func (p *walPlane) logFor(name string) *wal.Log {
	return p.logs[shardIndex(name)]
}

// commitLog closes one commit boundary on a shard log, as durably as
// the policy promises: always routes through the cross-actor fsync
// batcher (the caller's ack waits on it), group and off just flush to
// the OS — the background committer (group) or the OS (off) takes it
// from there.
func (p *walPlane) commitLog(l *wal.Log) error {
	if p.group != nil {
		return p.group.Commit(l)
	}
	return l.Flush()
}

// lookup returns the live stream entry for a name (nil if the name
// was never created, or only a retired generation remains).
func (p *walPlane) lookup(name string) *streamState {
	p.mu.Lock()
	defer p.mu.Unlock()
	e := p.streams[name]
	if e == nil || e.deleted {
		return nil
	}
	return e
}

// exists reports whether a live (non-deleted) stream holds the name.
func (p *walPlane) exists(name string) bool {
	return p.lookup(name) != nil
}

// create opens the next generation for a name: the create record
// (seq 0) is appended and committed per the plane's policy (always:
// fsynced before the caller acks; group: flushed, on the device
// within a sync window). Returns the stream key, the registry entry,
// and the shard log the session will append to.
func (p *walPlane) create(name string, cores int, policy string, modelJSON []byte) (string, *streamState, *wal.Log, error) {
	p.mu.Lock()
	e := p.streams[name]
	if e != nil && !e.deleted {
		p.mu.Unlock()
		return "", nil, nil, fmt.Errorf("%w: %q", ErrSessionExists, name)
	}
	gen := uint64(1)
	if e != nil {
		gen = e.gen + 1
	}
	ne := &streamState{gen: gen}
	ne.ckptSeq.Store(-1)
	p.streams[name] = ne
	p.mu.Unlock()

	key := streamKey(name, gen)
	l := p.logFor(name)
	p.encMu.Lock()
	payload := walEncodeCreate(p.encBuf[:0], cores, policy, modelJSON)
	_, err := l.Append(key, 0, payload)
	n := len(payload)
	p.encBuf = payload
	p.encMu.Unlock()
	if err != nil {
		p.noteError()
		return "", nil, nil, err
	}
	p.appendedBytes.Add(int64(n))
	if err := p.commitLog(l); err != nil {
		p.noteError()
		return "", nil, nil, err
	}
	return key, ne, l, nil
}

// delete retires a name's live generation: tombstone record
// (committed per the plane's policy, like create), checkpoint file
// removed, registry entry marked deleted so coverage lets the whole
// stream compact away. Reports whether a live generation existed.
func (p *walPlane) delete(name string) bool {
	p.mu.Lock()
	e := p.streams[name]
	if e == nil || e.deleted {
		p.mu.Unlock()
		return false
	}
	gen := e.gen
	seq := e.lastSeq.Load() + 1
	e.deleted = true
	e.lastSeq.Store(seq)
	p.mu.Unlock()

	l := p.logFor(name)
	p.encMu.Lock()
	payload := walEncodeDelete(p.encBuf[:0])
	_, err := l.Append(streamKey(name, gen), seq, payload)
	p.encBuf = payload
	p.encMu.Unlock()
	if err != nil {
		p.noteError()
	} else if err := p.commitLog(l); err != nil {
		p.noteError()
	}
	p.appendedBytes.Add(1)
	_ = os.Remove(snapshotPath(p.ckptDir, name))
	return true
}

// setCkpt advances a stream's checkpoint watermark after its
// snapshot file landed (fsynced) on disk.
func (p *walPlane) setCkpt(name string, gen uint64, seq int64) {
	p.mu.Lock()
	e := p.streams[name]
	p.mu.Unlock()
	if e == nil || e.gen != gen {
		return
	}
	e.ckptSeq.Store(seq)
	p.checkpoints.Add(1)
}

// covered is the compaction coverage predicate: every record of a
// retired generation is disposable, a live generation's records are
// disposable up to its checkpoint watermark. Unknown streams are
// conservatively retained.
func (p *walPlane) covered(stream string, maxSeq int64) bool {
	name, gen, ok := parseStreamKey(stream)
	if !ok {
		return false
	}
	p.mu.Lock()
	e := p.streams[name]
	p.mu.Unlock()
	if e == nil {
		return false
	}
	if gen < e.gen || e.deleted {
		return true
	}
	if gen > e.gen {
		return false
	}
	return e.ckptSeq.Load() >= maxSeq
}

// compact rotates and prefix-compacts every shard log.
func (p *walPlane) compact() {
	for _, l := range p.logs {
		if err := l.Rotate(); err != nil {
			p.noteError()
			continue
		}
		if _, err := l.Compact(p.covered); err != nil {
			p.noteError()
		}
	}
}

// stats sums the shard logs' counters (scrape path).
func (p *walPlane) stats() wal.Stats {
	var sum wal.Stats
	for _, l := range p.logs {
		s := l.Stats()
		sum.Segments += s.Segments
		sum.Bytes += s.Bytes
		sum.Appends += s.Appends
		sum.Fsyncs += s.Fsyncs
	}
	return sum
}

// streamCounts samples the registry (scrape path): live streams and
// how many of them have a checkpoint on disk.
func (p *walPlane) streamCounts() (live, checkpointed int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, e := range p.streams {
		if e.deleted {
			continue
		}
		live++
		if e.ckptSeq.Load() >= 0 {
			checkpointed++
		}
	}
	return live, checkpointed
}

func (p *walPlane) noteError() {
	p.walErrors.Add(1)
	if m := p.met.Load(); m != nil {
		m.walErrors.Inc()
	}
}

func (p *walPlane) closeLogs() {
	if p.syncStop != nil {
		close(p.syncStop)
		<-p.syncDone
		p.syncStop = nil
	}
	for _, l := range p.logs {
		if l != nil {
			l.Close()
		}
	}
}

// --- replay ----------------------------------------------------------

// applyWalRecord folds one decoded mutation into a session snapshot
// under construction. base starts nil when replay begins before the
// create record; a mutation arriving with no base means the prefix
// (create record included) was compacted past the requested point.
func applyWalRecord(name string, base **sessionSnapshot, rec *walRec) error {
	if rec.kind == walKindCreate {
		*base = &sessionSnapshot{
			Name:   name,
			Cores:  int(rec.cores),
			Policy: rec.policy,
			Model:  rec.model,
		}
		return nil
	}
	s := *base
	if s == nil {
		return fmt.Errorf("%w: replay reached a mutation before any base state", ErrSeqTruncated)
	}
	switch rec.kind {
	case walKindAdmit:
		t := rec.task
		t.Core = int(rec.core)
		s.Tasks = append(s.Tasks, t)
		s.Admitted++
	case walKindSplit:
		s.Splits = append(s.Splits, rec.split)
		s.Admitted++
	case walKindRemove:
		if !snapshotRemove(s, rec.id) {
			return fmt.Errorf("admitd: wal replay: remove of unknown task %d", rec.id)
		}
		s.Removed++
	case walKindDelete:
		return fmt.Errorf("admitd: wal replay: tombstone in a live stream")
	default:
		return fmt.Errorf("admitd: wal replay: unknown record kind %d", rec.kind)
	}
	return nil
}

// snapshotRemove deletes a task (or split) by ID from the snapshot,
// preserving order (placement order is the restore contract).
func snapshotRemove(s *sessionSnapshot, id int64) bool {
	for i := range s.Tasks {
		if s.Tasks[i].ID == id {
			s.Tasks = append(s.Tasks[:i], s.Tasks[i+1:]...)
			return true
		}
	}
	for i := range s.Splits {
		if s.Splits[i].Task.ID == id {
			s.Splits = append(s.Splits[:i], s.Splits[i+1:]...)
			return true
		}
	}
	return false
}

// restoreDurable rebuilds a session from the durability plane:
// newest gen-matched checkpoint (if any) plus the stream tail.
func (st *Store) restoreDurable(name string) (*Session, error) {
	e := st.plane.lookup(name)
	if e == nil {
		return nil, fmt.Errorf("%w: %q", ErrSessionNotFound, name)
	}
	base, lastSeq, err := st.replayToSeq(name, e, 1<<62)
	if err != nil {
		return nil, err
	}
	if base == nil {
		return nil, fmt.Errorf("admitd: session %q: no checkpoint and no create record (log truncated?)", name)
	}
	s, err := restoreSession(base, st.coll, st.met)
	if err != nil {
		return nil, err
	}
	if reg := e.lastSeq.Load(); reg > lastSeq {
		lastSeq = reg
	}
	s.attachWal(st.plane, st.plane.logFor(name), streamKey(name, e.gen), e.gen, e, lastSeq)
	return s, nil
}

// replayToSeq reconstructs a session snapshot at sequence limit-1 ...
// well, at the last mutation with seq < limit: checkpoint base (only
// if it does not overshoot the limit) plus stream replay. Returns the
// snapshot and the highest sequence folded in.
func (st *Store) replayToSeq(name string, e *streamState, limit int64) (*sessionSnapshot, int64, error) {
	var base *sessionSnapshot
	baseSeq := int64(-1)
	if snap, err := readSnapshot(st.plane.ckptDir, name); err == nil && snap != nil &&
		snap.Gen == e.gen && snap.Seq < limit {
		base, baseSeq = snap, snap.Seq
	}
	lastSeq := baseSeq
	err := st.plane.logFor(name).ReplayStream(streamKey(name, e.gen), baseSeq, func(r wal.Record) error {
		if r.Seq >= limit {
			return errWalStop
		}
		rec, derr := walDecode(r.Payload)
		if derr != nil {
			return derr
		}
		if aerr := applyWalRecord(name, &base, &rec); aerr != nil {
			return aerr
		}
		lastSeq = r.Seq
		return nil
	})
	if err != nil && !errors.Is(err, errWalStop) {
		return nil, 0, err
	}
	return base, lastSeq, nil
}

// --- checkpointing ---------------------------------------------------

// Checkpoint snapshots every live session to the checkpoint
// directory (fsynced, rename-atomic), advances the coverage
// watermarks, then rotates and prefix-compacts the shard logs.
// Sessions holding a two-phase probe are skipped this round — their
// committed state is checkpointed next time — and evicted or closed
// sessions are checkpointed on their own exit path anyway.
func (st *Store) Checkpoint() error {
	if st.plane == nil {
		return nil
	}
	var firstErr error
	st.Range(func(s *Session) {
		var snap *sessionSnapshot
		var serr error
		err := s.call(func() {
			if s.pendKind != pendNone || s.wlog == nil {
				return
			}
			snap, serr = s.snapshotLocked()
		})
		if err != nil || serr != nil || snap == nil {
			if firstErr == nil && serr != nil {
				firstErr = serr
			}
			return
		}
		if werr := writeSnapshot(st.plane.ckptDir, snap); werr != nil {
			st.plane.noteError()
			if firstErr == nil {
				firstErr = werr
			}
			return
		}
		st.plane.setCkpt(snap.Name, snap.Gen, snap.Seq)
		if m := st.met; m != nil {
			m.walCheckpoints.Inc()
		}
	})
	st.plane.compact()
	return firstErr
}

// checkpointLoop drives periodic checkpoint + compaction until the
// store closes.
func (st *Store) checkpointLoop() {
	defer close(st.ckptDone)
	for {
		select {
		case <-st.ckptTick.C:
			_ = st.Checkpoint() //nolint:errcheck // surfaced via wal error metrics
		case <-st.ckptStop:
			return
		}
	}
}

// --- audit -----------------------------------------------------------

// Audit answers "why did mutation seq commit?": the session is
// rebuilt at seq-1 (checkpoint + replay), the logged mutation is
// re-run cold — fresh context, fresh counters — and the probe's
// verdict and admission counters are reported. Works against live,
// evicted, and crashed-and-recovered sessions alike: only the log
// and the checkpoint are consulted.
func (st *Store) Audit(name string, seq int64) (*api.AuditReport, error) {
	if st.plane == nil {
		return nil, &api.Error{Code: api.CodeSeqTruncated,
			Message: "admitd: audit needs durability (start with -data-dir)"}
	}
	if seq < 1 {
		return nil, fmt.Errorf("admitd: audit seq must be >= 1")
	}
	e := st.plane.lookup(name)
	if e == nil {
		return nil, fmt.Errorf("%w: %q", ErrSessionNotFound, name)
	}
	base, lastSeq, err := st.replayToSeq(name, e, seq)
	if err != nil {
		return nil, err
	}
	if base == nil {
		return nil, fmt.Errorf("%w: seq %d (base state compacted)", ErrSeqTruncated, seq)
	}
	if lastSeq != seq-1 {
		if seq <= e.ckptSeq.Load() {
			return nil, fmt.Errorf("%w: seq %d (checkpoint is at %d)", ErrSeqTruncated, seq, e.ckptSeq.Load())
		}
		return nil, fmt.Errorf("admitd: audit: records (%d, %d) missing from the log", lastSeq, seq)
	}
	// Fetch the target record itself.
	var target *walRec
	err = st.plane.logFor(name).ReplayStream(streamKey(name, e.gen), seq-1, func(r wal.Record) error {
		if r.Seq != seq {
			return errWalStop
		}
		rec, derr := walDecode(r.Payload)
		if derr != nil {
			return derr
		}
		target = &rec
		return errWalStop
	})
	if err != nil && !errors.Is(err, errWalStop) {
		return nil, err
	}
	if target == nil {
		return nil, fmt.Errorf("admitd: audit: no record at seq %d (session is at %d)", seq, e.lastSeq.Load())
	}
	return auditReplay(name, seq, base, target)
}

// auditReplay re-runs one logged mutation against the rebuilt base
// state on a cold analysis context.
func auditReplay(name string, seq int64, base *sessionSnapshot, rec *walRec) (*api.AuditReport, error) {
	p, model, a, err := buildAssignment(base)
	if err != nil {
		return nil, err
	}
	ctx := analysis.ForPolicy(p).NewContext(a, model)
	rep := &api.AuditReport{
		Name:  name,
		Seq:   seq,
		Op:    walOpName(rec.kind),
		Tasks: len(base.Tasks) + len(base.Splits),
		Core:  -1,
	}
	switch rec.kind {
	case walKindAdmit:
		t, terr := toTask(rec.task, p)
		if terr != nil {
			return nil, terr
		}
		rep.TaskID = rec.task.ID
		tcopy := rec.task
		tcopy.Core = int(rec.core)
		rep.Task = &tcopy
		rep.Admitted = ctx.TryPlace(t, int(rec.core))
		if rep.Admitted {
			rep.Core = int(rec.core)
			ctx.Commit()
		} else {
			ctx.Rollback()
		}
	case walKindSplit:
		sp, serr := toSplit(rec.split, p)
		if serr != nil {
			return nil, serr
		}
		rep.TaskID = rec.split.Task.ID
		tcopy := rec.split.Task
		rep.Task = &tcopy
		rep.Admitted = ctx.TrySplit(sp, sp.Parts[0].Core)
		if rep.Admitted {
			ctx.Commit()
		} else {
			ctx.Rollback()
		}
	case walKindRemove:
		rep.TaskID = rec.id
		rep.Admitted = ctx.Remove(task.ID(rec.id))
	default:
		return nil, fmt.Errorf("admitd: audit: record kind %d is not auditable", rec.kind)
	}
	rep.Schedulable = ctx.Schedulable()
	rep.Admission = report.AdmissionJSON(ctx.Stats())
	return rep, nil
}
