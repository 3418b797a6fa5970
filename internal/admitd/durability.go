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
// let the log compact. Recovery is checkpoint + stream tail, and the
// tail is folded while the log is being verified: a restart reads the
// commit log once (openWalPlane). The restored context is cold, so
// decisions are bit-identical to the stateless analyzer, exactly the
// existing snapshot-restore contract.
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

// errUnrecoverable marks a session whose durable state cannot be
// rebuilt — a damaged checkpoint, an undecodable or gapped commit-log
// tail. The daemon's fault, never the caller's: answered 500.
var errUnrecoverable = errors.New("admitd: session unrecoverable")

// ErrSeqGap: a generation's commit-log records do not continue its
// state densely (seq+1 per mutation) — an append failed and later
// records landed on a base the log does not describe. Recovery refuses
// the session rather than rebuild a state nobody acknowledged.
var ErrSeqGap = fmt.Errorf("%w: commit-log sequence gap", errUnrecoverable)

// errWalStop aborts a replay early once the caller has what it needs.
var errWalStop = errors.New("admitd: wal replay stop")

// seqEnd is the replay limit of a full restore: past every sequence.
const seqEnd = int64(1) << 62

// streamState tracks one session name's durable stream. gen and
// deleted are guarded by walPlane.mu; the sequence watermarks are
// atomics so the session actor and the compaction coverage check
// never contend on the plane lock.
type streamState struct {
	gen     uint64
	deleted bool
	ckptSeq atomic.Int64 // highest seq the on-disk checkpoint covers; -1 none
	lastSeq atomic.Int64 // highest seq appended for the live generation

	// What the open-time scan left for this generation (walPlane.mu):
	// recovered is its state at the log's last record, an in-memory
	// checkpoint (Seq/Gen stamped) that the first restore takes as its
	// base; poison is why it cannot be restored at all. ckptErr is a
	// checkpoint file of this name that could not be read — its
	// generation is unknown, so it may have been this one's.
	recovered *sessionSnapshot
	poison    error
	ckptErr   error
}

func newStreamState(gen uint64, ckptSeq, lastSeq int64) *streamState {
	e := &streamState{gen: gen}
	e.ckptSeq.Store(ckptSeq)
	e.lastSeq.Store(lastSeq)
	return e
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

	// Recovery summary across all shards (the admitd_wal_recover*
	// gauges): records the scan kept, segment files it cut or dropped,
	// bytes that went with them.
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
// independently — and reads each log once: the checkpoint stamps are
// loaded first, then the log's own verifying scan hands every record
// it keeps to recoverRecord, which maintains the stream registry and
// folds each live generation's tail onto its checkpoint. What is left
// per stream is its state at the log's last record; sessions are
// still instantiated lazily, on their first Get.
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
	if err := p.loadCheckpointStamps(); err != nil {
		return nil, err
	}
	onFsync := func(d time.Duration) {
		if m := p.met.Load(); m != nil {
			m.walFsyncLat.Observe(d)
		}
	}
	for i := range p.logs {
		dir := filepath.Join(dataDir, "wal", fmt.Sprintf("shard-%02d", i))
		l, rec, err := wal.Open(wal.Options{Dir: dir, Policy: logPolicy, OnFsync: onFsync, OnRecover: p.recoverRecord})
		if err != nil {
			p.closeLogs()
			return nil, fmt.Errorf("admitd: wal shard %d: %w", i, err)
		}
		p.logs[i] = l
		p.recoveredRecords += rec.Records
		if rec.Truncated {
			p.truncatedSegments += rec.DroppedSegments
			if _, err := os.Stat(filepath.Join(dir, rec.File)); err == nil {
				p.truncatedSegments++ // the cut segment kept its valid prefix
			}
			p.droppedBytes += rec.DroppedBytes
		}
	}
	// Only the log's end settles a stream: the records of one deleted
	// later come before its tombstone. A refusal counts if it stood to
	// the end; a checkpoint that outlived its stream's tombstone (the
	// delete crashed before removing it) goes now, or it would bring the
	// session back once the tombstone is compacted away.
	for name, e := range p.streams {
		if e.poison != nil && !e.deleted {
			p.noteError()
		}
		if e.deleted && e.ckptSeq.Load() >= 0 {
			_ = os.Remove(snapshotPath(p.ckptDir, name))
		}
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

// loadCheckpointStamps seeds the registry from the checkpoint files
// before the log is scanned: the scan needs every stream's watermark
// (records at or below it are covered), but the state of only those
// that turn out to have a tail, so just the stamp is decoded here. A
// checkpoint newer than every surviving record (the whole stream was
// compacted away) thus re-establishes the stream by itself; a stale
// one (older generation — delete raced a crash before the file was
// removed) gives way to the first record of a newer generation.
func (p *walPlane) loadCheckpointStamps() error {
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
		seq, gen, err := readStamp(p.ckptDir, name)
		if err != nil {
			// Whose generation it was is unknown. With the stream still
			// whole in the log it recovers from there; otherwise the name
			// stays taken and answers with this error.
			p.noteError()
			e := newStreamState(0, -1, -1)
			e.ckptErr = fmt.Errorf("%w: %w", errUnrecoverable, err)
			e.poison = e.ckptErr
			p.streams[name] = e
			continue
		}
		if gen != 0 { // else a pre-durability snapshot: not WAL-tracked
			p.streams[name] = newStreamState(gen, seq, seq)
		}
	}
	return nil
}

// recoverRecord is the log's OnRecover callback: every record the
// open-time scan keeps, in log order. It does the two jobs a restart
// needs of the log in that one pass. The registry: per name the
// highest generation wins, within it the highest sequence and the
// tombstone. The fold: a live generation's records above its
// checkpoint watermark are applied, in order, onto its state.
//
// Only I/O-grade trouble fails the open (a malformed stream key: the
// log is not ours). Anything wrong with one stream's records poisons
// that stream alone; its Get reports it, the others recover.
func (p *walPlane) recoverRecord(r wal.Record) error {
	name, gen, ok := parseStreamKey(r.Stream)
	if !ok {
		return fmt.Errorf("admitd: wal: malformed stream key %q", r.Stream)
	}
	e := p.streams[name]
	switch {
	case e == nil || gen > e.gen:
		ne := newStreamState(gen, -1, r.Seq)
		if e != nil {
			ne.ckptErr = e.ckptErr
		}
		e = ne
		p.streams[name] = e
	case gen < e.gen:
		return nil // retired generation, awaiting compaction
	}
	if r.Seq > e.lastSeq.Load() {
		e.lastSeq.Store(r.Seq)
	}
	if len(r.Payload) > 0 && r.Payload[0] == walKindDelete {
		e.deleted = true
		e.recovered, e.poison = nil, nil
		return nil
	}
	if r.Seq <= e.ckptSeq.Load() || e.deleted || e.poison != nil {
		return nil
	}
	if err := p.fold(name, e, r); err != nil {
		e.recovered, e.poison = nil, err
	}
	return nil
}

// fold applies one tail record onto the generation's recovered state,
// loading the checkpoint as the base on the first one.
func (p *walPlane) fold(name string, e *streamState, r wal.Record) error {
	last := e.ckptSeq.Load()
	if e.recovered != nil {
		last = e.recovered.Seq
	} else if last >= 0 {
		snap, err := readSnapshot(p.ckptDir, name)
		if err == nil && (snap == nil || snap.Gen != e.gen || snap.Seq != last) {
			err = fmt.Errorf("admitd: checkpoint %s changed during recovery", snapshotPath(p.ckptDir, name))
		}
		if err != nil {
			return fmt.Errorf("%w: %w", errUnrecoverable, err)
		}
		e.recovered = snap
	}
	if err := foldRecord(name, &e.recovered, last, r); err != nil {
		if e.ckptErr != nil && errors.Is(err, ErrSeqTruncated) {
			// The records below this one went with a checkpoint that
			// covered them: the one that cannot be read.
			return e.ckptErr
		}
		if !errors.Is(err, errUnrecoverable) { // a gap already is
			err = fmt.Errorf("%w: %w", errUnrecoverable, err)
		}
		return err
	}
	e.recovered.Seq, e.recovered.Gen = r.Seq, e.gen
	return nil
}

// takeRecovered hands over what the open-time scan left for a
// generation: its folded state — once; the restored session owns it
// from here — or the reason it cannot be restored.
func (p *walPlane) takeRecovered(e *streamState) (*sessionSnapshot, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	base := e.recovered
	e.recovered = nil
	return base, e.poison
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
	ne := newStreamState(gen, -1, 0)
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
	e.recovered = nil
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
		sum.ReadBytes += s.ReadBytes
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

// foldRecord applies one stream record onto the state at sequence
// last — the one place a logged mutation becomes session state, for
// the open-time scan and request-time replays alike. Sequence numbers
// are dense per generation, so with a base in hand the record must be
// last+1.
func foldRecord(name string, base **sessionSnapshot, last int64, r wal.Record) error {
	if *base != nil && r.Seq != last+1 {
		return fmt.Errorf("%w: stream %q: seq %d follows %d", ErrSeqGap, r.Stream, r.Seq, last)
	}
	rec, err := walDecode(r.Payload)
	if err != nil {
		return fmt.Errorf("stream %q seq %d: %w", r.Stream, r.Seq, err)
	}
	return applyWalRecord(name, base, &rec)
}

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
	base, lastSeq, err := st.replayToSeq(name, e, seqEnd)
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

// replayToSeq reconstructs a session snapshot at the last mutation
// with seq < limit: a base plus stream replay. The base is the
// checkpoint file (only if it does not overshoot the limit) or, for a
// full restore after a restart, the in-memory checkpoint the open-time
// scan folded — that one sits at the log's last record, so the replay
// on top of it finds no segment to read. Returns the snapshot and the
// highest sequence folded in.
func (st *Store) replayToSeq(name string, e *streamState, limit int64) (*sessionSnapshot, int64, error) {
	p := st.plane
	var base *sessionSnapshot
	var ckptErr error
	if limit == seqEnd {
		var err error
		if base, err = p.takeRecovered(e); err != nil {
			return nil, 0, err
		}
	}
	if base == nil {
		snap, err := readSnapshot(p.ckptDir, name)
		if err != nil {
			p.noteError()
			ckptErr = err
		} else if snap != nil && snap.Gen == e.gen && snap.Seq < limit {
			base = snap
		}
	}
	lastSeq := int64(-1)
	if base != nil {
		lastSeq = base.Seq
	}
	err := p.logFor(name).ReplayStream(streamKey(name, e.gen), lastSeq, func(r wal.Record) error {
		if r.Seq >= limit {
			return errWalStop
		}
		if ferr := foldRecord(name, &base, lastSeq, r); ferr != nil {
			return ferr
		}
		lastSeq = r.Seq
		return nil
	})
	if base == nil && ckptErr != nil {
		// Without the checkpoint the log alone no longer reaches this
		// state: say which file, not that the caller asked too far back.
		return nil, 0, fmt.Errorf("%w: %w", errUnrecoverable, ckptErr)
	}
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
