package admitd

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/api"
	"repro/internal/analysis"
	"repro/internal/task"
	"repro/internal/wal"
)

// The durability plane: the store's one write-ahead commit log
// (internal/wal), the one place state persists. A session's stream
// holds its committed mutations and its checkpoints: the whole state
// at the last mutation seq they cover. Recovery is one pass, rebasing
// each stream on its checkpoints and folding what follows, while the
// log is verified. Restored contexts are cold: decisions match the
// stateless analyzer bit for bit.
//
// One WAL stream per session *generation* — url.PathEscape(name) + "/"
// + gen — so deleting a session and recreating the name never splices
// two histories: a delete appends a tombstone, the next create opens
// gen+1. Sequence numbers are dense per generation (create = 0, each
// mutation seqBase+CommitSeq), so a replay verifies gaplessness by
// counting; a checkpoint shares the seq of the mutation it follows.
//
// Not logged, so reset to their checkpoint values by a crash: the
// rejected-probe and state-cache counters.

// ErrSeqTruncated: a replay request (an audit seq)
// reaches before the commit log's retained window — checkpoint
// compaction removed it — or the session has no commit log at all.
var ErrSeqTruncated = errors.New("admitd: sequence range predates the retained commit log")

// errUnrecoverable marks a session whose durable state cannot be
// rebuilt — an undecodable checkpoint or record, a gapped commit-log
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

// streamState tracks one session name's durable stream: gen, deleted
// and ckpt under walPlane.mu, the seq watermarks atomic.
type streamState struct {
	gen     uint64
	deleted bool
	ckptSeq atomic.Int64 // seq of the latest checkpoint record; -1 none
	lastSeq atomic.Int64 // highest seq appended for the live generation
	ckpt    wal.Pos      // where that checkpoint record sits

	// What the open-time scan left: the state at the log's last record,
	// the first restore's base, or why it cannot be restored.
	recovered *sessionSnapshot
	poison    error
}

func newStreamState(gen uint64, lastSeq int64) *streamState {
	e := &streamState{}
	e.reset(gen, lastSeq)
	return e
}

// reset makes e a fresh generation's entry, with no checkpoint. The
// open-time scan reuses a name's entry this way when a newer generation
// starts; nothing else holds entries then.
func (e *streamState) reset(gen uint64, lastSeq int64) {
	e.gen, e.deleted, e.ckpt, e.recovered, e.poison = gen, false, wal.Pos{}, nil, nil
	e.ckptSeq.Store(-1)
	e.lastSeq.Store(lastSeq)
}

// walPlane owns the store's commit log and the per-name stream
// registry. One log for every session: a durable ack is dominated by
// the fsync, whose cost is per file, so one log lets every drain
// waiting at once share one fsync.
type walPlane struct {
	log *wal.Log

	// syncOnDrain (always policy): acks wait for the covering fsync,
	// which the log's Sync shares across actors; the actor hands each
	// drain's completion tokens off so it never blocks on the device
	// itself.
	syncOnDrain bool

	// The group policy's background committer: fsyncs the log once
	// per interval, so an acked write is on the device within ~one
	// interval of the ack (the bounded-loss contract).
	syncStop chan struct{}
	syncDone chan struct{}

	// met is installed by Server.New after the store (and plane)
	// exist; the fsync-latency hook loads it atomically.
	met atomic.Pointer[serverMetrics]

	mu      sync.Mutex
	streams map[string]*streamState

	// encMu guards encBuf, the recycled create/tombstone scratch
	// (Append copies the payload, so it is free again on return).
	encMu  sync.Mutex
	encBuf []byte

	// Recovery summary (admitd_wal_recover* gauges).
	recoveredRecords  uint64
	recoveredCkpts    uint64
	truncatedSegments int
	droppedBytes      int64

	ckptRecords atomic.Int64 // checkpoint records appended, carried ones included
	carried     atomic.Int64 // checkpoint records re-appended by carry
	walErrors   atomic.Int64
}

// streamKey names one session generation's WAL stream.
func streamKey(name string, gen uint64) string {
	return url.PathEscape(name) + "/" + strconv.FormatUint(gen, 10)
}

// parseStreamKey inverts streamKey.
func parseStreamKey(key string) (name string, gen uint64, ok bool) {
	i := strings.LastIndexByte(key, '/')
	gen, err := strconv.ParseUint(key[i+1:], 10, 64)
	if i < 0 || err != nil {
		return "", 0, false
	}
	name, err = url.PathUnescape(key[:i])
	return name, gen, err == nil
}

// streamKeys memoizes the open-time scan's stream keys by the index the
// scan gave each (wal.Record.StreamIndex), so each distinct key is
// parsed once — to its session name, its generation and the name's
// registry entry — and a record costs a slot read, not a hash. A slot
// holding another key is parsed afresh. The entry's own gen
// says whether the key is still the live generation (equal), a newer
// one (the entry is reset to it) or a retired one (lower).
type streamKeys []parsedKey

type parsedKey struct {
	key  string // the stream key; "" in an unused slot
	name string
	gen  uint64
	e    *streamState
}

// walKind is a record payload's kind byte (0 for an empty payload).
func walKind(payload []byte) byte {
	if len(payload) == 0 {
		return 0
	}
	return payload[0]
}

// openWalPlane opens (or creates) the data directory: one segmented
// log under wal/shard-00. The directory keeps the name it had when the
// store could stripe sessions over several logs, so data directories
// written then open unchanged. Recovery reads the log once — truncating
// it at its last valid record — as its verifying scan hands every
// record it keeps to recoverRecord; sessions are instantiated lazily,
// on their first Get. The older layout's checkpoint files are imported
// into the log once.
//
// The fsync policies, over buffered appends:
//
//   - always: every commit boundary (drain, create, delete) calls the
//     log's Sync, which shares fsyncs across actors, before the ack
//     releases.
//   - group: a background committer syncs the log once per window; a
//     crash loses at most ~one window of acked writes, never
//     consistency (synchronous_commit=off / appendfsync everysec).
//   - off: the OS decides when bytes reach the device.
func openWalPlane(dataDir string, policy wal.SyncPolicy, window time.Duration) (*walPlane, error) {
	p := &walPlane{streams: make(map[string]*streamState), syncOnDrain: policy == wal.SyncAlways}
	onFsync := func(d time.Duration) {
		if m := p.met.Load(); m != nil {
			m.walFsyncLat.Observe(d)
		}
	}
	var keys streamKeys
	onRecover := func(r *wal.Record) error { return p.recoverRecord(&keys, r) }
	dir := filepath.Join(dataDir, "wal", "shard-00")
	l, rec, err := wal.Open(wal.Options{Dir: dir, Policy: policy, OnFsync: onFsync, OnRecover: onRecover})
	if err != nil {
		return nil, fmt.Errorf("admitd: wal: %w", err)
	}
	p.log = l
	p.recoveredRecords = rec.Records
	if rec.Truncated {
		p.truncatedSegments = rec.DroppedSegments
		if _, err := os.Stat(filepath.Join(dir, rec.File)); err == nil {
			p.truncatedSegments++ // the cut segment kept its valid prefix
		}
		p.droppedBytes = rec.DroppedBytes
	}
	if err := p.importCheckpointFiles(filepath.Join(dataDir, "checkpoints")); err != nil {
		p.closeLog()
		return nil, fmt.Errorf("admitd: importing checkpoint files: %w", err)
	}
	for _, e := range p.streams { // a refusal counts if it stood to the log's end
		if e.poison != nil && !e.deleted {
			p.noteError()
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
// window (about: it rides the runtime timer) it syncs the log.
func (p *walPlane) syncLoop(window time.Duration) {
	defer close(p.syncDone)
	tick := time.NewTicker(window)
	defer tick.Stop()
	for {
		select {
		case <-p.syncStop:
			return
		case <-tick.C:
			if err := p.log.Sync(); err != nil {
				p.noteError()
			}
		}
	}
}

// recoverRecord is the log's OnRecover callback: every record the
// open-time scan keeps, in log order, by pointer and only for the call.
// It keeps the registry (per name the highest generation; in it the
// highest seq, the tombstone and the latest checkpoint's position) and
// folds each live generation. Only a malformed stream key (the log is
// not ours) fails the open; anything else wrong poisons its stream
// alone, until a checkpoint rebases it.
// keys is the scan's memo of the stream keys it has met.
func (p *walPlane) recoverRecord(keys *streamKeys, r *wal.Record) error {
	if r.StreamIndex >= len(*keys) {
		*keys = append(*keys, make(streamKeys, r.StreamIndex+1-len(*keys))...)
	}
	k := &(*keys)[r.StreamIndex]
	if k.key != r.Stream || k.e == nil {
		name, gen, ok := parseStreamKey(r.Stream)
		if !ok {
			return fmt.Errorf("admitd: wal: malformed stream key %q", r.Stream)
		}
		e := p.streams[name]
		if e == nil {
			e = newStreamState(gen, r.Seq)
			p.streams[name] = e
		}
		*k = parsedKey{key: r.Stream, name: name, gen: gen, e: e}
	}
	name, e := k.name, k.e
	switch {
	case k.gen > e.gen:
		e.reset(k.gen, r.Seq)
	case k.gen < e.gen:
		return nil // retired generation, awaiting compaction
	}
	if r.Seq > e.lastSeq.Load() {
		e.lastSeq.Store(r.Seq)
	}
	switch kind := walKind(r.Payload); {
	case e.deleted:
		return nil
	case kind == walKindDelete:
		e.deleted = true
		e.recovered, e.poison = nil, nil
		return nil
	case kind == walKindCkpt:
		p.recoveredCkpts++
		e.ckptSeq.Store(r.Seq)
		e.ckpt = r.Pos()
	case e.poison != nil:
		return nil
	}
	if e.poison = p.fold(name, &e.recovered, r); e.poison != nil {
		e.recovered = nil
	}
	return nil
}

// fold is foldRecord marking failures unrecoverable — except an
// undecodable checkpoint at the fold's own seq, which only repeats
// state the fold holds: a counted error, not the stream.
func (p *walPlane) fold(name string, base **sessionSnapshot, r *wal.Record) error {
	err := foldRecord(name, base, *r)
	switch {
	case err == nil:
		return nil
	case walKind(r.Payload) == walKindCkpt && *base != nil && (*base).Seq == r.Seq:
		p.noteError()
		return nil
	case errors.Is(err, errUnrecoverable):
		return err
	}
	return fmt.Errorf("%w: %w", errUnrecoverable, err)
}

// importCheckpointFiles moves the older layout's checkpoint files (JSON,
// one per session, under dir) into the log once: each not yet covered
// becomes a record, the log syncs, then the files go — a crash between
// leaves files the next open finds covered. One that cannot be read,
// folded or appended is left, and its stream answers with why.
func (p *walPlane) importCheckpointFiles(dir string) error {
	ents, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil
	} else if err != nil {
		return err
	}
	var done []string
	for _, de := range ents {
		path, snap := filepath.Join(dir, de.Name()), &sessionSnapshot{}
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, snap)
		}
		switch {
		case strings.HasSuffix(path, ".json.tmp"): // a write the older layout never finished
		case filepath.Ext(path) != ".json":
			continue
		case err != nil:
			// Whose generation it held is unknown. Unless the log holds the
			// stream, the name stays taken and answers why (counted below).
			name, uerr := url.PathUnescape(strings.TrimSuffix(de.Name(), ".json"))
			if uerr != nil || p.streams[name] != nil {
				p.noteError()
			} else {
				p.streams[name] = newStreamState(0, -1)
				p.streams[name].poison = fmt.Errorf("%w: checkpoint file %s: %w", errUnrecoverable, path, err)
			}
			continue
		default:
			if err := p.importCheckpoint(snap); errors.Is(err, errUnrecoverable) {
				continue // its stream is poisoned: the file stays
			} else if err != nil {
				return err
			}
		}
		done = append(done, path)
	}
	if err := p.log.Sync(); err != nil {
		return err
	}
	for _, path := range done {
		if err := os.Remove(path); err != nil {
			return err
		}
	}
	_ = os.Remove(dir) // once empty
	return nil
}

// importCheckpoint appends one file's checkpoint at the end of its
// stream, with the stream's records past it folded on top (LSN order
// stays seq order) — unless a later generation, a tombstone or a
// checkpoint record at or past its seq covers it. Gen 0: never tracked.
func (p *walPlane) importCheckpoint(snap *sessionSnapshot) error {
	name := snap.Name
	e := p.streams[name]
	if snap.Gen == 0 || e != nil && (e.gen > snap.Gen || e.gen == snap.Gen && (e.deleted || e.ckptSeq.Load() >= snap.Seq)) {
		return nil
	}
	key, l := streamKey(name, snap.Gen), p.log
	if e != nil && e.gen == snap.Gen {
		if err := l.ReplayStream(key, snap.Seq, func(r wal.Record) error { return p.fold(name, &snap, &r) }); err != nil {
			e.poison = err
			return err
		}
	} else {
		e = newStreamState(snap.Gen, snap.Seq)
		p.streams[name] = e
	}
	pos, err := l.Append(key, snap.Seq, walEncodeCheckpoint(nil, snap))
	if err != nil { // say, too large for a frame: the file stays, the stream answers why
		e.recovered, e.poison = nil, fmt.Errorf("%w: importing %q: %w", errUnrecoverable, name, err)
		return e.poison
	}
	p.setCkpt(e, snap.Seq, pos)
	e.recovered, e.poison = snap, nil
	return nil
}

// commitLog closes one commit boundary, as durably as the policy
// promises: always syncs (the caller's ack waits on it), group and off
// just flush to the OS — the background committer (group) or the OS
// (off) takes it from there.
func (p *walPlane) commitLog() error {
	if p.syncOnDrain {
		return p.log.Sync()
	}
	return p.log.Flush()
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

// create opens the next generation for a name: the create record
// (seq 0), committed per the plane's policy before the caller acks.
// Returns the stream key and the registry entry.
func (p *walPlane) create(name string, cores int, policy string, modelJSON []byte) (string, *streamState, error) {
	p.mu.Lock()
	e := p.streams[name]
	if e != nil && !e.deleted {
		p.mu.Unlock()
		return "", nil, fmt.Errorf("%w: %q", ErrSessionExists, name)
	}
	gen := uint64(1)
	if e != nil {
		gen = e.gen + 1
	}
	ne := newStreamState(gen, 0)
	p.streams[name] = ne
	p.mu.Unlock()

	key := streamKey(name, gen)
	if err := p.appendCommit(key, 0, func(b []byte) []byte { return walEncodeCreate(b, cores, policy, modelJSON) }); err != nil {
		return "", nil, err
	}
	return key, ne, nil
}

// delete retires a name's live generation: a tombstone (committed like
// create) and the entry marked deleted, so the stream compacts away.
// Reports whether one existed. The caller holds the name's shard lock,
// ordering the tombstone after any checkpoint carried for it.
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
	_ = p.appendCommit(streamKey(name, gen), seq, walEncodeDelete) //nolint:errcheck // counted
	return true
}

// appendCommit appends one record the plane encodes (create,
// tombstone) into the recycled scratch and closes the commit boundary;
// a failure is counted.
func (p *walPlane) appendCommit(key string, seq int64, enc func([]byte) []byte) error {
	p.encMu.Lock()
	p.encBuf = enc(p.encBuf[:0])
	_, err := p.log.Append(key, seq, p.encBuf)
	p.encMu.Unlock()
	if err == nil {
		err = p.commitLog()
	}
	if err != nil {
		p.noteError()
	}
	return err
}

// setCkpt records a stream's latest checkpoint record: its seq is the
// compaction watermark, its position what a later restore reads.
func (p *walPlane) setCkpt(e *streamState, seq int64, pos wal.Pos) {
	p.mu.Lock()
	e.ckpt = pos
	e.ckptSeq.Store(seq)
	p.mu.Unlock()
	p.ckptRecords.Add(1)
}

// covered is the compaction predicate for a stream's records in a
// segment ending at lastLSN: a retired generation's always go; a live
// one's once its latest checkpoint covers them from beyond the segment
// (the segment holding it is never dropped). Unknown streams stay.
func (p *walPlane) covered(stream string, maxSeq int64, lastLSN uint64) bool {
	name, gen, ok := parseStreamKey(stream)
	if !ok {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	e := p.streams[name]
	switch {
	case e == nil || gen > e.gen:
		return false
	case gen < e.gen || e.deleted:
		return true
	}
	return e.ckptSeq.Load() >= maxSeq && e.ckpt.LSN > lastLSN
}

// rotate seals the log's active segment, returning the first LSN of
// the fresh one.
func (p *walPlane) rotate() uint64 {
	fresh, err := p.log.Rotate()
	if err != nil {
		p.noteError()
	}
	return fresh
}

// compact syncs the log once (its checkpoints) and drops the prefix
// they cover; an unsynced log is not compacted.
func (p *walPlane) compact() {
	if err := p.log.Sync(); err != nil {
		p.noteError()
		return
	}
	if _, err := p.log.Compact(p.covered); err != nil {
		p.noteError()
	}
}

// carry leaves a stream's latest checkpoint at or past fresh without a
// session, so an idle stream pins no segment: a sealed checkpoint that
// is still the stream's last record is re-appended unchanged; a stream
// the restart folded past its checkpoint gets one of the folded state.
// The caller orders the append against the stream's others (its actor,
// or the shard lock when no session serves it).
func (p *walPlane) carry(name string, e *streamState, fresh uint64) error {
	p.mu.Lock()
	pos, seq, rec, skip := e.ckpt, e.ckptSeq.Load(), e.recovered, e.deleted || e.poison != nil
	p.mu.Unlock()
	l := p.log
	var payload []byte
	switch {
	case skip:
		return nil
	case rec != nil && rec.Seq > seq:
		payload, seq = walEncodeCheckpoint(nil, rec), rec.Seq
	case seq < 0 || seq != e.lastSeq.Load() || pos.LSN >= fresh:
		return nil // none, records past it (a held probe's session), or in place
	default:
		r, err := l.ReadAt(pos)
		if err != nil {
			return err
		}
		payload = r.Payload
		defer p.carried.Add(1)
	}
	npos, err := l.Append(streamKey(name, e.gen), seq, payload)
	if err != nil {
		return err
	}
	p.setCkpt(e, seq, npos)
	return nil
}

// stats is the log's counters (scrape path).
func (p *walPlane) stats() wal.Stats {
	return p.log.Stats()
}

// streamCounts samples the registry (scrape path): live streams and
// how many of them have a checkpoint record.
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

func (p *walPlane) closeLog() {
	if p.syncStop != nil {
		close(p.syncStop)
		<-p.syncDone
		p.syncStop = nil
	}
	p.log.Close()
}

// --- replay ----------------------------------------------------------

// foldRecord applies one stream record onto the state *base — the one
// place a logged mutation or checkpoint becomes session state. With a
// base in hand a mutation must be at base.Seq+1, a checkpoint (which
// replaces it) at base.Seq. A mutation folds in place: an admit or a
// split is decoded straight into the slot it takes in the state. A
// record that fails leaves *base as it was. A mutation arriving with
// no base means the prefix (create record included) was compacted past
// the requested point.
func foldRecord(name string, base **sessionSnapshot, r wal.Record) error {
	s, kind := *base, walKind(r.Payload)
	if kind == walKindCkpt {
		if s != nil && r.Seq != s.Seq {
			return fmt.Errorf("%w: stream %q: checkpoint at seq %d, state at %d", ErrSeqGap, r.Stream, r.Seq, s.Seq)
		}
		snap, err := walDecodeCheckpoint(r.Payload)
		if err != nil {
			return fmt.Errorf("stream %q seq %d: %w", r.Stream, r.Seq, err)
		}
		snap.Name, snap.Seq = name, r.Seq
		*base = snap
		return nil
	}
	if s != nil && r.Seq != s.Seq+1 {
		return fmt.Errorf("%w: stream %q: seq %d follows %d", ErrSeqGap, r.Stream, r.Seq, s.Seq)
	}
	var rec walRec
	switch {
	case s == nil:
	case kind == walKindAdmit:
		s.Tasks = append(s.Tasks, api.Task{})
		rec.task = &s.Tasks[len(s.Tasks)-1]
	case kind == walKindSplit:
		s.Splits = append(s.Splits, api.Split{})
		rec.split = &s.Splits[len(s.Splits)-1]
	}
	if err := walDecode(r.Payload, &rec); err != nil {
		switch { // take back the slot the record did not fill
		case s == nil:
		case kind == walKindAdmit:
			s.Tasks = slices.Delete(s.Tasks, len(s.Tasks)-1, len(s.Tasks))
		case kind == walKindSplit:
			s.Splits = slices.Delete(s.Splits, len(s.Splits)-1, len(s.Splits))
		}
		return fmt.Errorf("stream %q seq %d: %w", r.Stream, r.Seq, err)
	}
	switch {
	case rec.kind == walKindCreate:
		s = &sessionSnapshot{Name: name, Cores: int(rec.cores), Policy: rec.policy}
		if err := json.Unmarshal(rec.model, &s.Model); err != nil {
			return fmt.Errorf("admitd: wal replay: create record model: %w", err)
		}
		*base = s
	case s == nil:
		return fmt.Errorf("%w: replay reached a mutation before any base state", ErrSeqTruncated)
	case rec.kind == walKindAdmit:
		rec.task.Core = int(rec.core)
		s.Admitted++
	case rec.kind == walKindSplit:
		s.Admitted++
	case rec.kind == walKindRemove:
		if !snapshotRemove(s, rec.id) {
			return fmt.Errorf("admitd: wal replay: remove of unknown task %d", rec.id)
		}
		s.Removed++
	default: // walDecode refuses every kind but these and the tombstone
		return fmt.Errorf("admitd: wal replay: tombstone in a live stream")
	}
	s.Seq = r.Seq
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

// restoreDurable rebuilds a session from the durability plane: its
// latest checkpoint record plus the stream tail.
func (st *Store) restoreDurable(name string) (*Session, error) {
	e := st.plane.lookup(name)
	if e == nil {
		return nil, fmt.Errorf("%w: %q", ErrSessionNotFound, name)
	}
	base, _, err := st.replayToSeq(name, e, seqEnd)
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
	lastSeq := max(base.Seq, e.lastSeq.Load())
	s.attachWal(st.plane, streamKey(name, e.gen), e, lastSeq)
	return s, nil
}

// replayToSeq reconstructs a session snapshot at the last mutation
// with seq < limit, from the state the open-time scan folded (a full
// restore after a restart: nothing left to read) or else the latest
// checkpoint record, read at its position unless past the limit, with
// the records after it folded on top (those with no base yet passed
// over). The mutation at limit, if reached, comes back decoded.
func (st *Store) replayToSeq(name string, e *streamState, limit int64) (base *sessionSnapshot, at *walRec, err error) {
	p := st.plane
	p.mu.Lock()
	pos, seq := e.ckpt, e.ckptSeq.Load()
	if limit == seqEnd { // what the open-time scan left is handed over once
		base, err = e.recovered, e.poison
		e.recovered = nil
	}
	p.mu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	var ckptErr error
	if base == nil && seq >= 0 && seq < limit {
		r, err := p.log.ReadAt(pos)
		if err == nil {
			err = foldRecord(name, &base, r)
		}
		ckptErr = err
	}
	after := int64(-1)
	if base != nil {
		after = base.Seq
	}
	err = p.log.ReplayStream(streamKey(name, e.gen), after, func(r wal.Record) error {
		if r.Seq >= limit {
			if r.Seq == limit && walKind(r.Payload) != walKindCkpt {
				at = &walRec{}
				if err := walDecode(r.Payload, at); err != nil {
					return err
				}
			}
			return errWalStop
		}
		if k := walKind(r.Payload); base == nil && k != walKindCkpt && k != walKindCreate {
			return nil
		}
		return p.fold(name, &base, &r)
	})
	if base == nil && ckptErr != nil {
		// Without its checkpoint the log alone no longer reaches this
		// state: say which record, not that the caller asked too far back.
		p.noteError()
		return nil, nil, fmt.Errorf("%w: %w", errUnrecoverable, ckptErr)
	}
	if err != nil && !errors.Is(err, errWalStop) {
		return nil, nil, err
	}
	return base, at, nil
}

// --- checkpointing ---------------------------------------------------

// Checkpoint runs one round: the log rotates, every live stream gets
// its latest checkpoint record into the fresh segment, one fsync, and
// the log compacts — so the retained log starts with the checkpoints.
// A session appends its checkpoint on its actor (idle, it carries its
// last one instead); a stream no session serves is carried.
func (st *Store) Checkpoint() error {
	if st.plane == nil {
		return nil
	}
	err := st.checkpointStreams(st.plane.rotate())
	st.plane.compact()
	return err
}

// checkpointStreams leaves every live stream's latest checkpoint record
// at or past the log's fresh LSN, each through whatever orders the
// stream's appends: its session's actor, or else the shard lock.
func (st *Store) checkpointStreams(fresh uint64) error {
	p := st.plane
	p.mu.Lock()
	live := make(map[string]*streamState, len(p.streams))
	for name, e := range p.streams {
		if !e.deleted {
			live[name] = e
		}
	}
	p.mu.Unlock()
	var errs []error
	for name, e := range live {
		if err := st.checkpointStream(name, e, fresh); err != nil {
			p.noteError()
			errs = append(errs, err)
		} else if m := st.met; m != nil {
			m.walCheckpoints.Inc()
		}
	}
	return errors.Join(errs...)
}

func (st *Store) checkpointStream(name string, e *streamState, fresh uint64) error {
	sh := st.shardFor(name)
	sh.mu.Lock()
	s := sh.m[name]
	if s == nil {
		defer sh.mu.Unlock()
		return st.plane.carry(name, e, fresh)
	}
	sh.mu.Unlock()
	var err error
	_ = s.call(func() { //nolint:errcheck // closed: it checkpointed on its way out
		if s.walEnt.ckptSeq.Load() != s.durableSeq() {
			err = s.checkpointLocked()
		} else {
			err = st.plane.carry(name, s.walEnt, fresh)
		}
	})
	return err
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
// and its checkpoint records are consulted.
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
	base, target, err := st.replayToSeq(name, e, seq)
	if err != nil {
		return nil, err
	}
	if base == nil {
		return nil, fmt.Errorf("%w: seq %d (base state compacted)", ErrSeqTruncated, seq)
	}
	if base.Seq != seq-1 {
		if seq <= e.ckptSeq.Load() {
			return nil, fmt.Errorf("%w: seq %d (checkpoint is at %d)", ErrSeqTruncated, seq, e.ckptSeq.Load())
		}
		return nil, fmt.Errorf("admitd: audit: records (%d, %d) missing from the log", base.Seq, seq)
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
		t, terr := toTask(*rec.task, p)
		if terr != nil {
			return nil, terr
		}
		rep.TaskID = rec.task.ID
		tcopy := *rec.task
		tcopy.Core = int(rec.core)
		rep.Task = &tcopy
		if rep.Admitted = ctx.TryPlace(t, int(rec.core)); rep.Admitted {
			rep.Core = int(rec.core)
		}
	case walKindSplit:
		sp, serr := toSplit(*rec.split, p)
		if serr != nil {
			return nil, serr
		}
		rep.TaskID = rec.split.Task.ID
		tcopy := rec.split.Task
		rep.Task = &tcopy
		rep.Admitted = ctx.TrySplit(sp, sp.Parts[0].Core)
	case walKindRemove:
		rep.TaskID = rec.id
		rep.Admitted = ctx.Remove(task.ID(rec.id))
	default:
		return nil, fmt.Errorf("admitd: audit: record kind %d is not auditable", rec.kind)
	}
	switch { // resolve the probe
	case rec.kind == walKindRemove:
	case rep.Admitted:
		ctx.Commit()
	default:
		ctx.Rollback()
	}
	rep.Schedulable = ctx.Schedulable()
	rep.Admission = ctx.Stats().Wire()
	return rep, nil
}
