package admitd

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"repro/api"
	"repro/internal/overhead"
)

// WAL record payloads: the durable form of one committed session
// mutation, or of a whole session state (a checkpoint, at the seq of
// the last mutation it covers). Every record is a kind byte followed by
// fixed-width little-endian fields (strings and the create record's
// model JSON length-prefixed), so encoding appends into reused scratch
// and decoding never touches encoding/json but for that model. A
// checkpoint is versioned and lists every field explicitly, the model
// and the admission counters too, so no new field elsewhere can change
// its bytes. Mutations carry the placement core and the task count
// after them; replay and audit read only the core, and the count stays
// in the format so older logs decode unchanged.
const (
	walKindCreate byte = 1 // cores, policy, model JSON
	walKindAdmit  byte = 2 // core, tasks-after, task
	walKindSplit  byte = 3 // tasks-after, split (task+parts+windows)
	walKindRemove byte = 4 // tasks-after, removed task ID
	walKindDelete byte = 5 // tombstone: the session was deleted
	walKindCkpt   byte = 6 // checkpoint: version, then the whole state

	walCkptV1    byte = 1
	walMaxString      = 1<<16 - 1 // a record's strings are u16-length-prefixed
)

// walRec is one decoded record. An admit's task and a split are
// decoded into *task and *split: the fold points them at the slots they
// take in the state it builds, so a record is decoded in place; left
// nil, walDecode allocates them.
type walRec struct {
	kind   byte
	cores  int32
	policy string
	model  json.RawMessage
	core   int32
	task   *api.Task
	split  *api.Split
	id     int64 // remove target
}

// --- encoding (append-based, actor-side scratch) ---------------------

func walAppendI32(b []byte, v int32) []byte {
	return binary.LittleEndian.AppendUint32(b, uint32(v))
}

func walAppendI64(b []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(v))
}

func walAppendString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

func walAppendTask(b []byte, j *api.Task) []byte {
	b = walAppendI64(b, j.ID)
	b = walAppendI64(b, j.WCETNs)
	b = walAppendI64(b, j.PeriodNs)
	b = walAppendI64(b, j.DeadlineNs)
	b = walAppendI64(b, int64(j.Priority))
	b = walAppendI64(b, j.WSS)
	return walAppendString(b, j.Name)
}

func walEncodeCreate(b []byte, cores int, policy string, model []byte) []byte {
	b = append(b, walKindCreate)
	b = walAppendI32(b, int32(cores))
	b = walAppendString(b, policy)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(model)))
	return append(b, model...)
}

func walEncodeAdmit(b []byte, core int, tasks int64, j *api.Task) []byte {
	b = append(b, walKindAdmit)
	b = walAppendI32(b, int32(core))
	b = walAppendI32(b, int32(tasks))
	return walAppendTask(b, j)
}

func walEncodeSplit(b []byte, tasks int64, j *api.Split) []byte {
	b = append(b, walKindSplit)
	b = walAppendI32(b, int32(tasks))
	return walAppendSplit(b, j)
}

func walAppendSplit(b []byte, j *api.Split) []byte {
	b = walAppendTask(b, &j.Task)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(j.Parts)))
	for _, p := range j.Parts {
		b = walAppendI32(b, int32(p.Core))
		b = walAppendI64(b, p.BudgetNs)
	}
	b = binary.LittleEndian.AppendUint16(b, uint16(len(j.WindowsNs)))
	for _, w := range j.WindowsNs {
		b = walAppendI64(b, w)
	}
	return b
}

func walEncodeRemove(b []byte, tasks int64, id int64) []byte {
	b = append(b, walKindRemove)
	b = walAppendI32(b, int32(tasks))
	return walAppendI64(b, id)
}

func walEncodeDelete(b []byte) []byte {
	return append(b, walKindDelete)
}

// walEncodeCheckpoint encodes a session state as a v1 checkpoint
// payload: cores, policy, the fixed-width fields (ckptFixed), tasks in
// canonical order (each with its core), splits in install order.
func walEncodeCheckpoint(b []byte, s *sessionSnapshot) []byte {
	c := *s
	c.Model = overhead.Normalize(s.Model)
	b = append(b, walKindCkpt, walCkptV1)
	b = walAppendI32(b, int32(c.Cores))
	b = walAppendString(b, c.Policy)
	b = append(b, byte(len(c.Model.Queues.LocalN4)))
	ints, floats := ckptFixed(&c)
	for _, v := range ints {
		b = walAppendI64(b, *v)
	}
	for _, f := range floats {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(*f))
	}
	b = walAppendI32(b, int32(len(c.Tasks)))
	for i := range c.Tasks {
		b = walAppendI32(b, int32(c.Tasks[i].Core))
		b = walAppendTask(b, &c.Tasks[i])
	}
	b = walAppendI32(b, int32(len(c.Splits)))
	for i := range c.Splits {
		b = walAppendSplit(b, &c.Splits[i])
	}
	return b
}

// ckptInts counts a v1 checkpoint's fixed-width integers: the overhead
// model's seven, four per queue operation, and fourteen counters.
const ckptInts = 7 + 4*len(overhead.QueueCosts{}.LocalN4) + 14

// ckptFixed lists a checkpoint's fixed-width fields in v1 order — the
// overhead model's, then the counters' — for encode and decode alike.
func ckptFixed(s *sessionSnapshot) (ints [ckptInts]*int64, floats [3]*float64) {
	m, q, a := s.Model, &s.Model.Queues, &s.Admission
	// ints has room for every field, so the appends fill it in place.
	b := append(ints[:0], (*int64)(&m.Release), (*int64)(&m.Sched), (*int64)(&m.CtxSwitch),
		(*int64)(&m.Cache.ReloadPerKiB), (*int64)(&m.Cache.MemPerKiB), &m.Cache.PrivateBytes, &m.Cache.SharedBytes)
	for i := range q.LocalN4 {
		b = append(b, (*int64)(&q.LocalN4[i]), (*int64)(&q.LocalN64[i]), (*int64)(&q.RemoteN4[i]), (*int64)(&q.RemoteN64[i]))
	}
	_ = append(b, &s.Admitted, &s.Rejected, &s.Removed, &s.StateCacheHits, &s.StateCacheMisses,
		&a.Probes, &a.FullTests, &a.CoreTests, &a.VerdictHits, &a.FPSolves, &a.FPIterations, &a.WarmStarts, &a.DemandTests, &a.DemandPoints)
	return ints, [3]*float64{&m.Cache.SmallWSSRetention, &m.Cache.MigrationFactor, &m.RemotePenalty}
}

// --- decoding --------------------------------------------------------

// walReader is a bounds-checked cursor over one record payload. Each
// read checks its bounds once and decodes in place. The first
// over-read latches where it happened and moves the cursor to the end,
// so every later read fails too and yields zero; the caller checks
// once at the end (done). The reads are small enough to inline: the
// error is built only when asked for.
type walReader struct {
	b    []byte
	off  int
	over int // 1 + the cursor at the first over-read; 0 while none
}

// short latches an over-read at the cursor, then exhausts the payload.
func (r *walReader) short() {
	if r.over == 0 {
		r.over = r.off + 1
	}
	r.off = len(r.b)
}

// failed reports whether a read has over-read.
func (r *walReader) failed() bool { return r.over != 0 }

func (r *walReader) take(n int) []byte {
	if b := r.b[r.off:]; len(b) >= n {
		r.off += n
		return b[:n]
	}
	r.short()
	return nil
}

func (r *walReader) u16() uint16 {
	if b := r.b[r.off:]; len(b) >= 2 {
		r.off += 2
		return binary.LittleEndian.Uint16(b)
	}
	r.short()
	return 0
}

func (r *walReader) i32() int32 {
	if b := r.b[r.off:]; len(b) >= 4 {
		r.off += 4
		return int32(binary.LittleEndian.Uint32(b))
	}
	r.short()
	return 0
}

func (r *walReader) i64() int64 {
	if b := r.b[r.off:]; len(b) >= 8 {
		r.off += 8
		return int64(binary.LittleEndian.Uint64(b))
	}
	r.short()
	return 0
}

func (r *walReader) str() string { return string(r.take(int(r.u16()))) }

// bytes32 copies out a u32-length-prefixed field: the replay buffer is
// reused across records.
func (r *walReader) bytes32() []byte {
	return append([]byte(nil), r.take(int(uint32(r.i32())))...)
}

// done is the decode's verdict: the first over-read, or bytes left over.
func (r *walReader) done() error {
	switch {
	case r.failed():
		return fmt.Errorf("admitd: truncated wal record payload at byte %d", r.over-1)
	case r.off != len(r.b):
		return fmt.Errorf("admitd: wal record payload has %d trailing bytes", len(r.b)-r.off)
	}
	return nil
}

// count reads a non-negative i32 element count.
func (r *walReader) count() int {
	n := r.i32()
	if n < 0 {
		r.short()
		return 0
	}
	return int(n)
}

func (r *walReader) split(j *api.Split) {
	r.task(&j.Task)
	for n := int(r.u16()); n > 0 && !r.failed(); n-- {
		j.Parts = append(j.Parts, api.Part{Core: int(r.i32()), BudgetNs: r.i64()})
	}
	for n := int(r.u16()); n > 0 && !r.failed(); n-- {
		j.WindowsNs = append(j.WindowsNs, r.i64())
	}
}

func (r *walReader) task(j *api.Task) {
	j.ID = r.i64()
	j.WCETNs = r.i64()
	j.PeriodNs = r.i64()
	j.DeadlineNs = r.i64()
	j.Priority = int(r.i64())
	j.WSS = r.i64()
	j.Name = r.str()
}

// walDecode parses one record payload into rec, whose strings and
// model it copies out of the replay buffer. On an error rec holds
// whatever was read before it.
func walDecode(payload []byte, rec *walRec) error {
	if len(payload) == 0 {
		return fmt.Errorf("admitd: empty wal record payload")
	}
	rec.kind = payload[0]
	r := &walReader{b: payload, off: 1}
	switch rec.kind {
	case walKindCreate:
		rec.cores = r.i32()
		rec.policy = r.str()
		rec.model = r.bytes32()
	case walKindAdmit:
		rec.core = r.i32()
		r.i32() // tasks after
		if rec.task == nil {
			rec.task = new(api.Task)
		}
		r.task(rec.task)
	case walKindSplit:
		r.i32() // tasks after
		if rec.split == nil {
			rec.split = new(api.Split)
		}
		r.split(rec.split)
	case walKindRemove:
		r.i32() // tasks after
		rec.id = r.i64()
	case walKindDelete:
		// Tombstone: kind byte only.
	case walKindCkpt:
		return nil // decoded by walDecodeCheckpoint, when folded
	default:
		return fmt.Errorf("admitd: unknown wal record kind %d", rec.kind)
	}
	return r.done()
}

// walDecodeCheckpoint parses a checkpoint payload into a session state
// (Name and Seq are the caller's: the stream key and the frame carry
// them). Only a payload walEncodeCheckpoint could have written decodes.
func walDecodeCheckpoint(payload []byte) (*sessionSnapshot, error) {
	r := &walReader{b: payload}
	if k, v := r.take(1), r.take(1); k == nil || v == nil || k[0] != walKindCkpt || v[0] != walCkptV1 {
		return nil, fmt.Errorf("admitd: not a v%d checkpoint payload", walCkptV1)
	}
	s := &sessionSnapshot{Cores: int(r.i32()), Policy: r.str(), Model: &overhead.Model{}}
	if n := r.take(1); n != nil && int(n[0]) != len(s.Model.Queues.LocalN4) {
		return nil, fmt.Errorf("admitd: checkpoint model has %d queue ops, want %d", n[0], len(s.Model.Queues.LocalN4))
	}
	ints, floats := ckptFixed(s)
	for _, v := range ints {
		*v = r.i64()
	}
	for _, f := range floats {
		*f = math.Float64frombits(uint64(r.i64()))
	}
	for n := r.count(); n > 0 && !r.failed(); n-- {
		j := api.Task{Core: int(r.i32())}
		r.task(&j)
		s.Tasks = append(s.Tasks, j)
	}
	for n := r.count(); n > 0 && !r.failed(); n-- {
		var j api.Split
		r.split(&j)
		s.Splits = append(s.Splits, j)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return s, nil
}

// walOpName maps a mutation record kind to the audit report's op name.
func walOpName(kind byte) string {
	switch kind {
	case walKindSplit:
		return "split"
	case walKindRemove:
		return "remove"
	default:
		return "admit"
	}
}
