package main

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"time"

	"repro/api"
)

// Op kinds. Reads ride the server's lock-free snapshot path, writes
// its per-session actor.
type opKind uint8

const (
	opTry opKind = iota
	opState
	opStats
	opAdmit
	opRemove
	numKinds
)

func (k opKind) isRead() bool { return k <= opStats }

var opNames = [...]string{"try", "state", "stats", "admit", "remove"}

// ID spaces. Seeded tasks get small server-assigned IDs; extras the
// driver admits start at extraBase; try probes use tryBase upward and
// are never admitted, so no request can collide with a resident ID.
const (
	extraBase = 1_000_000
	tryBase   = 1 << 40
)

// mixSpec is the traffic shape of one serve workload.
type mixSpec struct {
	readPct int  // share of reads; within reads 70 try / 20 state / 10 stats
	tryOnly bool // reads are all try (probe_heavy)
	window  int  // resident extras kept per session
	unique  bool // task parameters unique per request (probe memos miss)
}

// op is one request the driver is about to issue.
type op struct {
	kind opKind
	task api.Task // try/admit
	id   int64    // remove
}

// sessModel is the driver's model of one session: the stream of ops
// it will issue — a pure function of (seed, session index) — and the
// set of resident IDs its acknowledged writes imply. One client owns
// the session, so the model is never shared.
type sessModel struct {
	name string
	rng  *rand.Rand
	mix  mixSpec

	seeded    []int64 // resident IDs from seeding
	extras    []int64 // resident extras, oldest first
	nextExtra int64
	nextTry   int64

	digest            uint64 // FNV-1a over (op, id, admitted, core)
	tries, sampled    int64
	admitted, refused int64
}

// sessionSeed derives a session's private seed (splitmix64 finalizer)
// so neighbouring seeds and indices give unrelated streams.
func sessionSeed(seed int64, index int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(index+1)*0xbf58476d1ce4e5b9
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}

func newSessModel(seed int64, index int, name string, mix mixSpec) *sessModel {
	return &sessModel{
		name: name, mix: mix,
		rng:       rand.New(rand.NewSource(sessionSeed(seed, index))),
		nextExtra: extraBase,
		nextTry:   tryBase,
		digest:    14695981039346656037,
	}
}

// next draws the session's next op. Writes keep the resident extras
// inside a fixed window — admit while fewer than window extras are
// resident, else remove the oldest — so the work per request does
// not drift with run length, an admit never reuses a resident ID and
// a remove never names an absent one.
func (m *sessModel) next() op {
	if m.rng.Intn(100) < m.mix.readPct {
		kind := opTry
		if !m.mix.tryOnly {
			switch k := m.rng.Intn(10); {
			case k < 7:
			case k < 9:
				kind = opState
			default:
				kind = opStats
			}
		}
		if kind != opTry {
			return op{kind: kind}
		}
		m.nextTry++
		return op{kind: opTry, task: m.drawTask(m.nextTry)}
	}
	if len(m.extras) < m.mix.window {
		m.nextExtra++
		return op{kind: opAdmit, task: m.drawTask(m.nextExtra)}
	}
	return op{kind: opRemove, id: m.extras[0]}
}

// drawTask draws the request's task: from RunLoad's 50-class catalog
// (10 periods × 5 budgets, ≤ 2 % of a core), or — unique mode — with
// nanosecond-grained parameters no earlier request has used, 1–12 %
// of a core, so verdict memos keyed on the task's shape cannot hit.
func (m *sessModel) drawTask(id int64) api.Task {
	if m.mix.unique {
		period := int64(10*time.Millisecond) + m.rng.Int63n(int64(990*time.Millisecond))
		util := 0.01 + 0.11*m.rng.Float64()
		wcet := int64(float64(period) * util)
		return api.Task{ID: id, WCETNs: wcet, PeriodNs: period, Priority: 1 + m.rng.Intn(4000), WSS: 64 << 10}
	}
	period := int64(20*(1+m.rng.Intn(10))) * int64(time.Millisecond)
	wcet := period / int64(50+10*m.rng.Intn(5))
	return api.Task{ID: id, WCETNs: wcet, PeriodNs: period, Priority: int(1000 + id%16), WSS: 64 << 10}
}

// note folds one acknowledged op into the digest.
func (m *sessModel) note(kind opKind, id int64, admitted bool, core int) {
	var b [18]byte
	b[0] = byte(kind)
	binary.LittleEndian.PutUint64(b[1:], uint64(id))
	if admitted {
		b[9] = 1
	}
	binary.LittleEndian.PutUint64(b[10:], uint64(int64(core)))
	h := m.digest
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	m.digest = h
}

// ackVerdict applies a try/admit reply to the model.
func (m *sessModel) ackVerdict(o *op, v api.Verdict) {
	m.note(o.kind, o.task.ID, v.Admitted, v.Core)
	if o.kind == opTry {
		m.tries++
		return
	}
	if v.Admitted {
		m.extras = append(m.extras, o.task.ID)
		m.admitted++
	} else {
		m.refused++
	}
}

// ackRemove applies an acknowledged remove.
func (m *sessModel) ackRemove(o *op) {
	m.note(opRemove, o.id, true, -1)
	m.extras = m.extras[1:]
}

// ackState folds a state reply (task count and schedulability).
func (m *sessModel) ackState(st *api.State) {
	m.note(opState, int64(len(st.Tasks)), st.Schedulable != nil && *st.Schedulable, st.Cores)
}

// resident is the ID set the acknowledged writes imply.
func (m *sessModel) resident() map[int64]bool {
	ids := make(map[int64]bool, len(m.seeded)+len(m.extras))
	for _, id := range m.seeded {
		ids[id] = true
	}
	for _, id := range m.extras {
		ids[id] = true
	}
	return ids
}

// combineDigests hashes the per-session digests in session order.
func combineDigests(models []*sessModel) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, m := range models {
		binary.LittleEndian.PutUint64(b[:], m.digest)
		h.Write(b[:])
	}
	return h.Sum64()
}
