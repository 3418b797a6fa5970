package admitd

import (
	"sync/atomic"

	"repro/internal/task"
	"repro/internal/timeq"
)

// idSet is the committed task-ID set: a lock-free open-addressing
// hash set with one writer (the session actor; construction before
// the session is reachable also counts) and any number of concurrent
// readers. The read path's duplicate check is an atomic table load
// plus a linear probe — no lock, no allocation, unlike sync.Map
// (whose Load boxes the int64-backed key on every call) or a
// clone-per-write COW map (O(n) writes were measurable in the session
// mix).
//
// Deletions are tombstones (idGone): readers probe straight past
// them, so chains stay intact without ever moving a key. Tombstones
// are purged wholesale when the table rebuilds. Writers publish a
// slot by storing the key first and the slot state last (release);
// readers load the state first (acquire) — a reader either sees a
// fully-written slot or treats it as missing, which linearizes the
// lookup before the insert.
//
// Beside the keys it keeps their tasks' period span: each slot holds
// its key's period, and lo and hi are the least and greatest period of
// the live keys (both 0 with none). add widens them; remove narrows
// them, rescanning the table only when the key it drops held lo or hi.
// Readers load them as they load a slot, with no lock and no
// allocation.
type idSet struct {
	tab    atomic.Pointer[idTable]
	lo, hi atomic.Int64
}

type idTable struct {
	slots []idSlot
	live  int // idReady slots (writer-owned bookkeeping)
	used  int // idReady + idGone slots (writer-owned)
}

type idSlot struct {
	state  atomic.Uint32
	key    task.ID
	period timeq.Time
}

const (
	idEmpty uint32 = iota // never written; terminates probe chains
	idReady               // holds a live key
	idGone                // tombstone: key deleted, chain continues
)

const idTableInit = 64 // power of two

func newIDSet() *idSet {
	s := &idSet{}
	s.tab.Store(&idTable{slots: make([]idSlot, idTableInit)})
	return s
}

func idHash(id task.ID) uint64 {
	h := uint64(id) * 0x9e3779b97f4a7c15
	return h ^ (h >> 32)
}

// has reports membership. Lock-free, allocation-free, callable from
// any goroutine.
func (s *idSet) has(id task.ID) bool {
	t := s.tab.Load()
	mask := uint64(len(t.slots) - 1)
	for i := idHash(id) & mask; ; i = (i + 1) & mask {
		sl := &t.slots[i]
		switch sl.state.Load() {
		case idEmpty:
			return false
		case idReady:
			if sl.key == id {
				return true
			}
		}
		// idGone or a different key: keep probing.
	}
}

// span returns the least and greatest period of the live keys, 0 and
// 0 when there are none. Lock-free, allocation-free.
func (s *idSet) span() (lo, hi timeq.Time) {
	return timeq.Time(s.lo.Load()), timeq.Time(s.hi.Load())
}

// add inserts id, whose task has the given period. Writer-only. No-op
// if already present.
func (s *idSet) add(id task.ID, period timeq.Time) {
	t := s.tab.Load()
	// Rebuild at 3/4 load (ready + tombstones): the table doubles
	// while live keys dominate, or just purges tombstones after churn.
	if 4*(t.used+1) >= 3*len(t.slots) {
		t = s.rebuild(t)
	}
	mask := uint64(len(t.slots) - 1)
	reuse := -1
	for i := idHash(id) & mask; ; i = (i + 1) & mask {
		sl := &t.slots[i]
		switch sl.state.Load() {
		case idReady:
			if sl.key == id {
				return
			}
		case idGone:
			if reuse < 0 {
				reuse = int(i)
			}
		case idEmpty:
			if reuse < 0 {
				reuse = int(i)
				t.used++
			}
			sl = &t.slots[reuse]
			sl.key, sl.period = id, period
			sl.state.Store(idReady) // release: key visible before state
			t.live++
			if lo := timeq.Time(s.lo.Load()); lo == 0 || period < lo {
				s.lo.Store(int64(period))
			}
			if period > timeq.Time(s.hi.Load()) {
				s.hi.Store(int64(period))
			}
			return
		}
	}
}

// remove deletes id by tombstoning its slot. Writer-only.
func (s *idSet) remove(id task.ID) {
	t := s.tab.Load()
	mask := uint64(len(t.slots) - 1)
	for i := idHash(id) & mask; ; i = (i + 1) & mask {
		sl := &t.slots[i]
		switch sl.state.Load() {
		case idEmpty:
			return
		case idReady:
			if sl.key == id {
				sl.state.Store(idGone)
				t.live--
				if lo, hi := s.span(); sl.period == lo || sl.period == hi {
					s.respan(t)
				}
				return
			}
		}
	}
}

// respan recomputes the period span from t's live slots. Writer-only.
func (s *idSet) respan(t *idTable) {
	var lo, hi timeq.Time
	for i := range t.slots {
		if sl := &t.slots[i]; sl.state.Load() == idReady {
			if lo == 0 || sl.period < lo {
				lo = sl.period
			}
			hi = max(hi, sl.period)
		}
	}
	s.lo.Store(int64(lo))
	s.hi.Store(int64(hi))
}

// each calls f for every live key (writer-side uses only: ID scans).
func (s *idSet) each(f func(task.ID)) {
	t := s.tab.Load()
	for i := range t.slots {
		if t.slots[i].state.Load() == idReady {
			f(t.slots[i].key)
		}
	}
}

// rebuild republishes the set without tombstones, doubling while live
// keys (not churn) fill the table. Readers caught on the old table
// finish their probe there — a lookup racing the swap linearizes just
// before whatever write triggered it.
func (s *idSet) rebuild(old *idTable) *idTable {
	size := len(old.slots)
	if 2*old.live >= size {
		size *= 2
	}
	t := &idTable{slots: make([]idSlot, size), live: old.live, used: old.live}
	mask := uint64(size - 1)
	for i := range old.slots {
		if old.slots[i].state.Load() != idReady {
			continue
		}
		id := old.slots[i].key
		for j := idHash(id) & mask; ; j = (j + 1) & mask {
			sl := &t.slots[j]
			if sl.state.Load() == idEmpty {
				sl.key, sl.period = id, old.slots[i].period
				sl.state.Store(idReady)
				break
			}
		}
	}
	s.tab.Store(t)
	return t
}
