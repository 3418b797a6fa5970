package admitd

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/api"
	"repro/internal/analysis"
	"repro/internal/overhead"
	"repro/internal/task"
)

// FuzzGroupCommitCoalescing pins the group-commit contract under real
// contention: N racing writers push randomized op streams through one
// session's mailbox, so drains coalesce many mutations into single
// snapshot publishes. The actor records the linearization it actually
// executed; replaying that exact order on a fresh session one call at
// a time (drain size 1, no coalescing) must reproduce every verdict,
// every error, the final state, and the admission counters bit for
// bit. Run under -race this also exercises the mailbox, the deferred
// unregistration path, and the stats republish concurrently; the
// analysis SelfCheck shadow double-checks every admission decision in
// both phases.

// gcOp is one linearized actor operation and its observed outcome.
type gcOp struct {
	kind byte // 'a' admit, 't' try-hold, 'c' commit, 'r' rollback, 'd' remove
	id   int64
	core int // -1: first-fit
	v    api.Verdict
	err  string
}

// gcApply executes the op against s (must run inside s.call) and
// records the outcome.
func gcApply(s *Session, op *gcOp) {
	req := api.AdmitRequest{Task: benchTask(op.id)}
	if op.core >= 0 {
		core := op.core
		req.Core = &core
	}
	var err error
	switch op.kind {
	case 'a':
		op.v, err = s.admitLocked(req)
	case 't':
		req.Hold = true
		op.v, err = s.holdLocked(req)
	case 'c':
		op.v, err = s.commitLocked()
	case 'r':
		op.v, err = s.rollbackLocked()
	case 'd':
		err = s.removeLocked(task.ID(op.id))
	}
	if err != nil {
		op.err = err.Error()
	} else {
		op.err = ""
	}
}

func FuzzGroupCommitCoalescing(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(40))
	f.Add(int64(7), uint8(8), uint8(25))
	f.Add(int64(42), uint8(2), uint8(60))
	f.Fuzz(func(t *testing.T, seed int64, writers, ops uint8) {
		nw := 2 + int(writers%7) // 2..8 writers: always real contention
		nops := 10 + int(ops%60)
		prevCheck := analysis.SelfCheck
		analysis.SelfCheck = true
		defer func() { analysis.SelfCheck = prevCheck }()

		live := newSession("gc", task.FixedPriority, overhead.PaperModel(), task.NewAssignment(4), nil, nil)
		defer live.close()

		// Phase 1: racing writers. The actor runs closures one at a
		// time, so appending to the shared log inside the closure
		// captures the exact linearization without extra locking.
		var log []*gcOp
		var wg sync.WaitGroup
		for w := 0; w < nw; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed + int64(w)*7919))
				var mine []int64 // ids this writer admitted
				for k := 0; k < nops; k++ {
					op := &gcOp{id: int64(w)<<32 | int64(k), core: rng.Intn(5) - 1}
					switch r := rng.Intn(100); {
					case r < 45:
						op.kind = 'a'
						mine = append(mine, op.id)
					case r < 60:
						op.kind = 't'
					case r < 70:
						op.kind = 'c'
					case r < 78:
						op.kind = 'r'
					default:
						op.kind = 'd'
						if len(mine) > 0 {
							op.id = mine[rng.Intn(len(mine))]
						} // else: remove of a never-admitted id — also a case worth replaying
					}
					if err := live.call(func() {
						gcApply(live, op)
						log = append(log, op)
					}); err != nil {
						t.Errorf("writer %d: %v", w, err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		// Resolve any probe still held before comparing, so both final
		// states carry the same overlay. The final rollback is logged,
		// so the replay resolves identically; with no probe held it
		// errors — identically on both sides.
		final := &gcOp{kind: 'r', id: -1, core: -1}
		if err := live.call(func() {
			gcApply(live, final)
			log = append(log, final)
		}); err != nil {
			t.Fatal(err)
		}

		// Phase 2: sequential replay of the recorded linearization,
		// one drain per op.
		replay := newSession("gc", task.FixedPriority, overhead.PaperModel(), task.NewAssignment(4), nil, nil)
		defer replay.close()
		for i, op := range log {
			got := &gcOp{kind: op.kind, id: op.id, core: op.core}
			if err := replay.call(func() { gcApply(replay, got) }); err != nil {
				t.Fatalf("replay op %d: %v", i, err)
			}
			if got.v != op.v || got.err != op.err {
				t.Fatalf("op %d (%c id=%d core=%d) diverged:\ncoalesced %+v err=%q\nreplayed  %+v err=%q",
					i, op.kind, op.id, op.core, op.v, op.err, got.v, got.err)
			}
		}

		lb, err1 := live.stateReadBytes()
		rb, err2 := replay.stateReadBytes()
		if err1 != nil || err2 != nil {
			t.Fatalf("stateReadBytes: %v / %v", err1, err2)
		}
		if string(lb) != string(rb) {
			var seq []string
			for _, op := range log {
				seq = append(seq, fmt.Sprintf("%c id=%d core=%d adm=%v pend=%v err=%q", op.kind, op.id, op.core, op.v.Admitted, op.v.Pending, op.err))
			}
			t.Fatalf("final state diverged:\ncoalesced %s\nreplayed  %s\nops:\n%s", lb, rb, strings.Join(seq, "\n"))
		}
		ls, err1 := live.statsRead()
		rs, err2 := replay.statsRead()
		if err1 != nil || err2 != nil {
			t.Fatalf("statsRead: %v / %v", err1, err2)
		}
		if ls != rs {
			t.Fatalf("admission counters diverged:\ncoalesced %+v\nreplayed  %+v", ls, rs)
		}
	})
}
