package analysis

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/overhead"
	"repro/internal/task"
)

// The racing differential fuzz: reader goroutines fork snapshots and
// probe them while the owner goroutine keeps committing, rolling
// back and removing. Every recorded reader answer is replayed — after
// the race is over — against a cold stateless analyzer on the clone
// of the exact snapshot it was probed on. Run under -race this is
// both the memory-safety proof (no reader ever touches state the
// writer mutates) and the linearizability proof (every fork is a
// consistent committed state whose verdicts are bit-identical to the
// stateless path).

// forkProbeRecord is one reader answer to replay.
type forkProbeRecord struct {
	clone *task.Assignment // snapshot state the probe ran against
	t     *task.Task       // probed task (nil for a full test)
	core  int
	got   bool
}

func runForkRace(t *testing.T, an Analyzer, m *overhead.Model, seed int64, writerOps, readers int) {
	m = overhead.Normalize(m)
	const cores = 4
	a := task.NewAssignment(cores)
	ctx := an.NewContext(a, m)

	// Seed a committed base so early forks are non-trivial, then
	// engage publication on the owner before any reader runs (the
	// first Fork must not race the writer).
	rng := rand.New(rand.NewSource(seed))
	for i, tk := range randomSet(rng, 8, 1.5).Tasks {
		ctx.Place(tk, i%cores)
	}
	ctx.Fork()

	var stop atomic.Bool
	var recorded atomic.Int64
	records := make([][]forkProbeRecord, readers)

	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rrng := rand.New(rand.NewSource(seed + int64(r)*7919))
			for !stop.Load() {
				snap := ctx.Fork()
				clone := snap.CloneAssignment()
				for k := 0; k < 3; k++ {
					// Draw from a small shape pool so the same probe
					// repeats against successive snapshots, whose
					// per-core records a publish carries over from the
					// writer (shared until it copies one on write); IDs
					// repeat, which is harmless for probes.
					shape := rrng.Int63n(48)
					tk := probeTask(rand.New(rand.NewSource(shape)), 1<<41+shape)
					c := rrng.Intn(cores)
					got := snap.TryPlace(tk, c)
					records[r] = append(records[r], forkProbeRecord{clone: clone, t: tk, core: c, got: got})
				}
				if rrng.Intn(4) == 0 {
					records[r] = append(records[r], forkProbeRecord{clone: clone, got: snap.Schedulable()})
				}
				recorded.Add(3)
				runtime.Gosched()
			}
		}(r)
	}

	// The owner: a churn of admissions, rejections, rollbacks and
	// removals, every committed mutation publishing a fresh snapshot.
	var admitted []*task.Task
	next := int64(1 << 20)
	for op := 0; op < writerOps; op++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4, 5:
			next++
			tk := probeTask(rng, next)
			tk.Priority = 100 + int(next%1000)
			c := rng.Intn(cores)
			if ctx.TryPlace(tk, c) {
				ctx.Commit()
				admitted = append(admitted, tk)
			} else {
				ctx.Rollback()
			}
		case 6, 7:
			if len(admitted) > 0 {
				i := rng.Intn(len(admitted))
				ctx.Remove(admitted[i].ID)
				admitted = append(admitted[:i], admitted[i+1:]...)
			}
		case 8:
			next++
			tk := probeTask(rng, next)
			ctx.TryPlace(tk, rng.Intn(cores))
			ctx.Rollback()
		default:
			ctx.Schedulable()
		}
		// Interleave with the readers even on GOMAXPROCS=1 — the
		// interesting schedules are probes spanning a commit.
		runtime.Gosched()
	}
	// Don't stop before every reader had real overlap with the churn.
	for recorded.Load() < int64(3*readers) {
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()

	// Replay every recorded answer against the stateless analyzer.
	replayed := 0
	for _, recs := range records {
		for _, rec := range recs {
			if rec.t == nil {
				want := an.Schedulable(rec.clone, m)
				if rec.got != want {
					t.Fatalf("raced Schedulable=%v, stateless replay=%v (policy %v)", rec.got, want, an.Policy())
				}
			} else {
				// Replay mutates the clone; undo afterwards so later
				// records over the same snapshot replay correctly.
				rec.clone.Place(rec.t, rec.core)
				want := an.CoreSchedulable(rec.clone, rec.core, m)
				n := len(rec.clone.Normal[rec.core])
				rec.clone.Normal[rec.core] = rec.clone.Normal[rec.core][:n-1]
				if rec.got != want {
					t.Fatalf("raced TryPlace(%v, core %d)=%v, stateless replay=%v (policy %v)",
						rec.t, rec.core, rec.got, want, an.Policy())
				}
			}
			replayed++
		}
	}
	if replayed == 0 {
		t.Fatal("no reader answers recorded; the race degenerated")
	}
	ctx.Flush()
	t.Logf("%v/%d-writer-ops: replayed %d raced reader answers", an.Policy(), writerOps, replayed)
}

// TestForkRacingWriterFuzz races forked readers against a committing
// writer for both policies and replays every answer statelessly.
// Run it under -race (the CI race job does).
func TestForkRacingWriterFuzz(t *testing.T) {
	ops := 400
	if testing.Short() {
		ops = 120
	}
	runForkRace(t, FixedPriorityRTA, overhead.PaperModel(), 20260731, ops, 4)
	runForkRace(t, EDFDemand, overhead.PaperModel(), 20260732, ops, 4)
	// Non-monotone model: the cold-fallback read path raced too.
	runForkRace(t, FixedPriorityRTA, overhead.PaperModel().WithRemotePenalty(4), 20260733, ops/2, 2)
}
