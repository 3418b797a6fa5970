package analysis

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/overhead"
	"repro/internal/task"
	"repro/internal/timeq"
)

// The probe-verdict memo's trial: a record whose traffic never repeats
// a shape retires and holds no table; catalog traffic keeps its memo
// and its hit ratio; retirement belongs to the record, so it survives
// a publish that carries the record over and ends with the record.

// memoFixture commits a few light tasks per core behind a published
// context; core 0 hosts the most, so a commit onto another core leaves
// the queue bound (and with it every other record) alone.
func memoFixture(t *testing.T, an Analyzer) Context {
	t.Helper()
	ctx := an.NewContext(task.NewAssignment(4), overhead.PaperModel())
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 14; i++ {
		c := i % 4
		if i >= 12 {
			c = 0
		}
		ctx.Place(probeTask(rng, int64(i+1)), c)
	}
	ctx.Fork()
	return ctx
}

// coreMemo returns core c's memo record of a published snapshot.
func coreMemo(s Snapshot, c int) *probeCache {
	switch s := s.(type) {
	case *fpSnapshot:
		return s.cores[c].probes
	case *edfSnapshot:
		return s.cores[c].probes
	}
	panic("unknown snapshot type")
}

// uniqueTask is a light task whose ns-grained period no other id
// shares.
func uniqueTask(id int64) *task.Task {
	period := 50*timeq.Millisecond + timeq.Time(id)
	return &task.Task{ID: task.ID(id), WCET: period / 80, Period: period, Priority: 20000, WSS: 64 << 10}
}

// retireMemo probes core c with unique shapes until its record gives
// the memo up.
func retireMemo(t *testing.T, snap Snapshot, c int) {
	t.Helper()
	for i := int64(0); i < 2*probeTrialInserts; i++ {
		snap.TryPlace(uniqueTask(1<<30+i), c)
	}
	if !coreMemo(snap, c).retired() {
		t.Fatalf("%v: core %d's record did not retire", snap.Analyzer().Policy(), c)
	}
}

func TestProbeMemoRetiresOnUniqueShapes(t *testing.T) {
	for _, an := range []Analyzer{FixedPriorityRTA, EDFDemand} {
		ctx := memoFixture(t, an)
		snap := ctx.Fork()
		pc := coreMemo(snap, 0)
		maxSlots := 0
		for i := int64(0); i < 10000; i++ {
			snap.TryPlace(uniqueTask(1<<30+i), 0)
			if tab := pc.tab.Load(); tab != nil && len(tab.slots) > maxSlots {
				maxSlots = len(tab.slots)
			}
		}
		if !pc.retired() || pc.tab.Load() != nil {
			t.Fatalf("%v: 10000 unique shapes left the record state %d with table %v; want retired, none",
				an.Policy(), pc.state.Load(), pc.tab.Load())
		}
		// The bound is asserted, not assumed: the trial's table never
		// grew past the one that holds probeTrialInserts entries.
		if maxSlots > 2*probeTrialInserts {
			t.Fatalf("%v: the trial's table reached %d slots, want ≤ %d", an.Policy(), maxSlots, 2*probeTrialInserts)
		}
		st := ctx.ReadStats()
		if st.Probes != 10000 || st.VerdictHits != 0 {
			t.Fatalf("%v: %d probes, %d memo hits; want 10000, 0", an.Policy(), st.Probes, st.VerdictHits)
		}
		// Retired, a probe neither stores nor finds: a repeat solves again.
		before := ctx.ReadStats()
		tk := uniqueTask(1 << 29)
		first := snap.TryPlace(tk, 0)
		if again := snap.TryPlace(tk, 0); again != first {
			t.Fatalf("%v: retired re-probe diverged: %v then %v", an.Policy(), first, again)
		}
		if d := ctx.ReadStats().Sub(before); d.VerdictHits != 0 || d.CoreTests != 2 {
			t.Fatalf("%v: retired record served %+v", an.Policy(), d)
		}
	}
}

// TestProbeMemoKeepsCatalogTraffic streams a catalog of task shapes at
// one core — the daemon's 50 classes and a longer one of 200 — in
// random order and round-robin (no repeat before the K+1st probe: the
// order a trial is most likely to misjudge). Every probe after a
// class's first must hit, exactly as before the trial existed.
func TestProbeMemoKeepsCatalogTraffic(t *testing.T) {
	const draws = 5000
	for _, classes := range []int{50, 200} {
		catalog := make([]*task.Task, classes)
		for i := range catalog {
			period := timeq.Time(20*(1+i%10))*timeq.Millisecond + timeq.Time(i/50)
			catalog[i] = &task.Task{ID: task.ID(1<<30 + i), WCET: period / timeq.Time(50+10*(i/10%5)), Period: period, Priority: 1000 + i%16, WSS: 64 << 10}
		}
		for _, an := range []Analyzer{FixedPriorityRTA, EDFDemand} {
			for _, order := range []string{"random", "round-robin"} {
				ctx := memoFixture(t, an)
				snap := ctx.Fork()
				rng := rand.New(rand.NewSource(11))
				seen := map[int]bool{}
				for i := 0; i < draws; i++ {
					k := i % classes
					if order == "random" {
						k = rng.Intn(classes)
					}
					seen[k] = true
					snap.TryPlace(catalog[k], 0)
				}
				st := ctx.ReadStats()
				got := float64(st.VerdictHits) / float64(st.Probes)
				want := float64(draws-len(seen)) / float64(draws) // every repeat a hit: the untried memo's ratio
				if got < want-0.02 {
					t.Errorf("%v/%d classes/%s: hit ratio %.4f, want within 0.02 of %.4f", an.Policy(), classes, order, got, want)
				}
				if pc := coreMemo(snap, 0); pc.retired() {
					t.Errorf("%v/%d classes/%s: catalog traffic retired its memo", an.Policy(), classes, order)
				}
			}
		}
	}
}

func TestProbeMemoRetirementFollowsTheRecord(t *testing.T) {
	for _, an := range []Analyzer{FixedPriorityRTA, EDFDemand} {
		ctx := memoFixture(t, an)
		snap := ctx.Fork()
		retireMemo(t, snap, 0)
		retireMemo(t, snap, 1)
		// A commit onto core 1 dirties that record only.
		tk := uniqueTask(1 << 28)
		if !ctx.TryPlace(tk, 1) {
			t.Fatalf("%v: fixture task does not fit", an.Policy())
		}
		ctx.Commit()
		next := ctx.Fork()
		if next == snap {
			t.Fatalf("%v: commit published nothing", an.Policy())
		}
		if pc := coreMemo(next, 0); pc != coreMemo(snap, 0) || !pc.retired() {
			t.Errorf("%v: the untouched core's retired record was not carried over retired", an.Policy())
		}
		fresh := coreMemo(next, 1)
		if fresh == coreMemo(snap, 1) || fresh.state.Load() != memoTrial || fresh.tab.Load() != nil {
			t.Fatalf("%v: the dirtied core did not get a fresh record on trial", an.Policy())
		}
		// The fresh record memoizes again.
		before := ctx.ReadStats()
		probe := uniqueTask(1 << 27)
		next.TryPlace(probe, 1)
		next.TryPlace(probe, 1)
		if d := ctx.ReadStats().Sub(before); d.VerdictHits != 1 {
			t.Errorf("%v: fresh record served %d hits of 2 probes, want 1", an.Policy(), d.VerdictHits)
		}
	}
}

// TestProbeMemoConcurrentTrial races lookups, stores and the trial's
// decision on one record: mostly unique keys, so it retires mid-race,
// and a few repeated ones whose verdict is a function of the key, so a
// hit that returned another key's verdict would show. Run under -race.
func TestProbeMemoConcurrentTrial(t *testing.T) {
	verdictOf := func(k probeKey) bool { return k.c%3 == 0 }
	for _, repeatEvery := range []int64{0, 3} { // all unique; a third repeated (the record is kept)
		var pc probeCache
		var wg sync.WaitGroup
		for g := int64(0); g < 8; g++ {
			wg.Add(1)
			go func(g int64) {
				defer wg.Done()
				for i := int64(0); i < 4000; i++ {
					k := probeKey{c: timeq.Time(g<<32 | i), t: 1000, d: 1000, prio: 1}
					if repeatEvery > 0 && i%repeatEvery == 0 {
						k.c = timeq.Time(i % 7)
					}
					if v, hit := pc.lookup(k); hit {
						if v != verdictOf(k) {
							t.Errorf("lookup(%+v) = %v, stored %v", k, v, verdictOf(k))
							return
						}
						continue
					}
					pc.store(k, verdictOf(k))
				}
			}(g)
		}
		wg.Wait()
		switch st := pc.state.Load(); {
		case repeatEvery == 0 && (st != memoRetired || pc.tab.Load() != nil):
			t.Errorf("unique keys: state %d, table %v; want retired, none", st, pc.tab.Load())
		case repeatEvery > 0 && st != memoKept:
			t.Errorf("repeated keys: state %d, want kept", st)
		}
	}
}

// TestRetiredProbeAllocFree guards the path unique-shape traffic
// takes once its record has retired: no key, no lock, no table — a
// chain-free solve from pooled scratch.
func TestRetiredProbeAllocFree(t *testing.T) {
	for _, an := range []Analyzer{FixedPriorityRTA, EDFDemand} {
		ctx := memoFixture(t, an)
		snap := ctx.Fork()
		retireMemo(t, snap, 0)
		tk := uniqueTask(1 << 29)
		assertZeroAllocs(t, an.Policy().String()+"/retired TryPlace", func() {
			snap.TryPlace(tk, 0)
		})
	}
}
