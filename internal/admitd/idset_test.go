package admitd

import (
	"math/rand"
	"testing"

	"repro/internal/task"
	"repro/internal/timeq"
)

// Edge-case coverage for the lock-free committed-ID set: tombstone
// reuse, rebuild threshold crossings, growth decisions, and probe
// chains that span tombstones. The tests live in-package on purpose —
// the interesting invariants (used/live bookkeeping, table size) are
// writer-side internals that the public surface only reveals as
// performance.

// idSetKeys collects the live keys via each.
func idSetKeys(s *idSet) map[task.ID]bool {
	got := map[task.ID]bool{}
	s.each(func(id task.ID) { got[id] = true })
	return got
}

// chainIDs returns n distinct ids that all hash to the same initial
// slot of a table with the given mask, forcing one linear probe chain.
func chainIDs(tb testing.TB, mask uint64, n int) []task.ID {
	tb.Helper()
	want := idHash(1) & mask
	ids := []task.ID{1}
	for id := task.ID(2); len(ids) < n; id++ {
		if idHash(id)&mask == want {
			ids = append(ids, id)
		}
		if id > 1<<20 {
			tb.Fatalf("no %d-way collision found for mask %d", n, mask)
		}
	}
	return ids
}

func TestIDSetTombstoneReuse(t *testing.T) {
	s := newIDSet()
	s.add(42, 1)
	t0 := s.tab.Load()
	if t0.live != 1 || t0.used != 1 {
		t.Fatalf("after add: live=%d used=%d, want 1/1", t0.live, t0.used)
	}
	s.remove(42)
	if t0.live != 0 || t0.used != 1 {
		t.Fatalf("after remove: live=%d used=%d, want 0/1 (tombstone keeps the slot used)", t0.live, t0.used)
	}
	if s.has(42) {
		t.Fatal("has(42) after remove")
	}
	// Re-adding the same key must land on the tombstone, not burn a
	// fresh slot: used stays flat across arbitrary churn of one key.
	for i := 0; i < 100; i++ {
		s.add(42, 1)
		s.remove(42)
	}
	s.add(42, 1)
	t1 := s.tab.Load()
	if t1 != t0 {
		t.Fatal("single-key churn rebuilt the table; tombstone reuse failed")
	}
	if t1.live != 1 || t1.used != 1 {
		t.Fatalf("after churn: live=%d used=%d, want 1/1", t1.live, t1.used)
	}
	if !s.has(42) {
		t.Fatal("has(42) after re-add")
	}
}

func TestIDSetProbeChainPastTombstones(t *testing.T) {
	s := newIDSet()
	mask := uint64(len(s.tab.Load().slots) - 1)
	ids := chainIDs(t, mask, 5)
	for _, id := range ids {
		s.add(id, 1)
	}
	// Tombstone the head and middle of the chain: lookups for the tail
	// must probe straight past both.
	s.remove(ids[0])
	s.remove(ids[2])
	for i, id := range ids {
		want := i != 0 && i != 2
		if s.has(id) != want {
			t.Fatalf("has(%d) = %v, want %v", id, !want, want)
		}
	}
	// Re-add the head: it reuses its own tombstone (first reusable slot
	// in the chain) and the tail stays reachable.
	s.add(ids[0], 1)
	for i, id := range ids {
		want := i != 2
		if s.has(id) != want {
			t.Fatalf("after re-add: has(%d) = %v, want %v", id, !want, want)
		}
	}
}

func TestIDSetRebuildThreshold(t *testing.T) {
	cases := []struct {
		name     string
		live     int // distinct keys added and kept
		churn    int // extra keys added then removed (tombstones)
		wantSize int
	}{
		// 64-slot table rebuilds when used+1 reaches 3/4 of 64 = 48.
		{"under_threshold", 46, 0, idTableInit},
		// 47 live + the 48th add crosses; live dominates → double.
		{"grow_on_live", 48, 0, 2 * idTableInit},
		// Few live keys, tombstones push used over the threshold: the
		// rebuild purges churn and keeps the size.
		{"purge_keeps_size", 10, 37, idTableInit},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newIDSet()
			next := task.ID(1)
			for i := 0; i < tc.churn; i++ {
				s.add(next, 1)
				s.remove(next)
				next++
			}
			for i := 0; i < tc.live; i++ {
				s.add(next, 1)
				next++
			}
			tab := s.tab.Load()
			if len(tab.slots) != tc.wantSize {
				t.Fatalf("table size %d, want %d (live=%d used=%d)",
					len(tab.slots), tc.wantSize, tab.live, tab.used)
			}
			if tab.live != tc.live {
				t.Fatalf("live=%d, want %d", tab.live, tc.live)
			}
			// Every kept key is present, every churned key absent.
			for id := task.ID(1); id < next; id++ {
				want := int(id) > tc.churn
				if s.has(id) != want {
					t.Fatalf("has(%d) = %v, want %v", id, !want, want)
				}
			}
		})
	}
}

// TestIDSetRebuildSizeDecision pins rebuild's growth rule at the
// boundary: a table doubles exactly when live keys fill half of it
// (2*live >= size), so a republished table is never denser than half.
// Driven through rebuild directly — reaching the boundary through
// add() would depend on which tombstones the hash chains happen to
// reuse.
func TestIDSetRebuildSizeDecision(t *testing.T) {
	build := func(live int) *idSet {
		s := newIDSet()
		for i := 0; i < live; i++ {
			s.add(task.ID(i+1), 1)
		}
		return s
	}
	under := build(idTableInit/2 - 1)
	if got := under.rebuild(under.tab.Load()); len(got.slots) != idTableInit {
		t.Fatalf("rebuild at live=%d grew to %d, want %d", idTableInit/2-1, len(got.slots), idTableInit)
	}
	at := build(idTableInit / 2)
	if got := at.rebuild(at.tab.Load()); len(got.slots) != 2*idTableInit {
		t.Fatalf("rebuild at live=%d kept %d, want %d", idTableInit/2, len(got.slots), 2*idTableInit)
	}
	// The rebuilt tables are fully usable: every key survives.
	for _, s := range []*idSet{under, at} {
		tab := s.tab.Load()
		if tab.used != tab.live {
			t.Fatalf("rebuilt table kept tombstones: used=%d live=%d", tab.used, tab.live)
		}
		for i := 0; i < tab.live; i++ {
			if !s.has(task.ID(i + 1)) {
				t.Fatalf("key %d lost in rebuild", i+1)
			}
		}
	}
}

func TestIDSetGrowthDuringRebuild(t *testing.T) {
	// Interleave adds and removes so rebuilds happen while tombstones
	// and live keys are mixed; the set must keep growing cleanly and
	// never lose a live key across consecutive rebuilds.
	s := newIDSet()
	live := map[task.ID]bool{}
	for id := task.ID(1); id <= 4096; id++ {
		s.add(id, 1)
		live[id] = true
		if id%3 == 0 {
			s.remove(id / 3)
			delete(live, id/3)
		}
	}
	tab := s.tab.Load()
	if tab.live != len(live) {
		t.Fatalf("live=%d, want %d", tab.live, len(live))
	}
	if 4*tab.used >= 3*len(tab.slots) {
		t.Fatalf("table over load factor after growth: used=%d size=%d", tab.used, len(tab.slots))
	}
	got := idSetKeys(s)
	if len(got) != len(live) {
		t.Fatalf("each() saw %d keys, want %d", len(got), len(live))
	}
	for id := range live {
		if !s.has(id) {
			t.Fatalf("lost key %d across rebuilds", id)
		}
	}
	for id := task.ID(1); id <= 4096; id++ {
		if s.has(id) != live[id] {
			t.Fatalf("has(%d) = %v, want %v", id, !live[id], live[id])
		}
	}
}

// FuzzIDSet drives a random op sequence against a map model: after
// every op, membership, live count, each() and the period span agree
// exactly.
func FuzzIDSet(f *testing.F) {
	f.Add(int64(1), uint(256))
	f.Add(int64(7), uint(2000))
	f.Fuzz(func(t *testing.T, seed int64, n uint) {
		if n > 20000 {
			n = 20000
		}
		rng := rand.New(rand.NewSource(seed))
		s := newIDSet()
		model := map[task.ID]timeq.Time{}
		for i := uint(0); i < n; i++ {
			id := task.ID(rng.Intn(512)) // small key space forces churn
			switch rng.Intn(3) {
			case 0, 1:
				p := timeq.Time(1 + rng.Intn(8)) // few periods: extremes repeat
				s.add(id, p)
				if _, ok := model[id]; !ok {
					model[id] = p
				}
			case 2:
				s.remove(id)
				delete(model, id)
			}
			if _, ok := model[id]; s.has(id) != ok {
				t.Fatalf("op %d: has(%d) = %v, model %v", i, id, !ok, ok)
			}
			var lo, hi timeq.Time
			for _, p := range model {
				if lo == 0 || p < lo {
					lo = p
				}
				hi = max(hi, p)
			}
			if glo, ghi := s.span(); glo != lo || ghi != hi {
				t.Fatalf("op %d: span %d..%d, model %d..%d", i, glo, ghi, lo, hi)
			}
		}
		tab := s.tab.Load()
		if tab.live != len(model) {
			t.Fatalf("live=%d, model has %d", tab.live, len(model))
		}
		got := idSetKeys(s)
		if len(got) != len(model) {
			t.Fatalf("each() saw %d keys, model has %d", len(got), len(model))
		}
		for id := range model {
			if !got[id] {
				t.Fatalf("each() missed %d", id)
			}
		}
	})
}
