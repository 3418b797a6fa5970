package admitd

import (
	"context"
	"fmt"
	"testing"

	"repro/api"
	"repro/client"
)

// Allocation guards for the zero-alloc wire layer (PR 7): the codecs
// themselves must not allocate, and the full handler path — client
// encode, pooled transport, body slab, fast decode, session op, fast
// encode — must stay within the 8 allocs/op budget from the issue.
// CI runs these in the alloc-guard step (-run 'AllocFree').

// allocsAtMost asserts f stays within budget allocs/op after warmup.
func allocsAtMost(t *testing.T, name string, budget float64, f func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("alloc guards are meaningless under -race: sync.Pool drops Puts to randomize reuse")
	}
	for i := 0; i < 10; i++ {
		f() // warm pools, caches and verdict memos
	}
	if n := testing.AllocsPerRun(200, f); n > budget {
		t.Errorf("%s: %.2f allocs/op, budget %.1f", name, n, budget)
	}
}

// TestWireCodecAllocFree guards the wire codecs in isolation: fast
// request decode and fast response encode are zero-alloc.
func TestWireCodecAllocFree(t *testing.T) {
	// No task name: the body slab is pooled, so a present name must be
	// copied out and costs exactly one string allocation — everything
	// else decodes allocation-free.
	admitBody := []byte(`{"task":{"id":7,"wcet_ns":250000,"period_ns":20000000,"deadline_ns":20000000,"priority":103,"wss":65536},"core":2,"hold":true}`)
	sessAssertZeroAllocs(t, "decodeAdmit", func() {
		var dst api.AdmitRequest
		core, corePresent, err := decodeAdmit(admitBody, &dst)
		if err != nil {
			t.Fatal(err)
		}
		if !corePresent || core != 2 || dst.Task.ID != 7 || !dst.Hold {
			t.Fatalf("decodeAdmit wrong parse: %+v core=%d,%v", dst, core, corePresent)
		}
	})
	removeBody := []byte(`{"id":7}`)
	sessAssertZeroAllocs(t, "decodeRemove", func() {
		var dst api.RemoveRequest
		if err := decodeRemove(removeBody, &dst); err != nil {
			t.Fatal(err)
		}
		if dst.ID != 7 {
			t.Fatalf("decodeRemove wrong parse: %+v", dst)
		}
	})
	v := api.Verdict{TaskID: 7, Admitted: true, Core: 2, Probes: 3}
	buf := make([]byte, 0, 256)
	sessAssertZeroAllocs(t, "AppendVerdict", func() {
		buf = api.AppendVerdict(buf[:0], &v)
		if len(buf) == 0 {
			t.Fatal("empty verdict encoding")
		}
	})
	rm := api.Removed{Removed: true, ID: 7}
	sessAssertZeroAllocs(t, "AppendRemoved", func() {
		buf = api.AppendRemoved(buf[:0], &rm)
		if len(buf) == 0 {
			t.Fatal("empty removed encoding")
		}
	})
}

// TestHandlerPathAllocFree guards the edge-to-kernel budget end to
// end through the in-process client: every hot read endpoint must
// stay within 8 allocs/op (currently 3-5), and an admit/remove pair
// within its measured 42.
func TestHandlerPathAllocFree(t *testing.T) {
	srv, err := New(Config{MaxSessions: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := client.InProcess(srv)
	ctx := context.Background()
	sess, err := c.CreateSession(ctx, api.CreateSessionRequest{Name: "wirebudget", Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 12; i++ {
		core := int(i % 4)
		if _, err := sess.Admit(ctx, api.AdmitRequest{Task: benchTask(i), Core: &core}); err != nil {
			t.Fatal(err)
		}
	}
	const budget = 8
	tryReq := api.AdmitRequest{Task: benchTask(1 << 40)}
	allocsAtMost(t, "client.Try", budget, func() {
		if _, err := sess.Try(ctx, tryReq); err != nil {
			t.Fatal(err)
		}
	})
	var st api.State
	allocsAtMost(t, "client.StateInto", budget, func() {
		if err := sess.StateInto(ctx, &st); err != nil {
			t.Fatal(err)
		}
	})
	allocsAtMost(t, "client.Stats", budget, func() {
		if _, err := sess.Stats(ctx); err != nil {
			t.Fatal(err)
		}
	})
	// The write path: an admit and a remove, each a round trip into the
	// session actor, a commit and a snapshot publish. The budget is the
	// pair's measured cost, so one more allocation on either fails it.
	core := 1
	id := int64(1 << 30)
	allocsAtMost(t, "client.Admit+Remove", 42, func() {
		id++
		if v, err := sess.Admit(ctx, api.AdmitRequest{Task: benchTask(id), Core: &core}); err != nil || !v.Admitted {
			t.Fatalf("admit %d: %+v %v", id, v, err)
		}
		if _, err := sess.Remove(ctx, id); err != nil {
			t.Fatal(err)
		}
	})
}

// TestMetricsScrapeAllocFree prices one /metrics render into a reused
// buffer (shard merges, the store walk, the MemStats refresh) against
// eight live sessions. The scrape is off the hot path; the budget is
// its measured cost, so a 1 Hz scraper stays visibly harmless.
func TestMetricsScrapeAllocFree(t *testing.T) {
	srv, err := New(Config{MaxSessions: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := client.InProcess(srv)
	ctx := context.Background()
	id := int64(1)
	for i := 0; i < 8; i++ {
		sess, err := c.CreateSession(ctx, api.CreateSessionRequest{Name: fmt.Sprintf("scrape-%d", i), Cores: 4})
		if err != nil {
			t.Fatal(err)
		}
		for core := 0; core < 4; core++ {
			if _, err := sess.Admit(ctx, api.AdmitRequest{Task: benchTask(id), Core: &core}); err != nil {
				t.Fatal(err)
			}
			id++
		}
	}
	reg := srv.Metrics()
	buf := make([]byte, 0, 32<<10)
	allocsAtMost(t, "WritePrometheus", 24, func() {
		buf = reg.WritePrometheus(buf[:0])
	})
}
