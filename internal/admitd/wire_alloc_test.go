package admitd

import (
	"context"
	"fmt"
	"testing"

	"repro/api"
	"repro/client"
)

// Allocation guards for the zero-alloc wire layer: the codecs
// themselves must not allocate, and the full handler path — client
// encode, pooled transport, route table, body slab, fast decode,
// session op, fast encode — must stay within its measured budget.
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
// end through the in-process client. Each budget is the path's
// measured count, so one more allocation fails it: every response
// pays 2 for its Admitd-Api-Version and Content-Type values, so a try
// allocates 3 (also the SDK's request copy; the server's decoded core
// stays on the handler's stack), a stats read 4, a state read that hits
// the memo 2, an admit/remove pair 34, a held try and its rollback 16
// more, and a state read right after a commit — the memo misses and
// the body is encoded from the snapshot — 9 more than the pair it sits
// in, with or without a probe held.
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
	tryReq := api.AdmitRequest{Task: benchTask(1 << 40)}
	allocsAtMost(t, "client.Try", 3, func() {
		if _, err := sess.Try(ctx, tryReq); err != nil {
			t.Fatal(err)
		}
	})
	var st api.State
	allocsAtMost(t, "client.StateInto", 2, func() {
		if err := sess.StateInto(ctx, &st); err != nil {
			t.Fatal(err)
		}
	})
	allocsAtMost(t, "client.Stats", 4, func() {
		if _, err := sess.Stats(ctx); err != nil {
			t.Fatal(err)
		}
	})
	// The write path: an admit and a remove, each a round trip into the
	// session actor, a commit and a snapshot publish.
	core := 1
	id := int64(1 << 30)
	admitRemove := func(between func()) func() {
		return func() {
			id++
			if v, err := sess.Admit(ctx, api.AdmitRequest{Task: benchTask(id), Core: &core}); err != nil || !v.Admitted {
				t.Fatalf("admit %d: %+v %v", id, v, err)
			}
			between()
			if _, err := sess.Remove(ctx, id); err != nil {
				t.Fatal(err)
			}
		}
	}
	readState := func() {
		if err := sess.StateInto(ctx, &st); err != nil {
			t.Fatal(err)
		}
	}
	allocsAtMost(t, "client.Admit+Remove", 34, admitRemove(func() {}))
	allocsAtMost(t, "client.Admit+StateInto(miss)+Remove", 34+9, admitRemove(readState))
	// A held probe: a state read on a memo miss renders the
	// probe-pending variant, the longest overlay tail, and costs the
	// same 9 as the schedulable one.
	holdReq := api.AdmitRequest{Task: benchTask(1 << 41), Core: &core, Hold: true}
	holdRollback := func(between func()) func() {
		return func() {
			if v, err := sess.Try(ctx, holdReq); err != nil || !v.Admitted {
				t.Fatalf("held try: %+v %v", v, err)
			}
			between()
			if _, err := sess.Rollback(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	allocsAtMost(t, "client.Admit+Try(hold)+Rollback+Remove", 34+16, admitRemove(holdRollback(func() {})))
	allocsAtMost(t, "client.Admit+Try(hold)+StateInto(miss)+Rollback+Remove", 34+16+9, admitRemove(holdRollback(func() {
		readState()
		if !st.ProbePending {
			t.Fatalf("state under a held probe: %+v", st)
		}
	})))
}

// TestStateTailFitsPrefixAllocation: every overlay variant's tail fits
// the room the state memo leaves after the prefix, so the first
// variant is built in the prefix's own allocation.
func TestStateTailFitsPrefixAllocation(t *testing.T) {
	for _, c := range []struct {
		sched   *bool
		pending bool
	}{{&schedTrue, false}, {&schedFalse, false}, {nil, true}} {
		if n := len(api.AppendStateTail(nil, c.sched, c.pending)) + len("\n"); n > maxStateTail {
			t.Errorf("tail (schedulable %v, pending %v) is %d bytes, maxStateTail %d", c.sched, c.pending, n, maxStateTail)
		}
	}
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
