package admitd

import (
	"context"
	"errors"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"repro/api"
	"repro/client"
)

// TestCrashRecoveryE2E is the durability plane's acceptance test
// against the real daemon: build cmd/spadmitd, serve over TCP with
// -data-dir and -fsync always (the durable-on-ack policy; group
// trades a bounded loss window for throughput and cannot promise
// (a)), kill -9 mid-load, restart on the same directory, and require
// (a) every acked admission present after recovery and (b) the commit
// log dense across the crash: the audit surface answers for every
// recovered seq, and those records hold every acked admission.
func TestCrashRecoveryE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real daemon; skipped in -short")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "spadmitd")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/spadmitd")
	build.Dir = moduleRoot(t)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building spadmitd: %v\n%s", err, out)
	}
	dataDir := filepath.Join(dir, "data")

	// A free loopback port, reused across both daemon runs.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() //nolint:errcheck // freeing the port for the daemon

	start := func() *exec.Cmd {
		t.Helper()
		cmd := exec.Command(bin, "serve", "-addr", addr, "-data-dir", dataDir, "-fsync", "always", "-trace=false")
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting spadmitd: %v", err)
		}
		probe, err := client.New("http://"+addr, client.WithTimeout(time.Second))
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if probe.Health(context.Background()) == nil {
				return cmd
			}
			time.Sleep(20 * time.Millisecond)
		}
		_ = cmd.Process.Kill() //nolint:errcheck // giving up on this daemon
		t.Fatal("spadmitd did not become healthy in 10s")
		return nil
	}

	cmd := start()
	c, err := client.New("http://"+addr, client.WithTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sess, err := c.CreateSession(ctx, api.CreateSessionRequest{Name: "e2e", Cores: 8, Policy: "fp"})
	if err != nil {
		t.Fatal(err)
	}

	// Drive admissions until the daemon dies under us: each verdict
	// received is an acked, fsynced write. The kill lands mid-load, so
	// the last in-flight request may be lost unacked — that is the
	// contract; only acked writes must survive.
	killed := make(chan struct{})
	go func() {
		time.Sleep(300 * time.Millisecond)
		_ = cmd.Process.Kill() //nolint:errcheck // the crash under test (SIGKILL)
		close(killed)
	}()
	var acked []int64
	for id := int64(1); ; id++ {
		v, aerr := sess.Admit(ctx, api.AdmitRequest{Task: api.Task{
			ID: id, WCETNs: 100_000, PeriodNs: 1_000_000_000,
			DeadlineNs: 1_000_000_000, Priority: int(id),
		}})
		if aerr != nil {
			var apiErr *api.Error
			if errors.As(aerr, &apiErr) {
				t.Fatalf("admit %d: unexpected api error before the kill: %v", id, apiErr)
			}
			break // transport error: the daemon is dead
		}
		if !v.Admitted {
			t.Fatalf("admit %d rejected (utilization too high for the test rig)", id)
		}
		acked = append(acked, id)
	}
	<-killed
	_ = cmd.Wait() //nolint:errcheck // killed; exit status is the signal
	if len(acked) == 0 {
		t.Fatal("the daemon died before a single acked write; cannot exercise recovery")
	}
	t.Logf("killed spadmitd with %d acked admissions", len(acked))

	// Restart on the same data directory: recovery must hold every
	// acked write.
	cmd2 := start()
	defer func() {
		_ = cmd2.Process.Kill() //nolint:errcheck // test teardown
		_ = cmd2.Wait()         //nolint:errcheck // test teardown
	}()
	state, err := sess.State(ctx)
	if err != nil {
		t.Fatalf("reading recovered state: %v", err)
	}
	have := map[int64]bool{}
	for _, tk := range state.Tasks {
		have[tk.ID] = true
	}
	for _, id := range acked {
		if !have[id] {
			t.Fatalf("acked admission %d lost across the crash (%d acked, %d recovered)", id, len(acked), len(state.Tasks))
		}
	}
	// The unacked in-flight request may legitimately have committed
	// (response lost) — at most one extra task.
	if len(state.Tasks) > len(acked)+1 {
		t.Fatalf("recovered %d tasks, acked only %d", len(state.Tasks), len(acked))
	}

	// The log is dense across the crash: every mutation seq of the
	// recovered session answers an audit, none is seq_truncated, and
	// together they hold every acked admission. Every mutation here is
	// an admit, so the session's durable seq is its task count.
	last := int64(len(state.Tasks))
	logged := map[int64]bool{}
	for seq := int64(1); seq <= last; seq++ {
		rep, err := c.Session("e2e").Audit(ctx, seq)
		if err != nil {
			t.Fatalf("audit seq %d of %d after the crash: %v", seq, last, err)
		}
		if rep.Seq != seq || rep.Op != "admit" || !rep.Admitted {
			t.Fatalf("audit seq %d: %+v", seq, rep)
		}
		logged[rep.TaskID] = true
	}
	for _, id := range acked {
		if !logged[id] {
			t.Fatalf("acked admission %d is in no audited record 1..%d", id, last)
		}
	}
	if _, err := c.Session("e2e").Audit(ctx, last+1); err == nil || api.IsCode(err, api.CodeSeqTruncated) {
		t.Fatalf("audit past the recovered seq %d: err = %v, want a missing record", last, err)
	}
}

// moduleRoot locates the repo root (where go.mod lives) so the e2e
// build runs from anywhere in the package tree.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, serr := os.Stat(filepath.Join(dir, "go.mod")); serr == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above the test directory")
		}
		dir = parent
	}
}
