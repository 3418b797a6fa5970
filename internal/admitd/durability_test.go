package admitd

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"repro/api"
)

// durableConfig is the in-process durability-test configuration: the
// periodic checkpoint driver is off, so tests control exactly what
// reaches the disk and when.
func durableConfig(dir string) Config {
	return Config{DataDir: dir, CheckpointEvery: -1}
}

// crashServer simulates kill -9 for in-process durability tests: the
// checkpoint driver halts, every actor stops WITHOUT snapshotting,
// and the commit log closes. Nothing but what the log already
// holds survives — exactly a crash's disk state. The server's later
// Close (the test cleanup) finds an empty store and is a no-op.
func crashServer(srv *Server) {
	st := srv.store
	st.stopCheckpoints()
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		live := make([]*Session, 0, len(sh.m))
		for name, s := range sh.m {
			live = append(live, s)
			delete(sh.m, name)
			st.count.Add(-1)
		}
		sh.mu.Unlock()
		for _, s := range live {
			s.close()
		}
	}
	if st.plane != nil {
		st.plane.closeLog()
	}
}

// admitAcked admits n deterministic low-utilization tasks (ids
// idBase..idBase+n-1) and returns how many were acked admitted —
// each acked admission is one durable commit-log record.
func admitAcked(t *testing.T, srv *Server, name string, idBase int64, n int) int {
	t.Helper()
	acked := 0
	for i := 0; i < n; i++ {
		body := mustStatus(t, srv, "POST", "/v1/sessions/"+name+"/admit",
			api.AdmitRequest{Task: api.Task{
				ID: idBase + int64(i), WCETNs: 1_000_000, PeriodNs: 100_000_000,
				DeadlineNs: 100_000_000, Priority: int(idBase) + i + 1,
			}}, http.StatusOK)
		var v api.Verdict
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		if v.Admitted {
			acked++
		}
	}
	return acked
}

// sessionState reads a session's committed state bytes (the read
// path's rendered body — the bit-identity witness).
func sessionState(t *testing.T, srv *Server, name string) []byte {
	t.Helper()
	return mustStatus(t, srv, "GET", "/v1/sessions/"+name, nil, http.StatusOK)
}

// TestDurableCrashRecoveryBitIdentical drives the plane's core
// invariant: after a crash (no checkpoints at all), replaying the
// commit log rebuilds every session bit-identically to the state the
// clients saw acked.
func TestDurableCrashRecoveryBitIdentical(t *testing.T) {
	dir := t.TempDir()
	srv := newTestServer(t, durableConfig(dir))

	names := []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot"}
	want := map[string][]byte{}
	for i, name := range names {
		policy := "fp"
		if i%2 == 1 {
			policy = "edf"
		}
		mustStatus(t, srv, "POST", "/v1/sessions",
			api.CreateSessionRequest{Name: name, Cores: 4, Policy: policy}, http.StatusCreated)
		admitAcked(t, srv, name, 1, 5+i)
		// Exercise removal records too.
		mustStatus(t, srv, "POST", "/v1/sessions/"+name+"/remove",
			api.RemoveRequest{ID: 2}, http.StatusOK)
		want[name] = sessionState(t, srv, name)
	}
	crashServer(srv)

	srv2 := newTestServer(t, durableConfig(dir))
	if srv2.store.plane.recoveredRecords == 0 {
		t.Fatal("recovery replayed no records")
	}
	for _, name := range names {
		got := sessionState(t, srv2, name)
		if string(got) != string(want[name]) {
			t.Fatalf("session %q state diverged after crash recovery:\n pre: %s\npost: %s", name, want[name], got)
		}
	}
}

// TestDurableCountersSurviveCrash checks the counters recovery can
// reconstruct: admitted/removed replay from the log; rejected resets
// to the last checkpoint (rejections never mutate committed state,
// so they are deliberately not logged).
func TestDurableCountersSurviveCrash(t *testing.T) {
	dir := t.TempDir()
	srv := newTestServer(t, durableConfig(dir))
	mustStatus(t, srv, "POST", "/v1/sessions",
		api.CreateSessionRequest{Name: "c", Cores: 2, Policy: "fp"}, http.StatusCreated)
	acked := admitAcked(t, srv, "c", 1, 6)
	mustStatus(t, srv, "POST", "/v1/sessions/c/remove", api.RemoveRequest{ID: 1}, http.StatusOK)
	crashServer(srv)

	srv2 := newTestServer(t, durableConfig(dir))
	body := mustStatus(t, srv2, "GET", "/v1/sessions/c/stats", nil, http.StatusOK)
	var stats api.SessionStats
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Admitted != int64(acked) || stats.Removed != 1 {
		t.Fatalf("recovered counters admitted=%d removed=%d, want %d and 1", stats.Admitted, stats.Removed, acked)
	}
	if stats.Tasks != acked-1 {
		t.Fatalf("recovered task count %d, want %d", stats.Tasks, acked-1)
	}
}

// TestDurableCheckpointBoundsReplay: a checkpoint plus compaction
// truncates the replayed prefix; recovery = checkpoint + tail, still
// bit-identical.
func TestDurableCheckpointBoundsReplay(t *testing.T) {
	dir := t.TempDir()
	srv := newTestServer(t, durableConfig(dir))
	mustStatus(t, srv, "POST", "/v1/sessions",
		api.CreateSessionRequest{Name: "ck", Cores: 4, Policy: "fp"}, http.StatusCreated)
	admitAcked(t, srv, "ck", 1, 8)
	if err := srv.store.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ent := srv.store.plane.lookup("ck")
	if ent == nil || ent.ckptSeq.Load() <= 0 {
		t.Fatalf("checkpoint did not advance the compaction watermark: %+v", ent)
	}
	// Tail after the checkpoint.
	admitAcked(t, srv, "ck", 100, 4)
	want := sessionState(t, srv, "ck")
	crashServer(srv)

	srv2 := newTestServer(t, durableConfig(dir))
	if got := sessionState(t, srv2, "ck"); string(got) != string(want) {
		t.Fatalf("checkpoint+tail recovery diverged:\n pre: %s\npost: %s", want, got)
	}
}

// TestDurableDeleteRecreate: delete retires the generation (tombstone
// + checkpoint removal), recreate opens a fresh one, and both
// transitions survive a crash.
func TestDurableDeleteRecreate(t *testing.T) {
	dir := t.TempDir()
	srv := newTestServer(t, durableConfig(dir))
	mustStatus(t, srv, "POST", "/v1/sessions",
		api.CreateSessionRequest{Name: "gen", Cores: 2, Policy: "fp"}, http.StatusCreated)
	admitAcked(t, srv, "gen", 1, 3)
	mustStatus(t, srv, "DELETE", "/v1/sessions/gen", nil, http.StatusOK)
	// Recreate under the same name: a fresh generation with different
	// content.
	mustStatus(t, srv, "POST", "/v1/sessions",
		api.CreateSessionRequest{Name: "gen", Cores: 3, Policy: "edf"}, http.StatusCreated)
	admitAcked(t, srv, "gen", 50, 2)
	if g := srv.store.plane.lookup("gen").gen; g != 2 {
		t.Fatalf("recreated session generation %d, want 2", g)
	}
	want := sessionState(t, srv, "gen")
	crashServer(srv)

	srv2 := newTestServer(t, durableConfig(dir))
	if got := sessionState(t, srv2, "gen"); string(got) != string(want) {
		t.Fatalf("recreated-generation recovery diverged:\n pre: %s\npost: %s", want, got)
	}
}

// TestDurableDeleteSurvivesCrash: an acked delete must not resurrect.
func TestDurableDeleteSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	srv := newTestServer(t, durableConfig(dir))
	mustStatus(t, srv, "POST", "/v1/sessions",
		api.CreateSessionRequest{Name: "gone", Cores: 2, Policy: "fp"}, http.StatusCreated)
	admitAcked(t, srv, "gone", 1, 2)
	mustStatus(t, srv, "DELETE", "/v1/sessions/gone", nil, http.StatusOK)
	crashServer(srv)

	srv2 := newTestServer(t, durableConfig(dir))
	mustStatus(t, srv2, "GET", "/v1/sessions/gone", nil, http.StatusNotFound)
}

// TestDurableCreateAckSurvivesCrash: a bare acked create (no
// mutations yet) is already durable.
func TestDurableCreateAckSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	srv := newTestServer(t, durableConfig(dir))
	mustStatus(t, srv, "POST", "/v1/sessions",
		api.CreateSessionRequest{Name: "bare", Cores: 3, Policy: "edf"}, http.StatusCreated)
	crashServer(srv)

	srv2 := newTestServer(t, durableConfig(dir))
	body := sessionState(t, srv2, "bare")
	var state api.State
	if err := json.Unmarshal(body, &state); err != nil {
		t.Fatal(err)
	}
	if state.Cores != 3 || len(state.Tasks) != 0 {
		t.Fatalf("bare create recovered as %s", body)
	}
	// And the name stays reserved: recreating it must conflict.
	mustStatus(t, srv2, "POST", "/v1/sessions",
		api.CreateSessionRequest{Name: "bare", Cores: 1, Policy: "fp"}, http.StatusConflict)
}

// TestDurableGracefulRestart: Close checkpoints everything and
// compacts; reopening restores bit-identically from checkpoints.
func TestDurableGracefulRestart(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	mustStatus(t, srv, "POST", "/v1/sessions",
		api.CreateSessionRequest{Name: "g", Cores: 4, Policy: "fp"}, http.StatusCreated)
	admitAcked(t, srv, "g", 1, 6)
	want := sessionState(t, srv, "g")
	srv.Close()

	srv2 := newTestServer(t, durableConfig(dir))
	if got := sessionState(t, srv2, "g"); string(got) != string(want) {
		t.Fatalf("graceful restart diverged:\n pre: %s\npost: %s", want, got)
	}
}

// TestDurableEvictionRestore: LRU eviction checkpoints the victim;
// the next touch restores it through checkpoint + tail replay.
func TestDurableEvictionRestore(t *testing.T) {
	dir := t.TempDir()
	srv := newTestServer(t, Config{DataDir: dir, CheckpointEvery: -1, MaxSessions: 2})
	mustStatus(t, srv, "POST", "/v1/sessions",
		api.CreateSessionRequest{Name: "old", Cores: 2, Policy: "fp"}, http.StatusCreated)
	admitAcked(t, srv, "old", 1, 4)
	want := sessionState(t, srv, "old")
	// Two more creates push "old" out.
	mustStatus(t, srv, "POST", "/v1/sessions",
		api.CreateSessionRequest{Name: "new1", Cores: 2, Policy: "fp"}, http.StatusCreated)
	mustStatus(t, srv, "POST", "/v1/sessions",
		api.CreateSessionRequest{Name: "new2", Cores: 2, Policy: "fp"}, http.StatusCreated)
	if srv.store.evicted.Load() == 0 {
		t.Fatal("expected an eviction")
	}
	if got := sessionState(t, srv, "old"); string(got) != string(want) {
		t.Fatalf("evicted session restored differently:\n pre: %s\npost: %s", want, got)
	}
	if srv.store.restored.Load() == 0 {
		t.Fatal("restore did not count")
	}
}

// TestAuditReplay: the audit endpoint rebuilds state as of seq-1 and
// re-runs the logged mutation with the collector on. The audited admit
// lands below two heavy tasks on core 0, where neither its bounds nor
// the second task's decide without a fixed point: the re-run must
// solve some.
func TestAuditReplay(t *testing.T) {
	dir := t.TempDir()
	srv := newTestServer(t, durableConfig(dir))
	mustStatus(t, srv, "POST", "/v1/sessions",
		api.CreateSessionRequest{Name: "au", Cores: 2, Policy: "fp"}, http.StatusCreated)
	acked := 0
	for i, wcet := range []int64{40_000_000, 40_000_000, 15_000_000, 1_000_000} {
		body := mustStatus(t, srv, "POST", "/v1/sessions/au/admit", api.AdmitRequest{Task: api.Task{
			ID: int64(i + 1), WCETNs: wcet, PeriodNs: 100_000_000, DeadlineNs: 100_000_000, Priority: i + 1,
		}}, http.StatusOK)
		var v api.Verdict
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		if v.Admitted {
			acked++
		}
	}
	if acked != 4 {
		t.Fatalf("setup: %d/4 admitted", acked)
	}
	mustStatus(t, srv, "POST", "/v1/sessions/au/remove", api.RemoveRequest{ID: 2}, http.StatusOK)

	var rep api.AuditReport
	body := mustStatus(t, srv, "GET", "/v1/sessions/au/audit?seq=3", nil, http.StatusOK)
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Seq != 3 || rep.Op != "admit" || rep.TaskID != 3 || !rep.Admitted || rep.Task == nil {
		t.Fatalf("audit seq 3: %+v", rep)
	}
	if rep.Tasks != 2 {
		t.Fatalf("audit seq 3 base task count %d, want 2", rep.Tasks)
	}
	if rep.Admission.Probes == 0 || rep.Admission.FPSolves == 0 {
		t.Fatalf("audit re-run collected no admission stats: %+v", rep.Admission)
	}
	// The remove record audits too.
	body = mustStatus(t, srv, "GET", fmt.Sprintf("/v1/sessions/au/audit?seq=%d", acked+1), nil, http.StatusOK)
	rep = api.AuditReport{}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Op != "remove" || rep.TaskID != 2 || rep.Task != nil {
		t.Fatalf("audit remove: %+v", rep)
	}

	// Error surface: seq 0 and non-numeric are 400s; past the end is
	// 400; audits below a compacted checkpoint are 410.
	mustStatus(t, srv, "GET", "/v1/sessions/au/audit?seq=0", nil, http.StatusBadRequest)
	mustStatus(t, srv, "GET", "/v1/sessions/au/audit?seq=x", nil, http.StatusBadRequest)
	mustStatus(t, srv, "GET", "/v1/sessions/au/audit?seq=99", nil, http.StatusBadRequest)
	if err := srv.store.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustStatus(t, srv, "GET", "/v1/sessions/au/audit?seq=3", nil, http.StatusGone)
}

// TestAuditNeedsDurability: without -data-dir the audit surface
// reports the whole log as truncated.
func TestAuditNeedsDurability(t *testing.T) {
	srv := newTestServer(t, Config{})
	mustStatus(t, srv, "POST", "/v1/sessions",
		api.CreateSessionRequest{Name: "nd", Cores: 2, Policy: "fp"}, http.StatusCreated)
	mustStatus(t, srv, "GET", "/v1/sessions/nd/audit?seq=1", nil, http.StatusGone)
}

// TestDurableWalMetrics: the exposition reflects commit-log activity.
func TestDurableWalMetrics(t *testing.T) {
	dir := t.TempDir()
	srv := newTestServer(t, durableConfig(dir))
	mustStatus(t, srv, "POST", "/v1/sessions",
		api.CreateSessionRequest{Name: "m", Cores: 2, Policy: "fp"}, http.StatusCreated)
	admitAcked(t, srv, "m", 1, 3)
	st := srv.store.plane.stats()
	if st.Appends == 0 || st.Segments == 0 || st.Bytes == 0 {
		t.Fatalf("plane stats after activity: %+v", st)
	}
	if live, _ := srv.store.plane.streamCounts(); live != 1 {
		t.Fatalf("stream counts: live=%d, want 1", live)
	}
	if err := srv.store.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, ckpt := srv.store.plane.streamCounts(); ckpt != 1 {
		t.Fatal("checkpointed stream count did not advance")
	}
	// A fresh directory recovered nothing and read nothing back.
	expo := scrapeMetrics(t, srv)
	for _, series := range []string{
		"admitd_wal_recovered_records", "admitd_wal_recovery_truncated_segments",
		"admitd_wal_recovery_dropped_bytes", "admitd_wal_read_bytes_total", "admitd_wal_errors_total",
	} {
		if got := sampleValue(t, expo, series); got != "0" {
			t.Fatalf("%s = %s on a fresh data directory, want 0", series, got)
		}
	}
	// After a crash the recovery summary shows the tail the restart
	// folded, and the bytes it read for it: each segment once.
	acked := admitAcked(t, srv, "m", 100, 4)
	crashServer(srv)
	onDisk := segmentBytes(t, dir)
	srv2 := newTestServer(t, durableConfig(dir))
	sessionState(t, srv2, "m")
	expo = scrapeMetrics(t, srv2)
	for series, want := range map[string]string{
		"admitd_wal_recovered_records":           fmt.Sprint(acked + 1), // the checkpoint record, then the tail
		"admitd_wal_recovered_checkpoints":       "1",
		"admitd_wal_recovery_truncated_segments": "0",
		"admitd_wal_recovery_dropped_bytes":      "0",
		"admitd_wal_read_bytes_total":            fmt.Sprint(onDisk),
		"admitd_wal_errors_total":                "0",
	} {
		if got := sampleValue(t, expo, series); got != want {
			t.Fatalf("after a restart %s = %s, want %s", series, got, want)
		}
	}
}

// TestDurableGroupBackgroundSync pins the group policy's bounded-loss
// contract: acks release at apply time and the background committer
// fsyncs dirty logs on its own cadence, so fsync counts grow without
// any explicit commit or checkpoint from the caller.
func TestDurableGroupBackgroundSync(t *testing.T) {
	dir := t.TempDir()
	srv := newTestServer(t, durableConfig(dir))
	mustStatus(t, srv, "POST", "/v1/sessions",
		api.CreateSessionRequest{Name: "bg", Cores: 2, Policy: "fp"}, http.StatusCreated)
	if n := admitAcked(t, srv, "bg", 1, 3); n == 0 {
		t.Fatal("no acked admissions")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := srv.store.plane.stats(); st.Fsyncs > 0 {
			return
		}
		if time.Now().After(deadline) {
			st := srv.store.plane.stats()
			t.Fatalf("background committer never fsynced: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
