package admitd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/api"
	"repro/internal/analysis"
	"repro/internal/overhead"
	"repro/internal/partition"
	"repro/internal/task"
	"repro/internal/taskgen"
	"repro/internal/timeq"
)

// newTestServer builds a server for tests.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// doReq issues one in-process request and returns (status, body).
func doReq(t *testing.T, h http.Handler, method, path string, payload any) (int, []byte) {
	t.Helper()
	var body *bytes.Reader
	if payload != nil {
		data, err := json.Marshal(payload)
		if err != nil {
			t.Fatal(err)
		}
		body = bytes.NewReader(data)
	} else {
		body = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, body)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// mustStatus fails unless the request returns want.
func mustStatus(t *testing.T, h http.Handler, method, path string, payload any, want int) []byte {
	t.Helper()
	status, body := doReq(t, h, method, path, payload)
	if status != want {
		t.Fatalf("%s %s: HTTP %d (want %d): %s", method, path, status, want, body)
	}
	return body
}

// testSet draws a deterministic task set with RM priorities.
func testSet(n int, util float64, seed int64) *task.Set {
	return taskgen.New(taskgen.Config{N: n, TotalUtilization: util, Seed: seed}).Next()
}

// firstFitReplay computes the expected verdict of a first-fit
// admission with the *stateless* analyzer on a mirror assignment —
// the ground truth every server verdict must equal bit for bit.
func firstFitReplay(an analysis.Analyzer, mirror *task.Assignment, m *overhead.Model, tk *task.Task) (bool, int) {
	for c := 0; c < mirror.NumCores; c++ {
		mirror.Place(tk, c)
		ok := an.CoreSchedulable(mirror, c, m)
		if ok {
			return true, c
		}
		mirror.Normal[c] = mirror.Normal[c][:len(mirror.Normal[c])-1]
	}
	return false, -1
}

// removeFromMirror deletes a task from the mirror assignment.
func removeFromMirror(mirror *task.Assignment, id task.ID) {
	for c := range mirror.Normal {
		for i, t := range mirror.Normal[c] {
			if t.ID == id {
				mirror.Normal[c] = append(mirror.Normal[c][:i], mirror.Normal[c][i+1:]...)
				return
			}
		}
	}
}

// TestEndToEndFFDIdentity drives the acceptance criterion: create a
// session, admit a whole set incrementally in FFD order, and require
// the verdict sequence and the final assignment to be bit-identical
// to (a) a stateless core-by-core replay and (b) the offline FFD
// partitioner on the same set.
func TestEndToEndFFDIdentity(t *testing.T) {
	srv := newTestServer(t, Config{})
	model := overhead.Normalize(overhead.PaperModel())
	an := analysis.FixedPriorityRTA
	set := testSet(16, 0.55*4, 42)

	mustStatus(t, srv, "POST", "/v1/sessions", api.CreateSessionRequest{Name: "e2e", Cores: 4, Policy: "fp", Model: json.RawMessage(`"paper"`)}, http.StatusCreated)

	mirror := task.NewAssignment(4)
	order := set.SortedByUtilizationDesc()
	for _, tk := range order {
		wantOK, wantCore := firstFitReplay(an, mirror, model, tk)
		body := mustStatus(t, srv, "POST", "/v1/sessions/e2e/admit",
			api.AdmitRequest{Task: fromTask(tk, -1)}, http.StatusOK)
		var v api.Verdict
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		if v.Admitted != wantOK || v.Core != wantCore {
			t.Fatalf("task %d: server (%v, core %d) != stateless replay (%v, core %d)",
				tk.ID, v.Admitted, v.Core, wantOK, wantCore)
		}
		if !wantOK {
			removeFromMirror(mirror, tk.ID) // replay already popped; no-op guard
		}
	}

	// Offline FFD on the same set must produce the identical final
	// assignment (same order, same first-fit probes).
	offline, err := partition.FFD.Partition(set.Clone(), 4, model)
	if err != nil {
		t.Fatalf("offline FFD rejected the set the server accepted: %v", err)
	}
	var state api.State
	body := mustStatus(t, srv, "GET", "/v1/sessions/e2e", nil, http.StatusOK)
	if err := json.Unmarshal(body, &state); err != nil {
		t.Fatal(err)
	}
	if state.Schedulable == nil || !*state.Schedulable {
		t.Fatal("session must report schedulable")
	}
	got := placementsByCore(t, state)
	want := make([][]int64, 4)
	for c := 0; c < 4; c++ {
		for _, tk := range offline.Normal[c] {
			want[c] = append(want[c], int64(tk.ID))
		}
	}
	for c := 0; c < 4; c++ {
		if fmt.Sprint(got[c]) != fmt.Sprint(want[c]) {
			t.Fatalf("core %d: server %v != offline FFD %v", c, got[c], want[c])
		}
	}
	// And the mirror must agree with the offline result too (sanity of
	// the replay itself).
	if !analysis.Schedulable(mirror, model) {
		t.Fatal("mirror assignment must be schedulable")
	}
}

func placementsByCore(t *testing.T, state api.State) [][]int64 {
	t.Helper()
	out := make([][]int64, state.Cores)
	for _, j := range state.Tasks {
		if j.Core < 0 || j.Core >= state.Cores {
			t.Fatalf("state task %d on core %d", j.ID, j.Core)
		}
		out[j.Core] = append(out[j.Core], j.ID)
	}
	return out
}

// TestTryHoldCommitRollback exercises the two-phase protocol and its
// conflict handling.
func TestTryHoldCommitRollback(t *testing.T) {
	srv := newTestServer(t, Config{})
	mustStatus(t, srv, "POST", "/v1/sessions", api.CreateSessionRequest{Name: "s", Cores: 2}, http.StatusCreated)
	tk := api.Task{ID: 1, WCETNs: 1e6, PeriodNs: 1e7, Priority: 1}

	// Held probe, then a second mutation must 409.
	body := mustStatus(t, srv, "POST", "/v1/sessions/s/try", api.AdmitRequest{Task: tk, Hold: true}, http.StatusOK)
	var v api.Verdict
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if !v.Admitted || !v.Pending {
		t.Fatalf("held try: %+v", v)
	}
	mustStatus(t, srv, "POST", "/v1/sessions/s/admit", api.AdmitRequest{Task: api.Task{ID: 2, WCETNs: 1e6, PeriodNs: 1e7, Priority: 2}}, http.StatusConflict)
	mustStatus(t, srv, "POST", "/v1/sessions/s/rollback", nil, http.StatusOK)
	mustStatus(t, srv, "POST", "/v1/sessions/s/rollback", nil, http.StatusConflict)

	// Rolled back: the task is not in the session; admit it for real.
	mustStatus(t, srv, "POST", "/v1/sessions/s/try", api.AdmitRequest{Task: tk, Hold: true}, http.StatusOK)
	mustStatus(t, srv, "POST", "/v1/sessions/s/commit", nil, http.StatusOK)
	mustStatus(t, srv, "POST", "/v1/sessions/s/admit", api.AdmitRequest{Task: tk}, http.StatusConflict) // duplicate ID

	// Probe-only try leaves no state.
	mustStatus(t, srv, "POST", "/v1/sessions/s/try", api.AdmitRequest{Task: api.Task{ID: 3, WCETNs: 1e6, PeriodNs: 1e7, Priority: 3}}, http.StatusOK)
	var state api.State
	if err := json.Unmarshal(mustStatus(t, srv, "GET", "/v1/sessions/s", nil, http.StatusOK), &state); err != nil {
		t.Fatal(err)
	}
	if len(state.Tasks) != 1 || state.Tasks[0].ID != 1 {
		t.Fatalf("state after try: %+v", state.Tasks)
	}

	// Hold is try-only: admit with hold is rejected outright.
	mustStatus(t, srv, "POST", "/v1/sessions/s/admit", api.AdmitRequest{Task: api.Task{ID: 4, WCETNs: 1e6, PeriodNs: 1e7, Priority: 4}, Hold: true}, http.StatusBadRequest)

	// A held probe's tentative task never leaks into state, and a
	// held REJECTED probe cannot be committed (only rolled back).
	mustStatus(t, srv, "POST", "/v1/sessions/s/try", api.AdmitRequest{Task: api.Task{ID: 5, WCETNs: 1e6, PeriodNs: 1e7, Priority: 5}, Hold: true}, http.StatusOK)
	var held api.State
	if err := json.Unmarshal(mustStatus(t, srv, "GET", "/v1/sessions/s", nil, http.StatusOK), &held); err != nil {
		t.Fatal(err)
	}
	if !held.ProbePending || len(held.Tasks) != 1 || held.Schedulable != nil {
		t.Fatalf("state with held probe: %+v", held)
	}
	mustStatus(t, srv, "POST", "/v1/sessions/s/rollback", nil, http.StatusOK)
	hog := 0
	mustStatus(t, srv, "POST", "/v1/sessions/s/try", api.AdmitRequest{Task: api.Task{ID: 6, WCETNs: 95e5, PeriodNs: 1e7, Priority: 6}, Core: &hog, Hold: true}, http.StatusOK)
	mustStatus(t, srv, "POST", "/v1/sessions/s/commit", nil, http.StatusConflict) // rejected probe: commit refused
	mustStatus(t, srv, "POST", "/v1/sessions/s/rollback", nil, http.StatusOK)
}

// TestRemoveEndpoint admits to saturation, removes, and re-admits —
// the online churn the removal invalidation path exists for.
func TestRemoveEndpoint(t *testing.T) {
	srv := newTestServer(t, Config{})
	model := overhead.Normalize(overhead.PaperModel())
	an := analysis.FixedPriorityRTA
	mustStatus(t, srv, "POST", "/v1/sessions", api.CreateSessionRequest{Name: "rm", Cores: 2}, http.StatusCreated)

	mirror := task.NewAssignment(2)
	set := testSet(14, 0.9*2, 7)
	admitted := []*task.Task{}
	for _, tk := range set.SortedByUtilizationDesc() {
		wantOK, wantCore := firstFitReplay(an, mirror, model, tk)
		var v api.Verdict
		body := mustStatus(t, srv, "POST", "/v1/sessions/rm/admit", api.AdmitRequest{Task: fromTask(tk, -1)}, http.StatusOK)
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		if v.Admitted != wantOK || v.Core != wantCore {
			t.Fatalf("task %d: (%v,%d) != replay (%v,%d)", tk.ID, v.Admitted, v.Core, wantOK, wantCore)
		}
		if v.Admitted {
			admitted = append(admitted, tk)
		}
	}
	if len(admitted) < 3 {
		t.Fatalf("workload degenerate: only %d admitted", len(admitted))
	}
	// Remove every other admitted task, replaying each removal on the
	// mirror, then re-admit fresh twins and compare verdicts again.
	for i, tk := range admitted {
		if i%2 == 1 {
			continue
		}
		mustStatus(t, srv, "POST", "/v1/sessions/rm/remove", api.RemoveRequest{ID: int64(tk.ID)}, http.StatusOK)
		removeFromMirror(mirror, tk.ID)
	}
	mustStatus(t, srv, "POST", "/v1/sessions/rm/remove", api.RemoveRequest{ID: 99999}, http.StatusNotFound)
	for i, tk := range admitted {
		if i%2 == 1 {
			continue
		}
		twin := *tk
		twin.ID = tk.ID + 1000
		wantOK, wantCore := firstFitReplay(an, mirror, model, &twin)
		var v api.Verdict
		body := mustStatus(t, srv, "POST", "/v1/sessions/rm/admit", api.AdmitRequest{Task: fromTask(&twin, -1)}, http.StatusOK)
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		if v.Admitted != wantOK || v.Core != wantCore {
			t.Fatalf("re-admit %d: (%v,%d) != replay (%v,%d)", twin.ID, v.Admitted, v.Core, wantOK, wantCore)
		}
	}
}

// TestBatchGenerateAndStats checks the server-side generated batch,
// the NDJSON stream shape, and the stats endpoints.
func TestBatchGenerateAndStats(t *testing.T) {
	srv := newTestServer(t, Config{})
	mustStatus(t, srv, "POST", "/v1/sessions", api.CreateSessionRequest{Name: "b", Cores: 4}, http.StatusCreated)
	body := mustStatus(t, srv, "POST", "/v1/sessions/b/batch", api.BatchRequest{
		Generate: &api.TaskGen{N: 12, TotalUtilization: 2.0, Seed: 5},
		Order:    "util-desc",
	}, http.StatusOK)
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 13 {
		t.Fatalf("batch stream: %d lines (want 12 verdicts + summary)", len(lines))
	}
	var sum api.BatchSummary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatal(err)
	}
	if !sum.Done || sum.Admitted+sum.Rejected != 12 {
		t.Fatalf("batch summary: %+v", sum)
	}
	if sum.Admitted == 0 || !sum.Schedulable {
		t.Fatalf("2.0 util over 4 cores must mostly admit: %+v", sum)
	}

	var stats map[string]any
	if err := json.Unmarshal(mustStatus(t, srv, "GET", "/v1/sessions/b/stats", nil, http.StatusOK), &stats); err != nil {
		t.Fatal(err)
	}
	adm := stats["admission"].(map[string]any)
	if adm["probes"].(float64) == 0 {
		t.Fatalf("session stats show no probes: %v", stats)
	}
	if err := json.Unmarshal(mustStatus(t, srv, "GET", "/v1/stats", nil, http.StatusOK), &stats); err != nil {
		t.Fatal(err)
	}
	if stats["sessions_live"].(float64) != 1 {
		t.Fatalf("server stats: %v", stats)
	}
}

// TestSnapshotRestoreIdentity checks eviction + restore: a session
// evicted to disk and restored must answer future admissions exactly
// as the uninterrupted session would.
func TestSnapshotRestoreIdentity(t *testing.T) {
	dir := t.TempDir()
	srv := newTestServer(t, Config{MaxSessions: 2, DataDir: dir})
	model := overhead.Normalize(overhead.PaperModel())
	an := analysis.FixedPriorityRTA

	mustStatus(t, srv, "POST", "/v1/sessions", api.CreateSessionRequest{Name: "a", Cores: 2}, http.StatusCreated)
	mirror := task.NewAssignment(2)
	set := testSet(8, 0.8*2, 11)
	half := set.SortedByUtilizationDesc()
	for _, tk := range half[:4] {
		wantOK, wantCore := firstFitReplay(an, mirror, model, tk)
		var v api.Verdict
		if err := json.Unmarshal(mustStatus(t, srv, "POST", "/v1/sessions/a/admit", api.AdmitRequest{Task: fromTask(tk, -1)}, http.StatusOK), &v); err != nil {
			t.Fatal(err)
		}
		if v.Admitted != wantOK || v.Core != wantCore {
			t.Fatalf("pre-evict %d: (%v,%d) != (%v,%d)", tk.ID, v.Admitted, v.Core, wantOK, wantCore)
		}
	}
	// Two more sessions push "a" (the LRU) out.
	mustStatus(t, srv, "POST", "/v1/sessions", api.CreateSessionRequest{Name: "b", Cores: 2}, http.StatusCreated)
	mustStatus(t, srv, "POST", "/v1/sessions", api.CreateSessionRequest{Name: "c", Cores: 2}, http.StatusCreated)
	if srv.Store().evicted.Load() == 0 {
		t.Fatal("creating past the cap must evict")
	}
	// Touching "a" restores it from disk; the remaining admissions
	// must still match the uninterrupted stateless replay.
	for _, tk := range half[4:] {
		wantOK, wantCore := firstFitReplay(an, mirror, model, tk)
		var v api.Verdict
		if err := json.Unmarshal(mustStatus(t, srv, "POST", "/v1/sessions/a/admit", api.AdmitRequest{Task: fromTask(tk, -1)}, http.StatusOK), &v); err != nil {
			t.Fatal(err)
		}
		if v.Admitted != wantOK || v.Core != wantCore {
			t.Fatalf("post-restore %d: (%v,%d) != (%v,%d)", tk.ID, v.Admitted, v.Core, wantOK, wantCore)
		}
	}
	if srv.Store().restored.Load() == 0 {
		t.Fatal("touching the evicted session must restore it")
	}
	// Graceful shutdown checkpoints everything; a fresh server over the
	// same directory sees identical state.
	var before api.State
	if err := json.Unmarshal(mustStatus(t, srv, "GET", "/v1/sessions/a", nil, http.StatusOK), &before); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	srv2 := newTestServer(t, Config{MaxSessions: 8, DataDir: dir})
	var after api.State
	if err := json.Unmarshal(mustStatus(t, srv2, "GET", "/v1/sessions/a", nil, http.StatusOK), &after); err != nil {
		t.Fatal(err)
	}
	bj, _ := json.Marshal(before)
	aj, _ := json.Marshal(after)
	if !bytes.Equal(bj, aj) {
		t.Fatalf("state across shutdown/restart:\n before %s\n after  %s", bj, aj)
	}
}

// TestSnapshotDiscardsHeldProbe: eviction/shutdown must never
// persist a held probe's tentative mutation as committed state.
func TestSnapshotDiscardsHeldProbe(t *testing.T) {
	dir := t.TempDir()
	srv := newTestServer(t, Config{DataDir: dir})
	mustStatus(t, srv, "POST", "/v1/sessions", api.CreateSessionRequest{Name: "h", Cores: 2}, http.StatusCreated)
	mustStatus(t, srv, "POST", "/v1/sessions/h/admit", api.AdmitRequest{Task: api.Task{ID: 1, WCETNs: 1e6, PeriodNs: 1e7, Priority: 1}}, http.StatusOK)
	mustStatus(t, srv, "POST", "/v1/sessions/h/try", api.AdmitRequest{Task: api.Task{ID: 2, WCETNs: 1e6, PeriodNs: 1e7, Priority: 2}, Hold: true}, http.StatusOK)
	srv.Close() // checkpoints with the probe still held
	srv2 := newTestServer(t, Config{DataDir: dir})
	var state api.State
	if err := json.Unmarshal(mustStatus(t, srv2, "GET", "/v1/sessions/h", nil, http.StatusOK), &state); err != nil {
		t.Fatal(err)
	}
	if len(state.Tasks) != 1 || state.Tasks[0].ID != 1 || state.ProbePending {
		t.Fatalf("restored state must hold only the committed task: %+v", state)
	}
}

// TestEDFSessionAndSplit covers the EDF policy path and the split
// endpoint.
func TestEDFSessionAndSplit(t *testing.T) {
	srv := newTestServer(t, Config{})
	mustStatus(t, srv, "POST", "/v1/sessions", api.CreateSessionRequest{Name: "e", Cores: 2, Policy: "edf", Model: json.RawMessage(`"zero"`)}, http.StatusCreated)
	mustStatus(t, srv, "POST", "/v1/sessions/e/admit", api.AdmitRequest{Task: api.Task{ID: 1, WCETNs: 4e6, PeriodNs: 1e7}}, http.StatusOK)
	// A split with windows: 6ms budget over two cores, 5ms windows.
	var v api.Verdict
	body := mustStatus(t, srv, "POST", "/v1/sessions/e/split", api.SplitRequest{Split: api.Split{
		Task:      api.Task{ID: 2, WCETNs: 6e6, PeriodNs: 1e7},
		Parts:     []api.Part{{Core: 0, BudgetNs: 3e6}, {Core: 1, BudgetNs: 3e6}},
		WindowsNs: []int64{5e6, 5e6},
	}}, http.StatusOK)
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if !v.Admitted {
		t.Fatalf("EDF split must admit under zero overheads: %+v", v)
	}
	// Windowless split must be rejected up front.
	mustStatus(t, srv, "POST", "/v1/sessions/e/split", api.SplitRequest{Split: api.Split{
		Task:  api.Task{ID: 3, WCETNs: 6e6, PeriodNs: 1e7},
		Parts: []api.Part{{Core: 0, BudgetNs: 3e6}, {Core: 1, BudgetNs: 3e6}},
	}}, http.StatusBadRequest)
	var state api.State
	if err := json.Unmarshal(mustStatus(t, srv, "GET", "/v1/sessions/e", nil, http.StatusOK), &state); err != nil {
		t.Fatal(err)
	}
	if len(state.Splits) != 1 || state.Policy != "edf" {
		t.Fatalf("EDF state: %+v", state)
	}
	// Remove the split; the session shrinks back to one task.
	mustStatus(t, srv, "POST", "/v1/sessions/e/remove", api.RemoveRequest{ID: 2}, http.StatusOK)
	var after api.State
	if err := json.Unmarshal(mustStatus(t, srv, "GET", "/v1/sessions/e", nil, http.StatusOK), &after); err != nil {
		t.Fatal(err)
	}
	if len(after.Splits) != 0 || len(after.Tasks) != 1 {
		t.Fatalf("state after split removal: %+v", after)
	}
}

// TestEDFExtremePeriodRatio sends an EDF session the hostile pair of
// analysis.TestEDFExtremePeriodRatio as try requests over the handler:
// next to a 400 ms / 1 s task, a 1 µs / 2.5 µs task has 400 000
// absolute deadlines below the horizon and a 1 ns / 2 ns task half a
// billion. A request that listed them would pin a core for a tenth of a
// second and allocate tens of megabytes: the verdicts must be the
// stateless analyzer's and a try must allocate what a request does.
func TestEDFExtremePeriodRatio(t *testing.T) {
	srv := newTestServer(t, Config{})
	mustStatus(t, srv, "POST", "/v1/sessions", api.CreateSessionRequest{Name: "x", Cores: 1, Policy: "edf", Model: json.RawMessage(`"zero"`)}, http.StatusCreated)
	long := api.Task{ID: 1, WCETNs: 400e6, PeriodNs: 1e9}
	mustStatus(t, srv, "POST", "/v1/sessions/x/admit", api.AdmitRequest{Task: long}, http.StatusOK)
	for _, tc := range []struct {
		tk   api.Task
		want bool
	}{
		{api.Task{ID: 2, WCETNs: 1000, PeriodNs: 2500}, true},
		{api.Task{ID: 3, WCETNs: 1, PeriodNs: 2}, false},
	} {
		mirror := task.NewAssignment(1)
		mirror.Policy = task.EDF
		mirror.Place(&task.Task{ID: 1, WCET: timeq.Time(long.WCETNs), Period: timeq.Time(long.PeriodNs)}, 0)
		mirror.Place(&task.Task{ID: task.ID(tc.tk.ID), WCET: timeq.Time(tc.tk.WCETNs), Period: timeq.Time(tc.tk.PeriodNs)}, 0)
		if oracle := analysis.EDFDemand.CoreSchedulable(mirror, 0, overhead.Zero()); oracle != tc.want {
			t.Fatalf("task %d: the fixture is not what it says: enumeration %v", tc.tk.ID, oracle)
		}
		var v api.Verdict
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		body := mustStatus(t, srv, "POST", "/v1/sessions/x/try", api.AdmitRequest{Task: tc.tk}, http.StatusOK)
		runtime.ReadMemStats(&after)
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		if v.Admitted != tc.want {
			t.Errorf("task %d: try answered %v, the enumeration %v", tc.tk.ID, v.Admitted, tc.want)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 256<<10 {
			t.Errorf("task %d: one try allocated %d B, want < 256 KB", tc.tk.ID, n)
		}
	}
}

// TestCreateCoresLimit checks the cap on cores per session: the limit
// itself is created, one more is refused as a bad request naming both
// numbers, and a huge count is refused before anything is sized by it.
func TestCreateCoresLimit(t *testing.T) {
	srv := newTestServer(t, Config{})
	mustStatus(t, srv, "POST", "/v1/sessions", api.CreateSessionRequest{Name: "max", Cores: maxSessionCores}, http.StatusCreated)
	body := mustStatus(t, srv, "POST", "/v1/sessions", api.CreateSessionRequest{Name: "over", Cores: maxSessionCores + 1}, http.StatusBadRequest)
	var e api.Error
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.Code != api.CodeBadRequest || !strings.Contains(e.Message, "1025") || !strings.Contains(e.Message, "1024") {
		t.Fatalf("over-limit create answered %+v", e)
	}

	huge := api.CreateSessionRequest{Name: "huge", Cores: 1 << 20}
	create := func() { mustStatus(t, srv, "POST", "/v1/sessions", huge, http.StatusBadRequest) }
	create() // warm the handler's pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	create()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n >= 64<<10 {
		t.Errorf("a %d-core create allocated %d B, want < 64 KB", huge.Cores, n)
	}
	if elapsed >= time.Millisecond && !raceEnabled {
		t.Errorf("a %d-core create took %v, want < 1 ms", huge.Cores, elapsed)
	}
}

// TestSessionLifecycleErrors covers the error surface.
func TestSessionLifecycleErrors(t *testing.T) {
	srv := newTestServer(t, Config{})
	mustStatus(t, srv, "GET", "/v1/sessions/nope", nil, http.StatusNotFound)
	mustStatus(t, srv, "POST", "/v1/sessions", api.CreateSessionRequest{Name: "", Cores: 4}, http.StatusBadRequest)
	mustStatus(t, srv, "POST", "/v1/sessions", api.CreateSessionRequest{Name: "x", Cores: 0}, http.StatusBadRequest)
	mustStatus(t, srv, "POST", "/v1/sessions", api.CreateSessionRequest{Name: "x", Cores: 2, Policy: "weird"}, http.StatusBadRequest)
	mustStatus(t, srv, "POST", "/v1/sessions", api.CreateSessionRequest{Name: "x", Cores: 2}, http.StatusCreated)
	mustStatus(t, srv, "POST", "/v1/sessions", api.CreateSessionRequest{Name: "x", Cores: 2}, http.StatusConflict)
	// FP tasks need a priority; zero-WCET tasks are invalid.
	mustStatus(t, srv, "POST", "/v1/sessions/x/admit", api.AdmitRequest{Task: api.Task{ID: 1, WCETNs: 1e6, PeriodNs: 1e7}}, http.StatusBadRequest)
	mustStatus(t, srv, "POST", "/v1/sessions/x/admit", api.AdmitRequest{Task: api.Task{ID: 1, PeriodNs: 1e7, Priority: 1}}, http.StatusBadRequest)
	core := 7
	mustStatus(t, srv, "POST", "/v1/sessions/x/admit", api.AdmitRequest{Task: api.Task{ID: 1, WCETNs: 1e6, PeriodNs: 1e7, Priority: 1}, Core: &core}, http.StatusBadRequest)
	mustStatus(t, srv, "DELETE", "/v1/sessions/x", nil, http.StatusOK)
	mustStatus(t, srv, "DELETE", "/v1/sessions/x", nil, http.StatusNotFound)
	mustStatus(t, srv, "GET", "/healthz", nil, http.StatusOK)
	// The daemon neither sweeps nor streams: spexp runs sweeps.
	mustStatus(t, srv, "POST", "/v1/sweep", nil, http.StatusNotFound)
	mustStatus(t, srv, "POST", "/v1/sessions", api.CreateSessionRequest{Name: "y", Cores: 2}, http.StatusCreated)
	mustStatus(t, srv, "GET", "/v1/sessions/y/feed", nil, http.StatusNotFound)
}
