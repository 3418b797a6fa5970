package admitd

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/api"
)

// readTask builds a light wire task for read-path probes.
func readTask(id int64, rng *rand.Rand) api.Task {
	periodMs := int64(20 + rng.Intn(100))
	period := periodMs * 1_000_000
	wcet := period / int64(40+rng.Intn(40))
	return api.Task{ID: id, WCETNs: wcet, PeriodNs: period, Priority: int(1000 + id%1000), WSS: 32 << 10}
}

// TestReadPathMatchesAdmit pins the read path's verdicts end to end:
// on a quiescent session, a non-holding try (served from the
// snapshot, off-actor) must predict exactly what admit (the actor
// path) then does.
func TestReadPathMatchesAdmit(t *testing.T) {
	srv := newTestServer(t, Config{})
	mustStatus(t, srv, "POST", "/v1/sessions", api.CreateSessionRequest{Name: "rp", Cores: 3}, http.StatusCreated)
	rng := rand.New(rand.NewSource(42))
	agree := 0
	for i := int64(1); i <= 60; i++ {
		tk := readTask(i, rng)
		var try, admit api.Verdict
		if err := json.Unmarshal(mustStatus(t, srv, "POST", "/v1/sessions/rp/try", api.AdmitRequest{Task: tk}, http.StatusOK), &try); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(mustStatus(t, srv, "POST", "/v1/sessions/rp/admit", api.AdmitRequest{Task: tk}, http.StatusOK), &admit); err != nil {
			t.Fatal(err)
		}
		if try.Admitted != admit.Admitted || try.Core != admit.Core {
			t.Fatalf("task %d: read-path try %+v disagrees with admit %+v", i, try, admit)
		}
		if try.Admitted {
			agree++
		}
	}
	if agree == 0 {
		t.Fatal("no admissions; the comparison degenerated")
	}
}

// TestReadsServedWhileProbeHeld pins the read path's held-probe
// semantics: a held probe blocks mutations (409 probe_pending) but
// not reads — non-holding try, state and stats keep answering from
// the committed snapshot.
func TestReadsServedWhileProbeHeld(t *testing.T) {
	srv := newTestServer(t, Config{})
	mustStatus(t, srv, "POST", "/v1/sessions", api.CreateSessionRequest{Name: "h", Cores: 2}, http.StatusCreated)
	base := api.Task{ID: 1, WCETNs: 1e6, PeriodNs: 1e7, Priority: 1}
	mustStatus(t, srv, "POST", "/v1/sessions/h/admit", api.AdmitRequest{Task: base}, http.StatusOK)

	mustStatus(t, srv, "POST", "/v1/sessions/h/try",
		api.AdmitRequest{Task: api.Task{ID: 2, WCETNs: 1e6, PeriodNs: 1e7, Priority: 2}, Hold: true}, http.StatusOK)

	// Mutations conflict …
	mustStatus(t, srv, "POST", "/v1/sessions/h/admit",
		api.AdmitRequest{Task: api.Task{ID: 3, WCETNs: 1e6, PeriodNs: 1e7, Priority: 3}}, http.StatusConflict)
	// … reads do not: try answers from the committed state (the held
	// task 2 is uncommitted and invisible).
	var v api.Verdict
	body := mustStatus(t, srv, "POST", "/v1/sessions/h/try",
		api.AdmitRequest{Task: api.Task{ID: 4, WCETNs: 1e6, PeriodNs: 1e7, Priority: 4}}, http.StatusOK)
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if !v.Admitted {
		t.Fatalf("read-path try while held: %+v", v)
	}
	var st api.State
	if err := json.Unmarshal(mustStatus(t, srv, "GET", "/v1/sessions/h", nil, http.StatusOK), &st); err != nil {
		t.Fatal(err)
	}
	if !st.ProbePending || st.Schedulable != nil || len(st.Tasks) != 1 {
		t.Fatalf("state while held: %+v", st)
	}
	mustStatus(t, srv, "GET", "/v1/sessions/h/stats", nil, http.StatusOK)
	mustStatus(t, srv, "POST", "/v1/sessions/h/rollback", nil, http.StatusOK)
}

// TestHeldProbeErrorEnvelopes is the end-to-end golden for the
// held-probe conflict contract: the exact {code,message} envelope and
// the 409 status, for both the pending and the not-pending side, plus
// the SDK's IsCode branch on both.
func TestHeldProbeErrorEnvelopes(t *testing.T) {
	srv := newTestServer(t, Config{})
	mustStatus(t, srv, "POST", "/v1/sessions", api.CreateSessionRequest{Name: "g", Cores: 1}, http.StatusCreated)

	// No probe held: commit and rollback must 409 with the exact
	// no_probe_pending envelope.
	wantNoProbe := `{"code":"no_probe_pending","message":"admitd: no probe pending"}`
	for _, op := range []string{"commit", "rollback"} {
		status, body := doReq(t, srv, "POST", "/v1/sessions/g/"+op, nil)
		if status != http.StatusConflict {
			t.Fatalf("%s with nothing held: HTTP %d", op, status)
		}
		if got := strings.TrimSpace(string(body)); got != wantNoProbe {
			t.Fatalf("%s envelope:\n got %s\nwant %s", op, got, wantNoProbe)
		}
	}

	// Hold a probe; every mutation must 409 with the exact
	// probe_pending envelope.
	mustStatus(t, srv, "POST", "/v1/sessions/g/try",
		api.AdmitRequest{Task: api.Task{ID: 1, WCETNs: 1e6, PeriodNs: 1e7, Priority: 1}, Hold: true}, http.StatusOK)
	wantPending := `{"code":"probe_pending","message":"admitd: a held probe is pending (commit or rollback first)"}`
	for _, step := range []struct {
		method, path string
		payload      any
	}{
		{"POST", "/v1/sessions/g/admit", api.AdmitRequest{Task: api.Task{ID: 9, WCETNs: 1e6, PeriodNs: 1e7, Priority: 9}}},
		{"POST", "/v1/sessions/g/try", api.AdmitRequest{Task: api.Task{ID: 9, WCETNs: 1e6, PeriodNs: 1e7, Priority: 9}, Hold: true}},
		{"POST", "/v1/sessions/g/split", api.SplitRequest{Split: api.Split{
			Task:  api.Task{ID: 9, WCETNs: 2e6, PeriodNs: 1e7, Priority: 9},
			Parts: []api.Part{{Core: 0, BudgetNs: 1e6}, {Core: 0, BudgetNs: 1e6}},
		}}},
		{"POST", "/v1/sessions/g/remove", api.RemoveRequest{ID: 1}},
		{"POST", "/v1/sessions/g/batch", api.BatchRequest{Tasks: []api.Task{{ID: 9, WCETNs: 1e6, PeriodNs: 1e7, Priority: 9}}}},
	} {
		status, body := doReq(t, srv, step.method, step.path, step.payload)
		if status != http.StatusConflict {
			t.Fatalf("%s while held: HTTP %d: %s", step.path, status, body)
		}
		if got := strings.TrimSpace(string(body)); got != wantPending {
			t.Fatalf("%s envelope:\n got %s\nwant %s", step.path, got, wantPending)
		}
	}
	mustStatus(t, srv, "POST", "/v1/sessions/g/rollback", nil, http.StatusOK)
}

// TestBatchTryOnly checks the read-path batch: verdicts match the
// individual read-path tries, the summary is stamped try_only, and
// the session is not mutated.
func TestBatchTryOnly(t *testing.T) {
	srv := newTestServer(t, Config{})
	mustStatus(t, srv, "POST", "/v1/sessions", api.CreateSessionRequest{Name: "b", Cores: 2}, http.StatusCreated)
	rng := rand.New(rand.NewSource(7))
	for i := int64(1); i <= 6; i++ {
		mustStatus(t, srv, "POST", "/v1/sessions/b/admit", api.AdmitRequest{Task: readTask(i, rng)}, http.StatusOK)
	}
	var before api.State
	if err := json.Unmarshal(mustStatus(t, srv, "GET", "/v1/sessions/b", nil, http.StatusOK), &before); err != nil {
		t.Fatal(err)
	}

	var batch []api.Task
	for i := int64(100); i < 112; i++ {
		batch = append(batch, readTask(i, rng))
	}
	batch = append(batch, api.Task{ID: 1, WCETNs: 1e6, PeriodNs: 1e7, Priority: 1}) // duplicate of an admitted ID
	body := mustStatus(t, srv, "POST", "/v1/sessions/b/batch", api.BatchRequest{Tasks: batch, TryOnly: true}, http.StatusOK)

	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != len(batch)+1 {
		t.Fatalf("try-only batch: %d lines, want %d verdicts + summary", len(lines), len(batch)+1)
	}
	var sum api.BatchSummary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatal(err)
	}
	if !sum.TryOnly || !sum.Done || sum.Canceled {
		t.Fatalf("summary: %+v", sum)
	}
	admitted := 0
	for i, ln := range lines[:len(lines)-1] {
		var v api.Verdict
		if err := json.Unmarshal([]byte(ln), &v); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if v.TaskID != batch[i].ID {
			t.Fatalf("line %d: verdicts out of input order: got task %d want %d", i, v.TaskID, batch[i].ID)
		}
		// Each verdict must equal the individual read-path try.
		if batch[i].ID == 1 {
			if v.Admitted {
				t.Fatalf("duplicate ID probed admissible: %+v", v)
			}
			continue
		}
		var single api.Verdict
		if err := json.Unmarshal(mustStatus(t, srv, "POST", "/v1/sessions/b/try", api.AdmitRequest{Task: batch[i]}, http.StatusOK), &single); err != nil {
			t.Fatal(err)
		}
		if v.Admitted != single.Admitted || v.Core != single.Core {
			t.Fatalf("task %d: batch verdict %+v != individual try %+v", batch[i].ID, v, single)
		}
		if v.Admitted {
			admitted++
		}
	}
	if admitted != sum.Admitted {
		t.Fatalf("summary admitted %d, counted %d", sum.Admitted, admitted)
	}

	var after api.State
	if err := json.Unmarshal(mustStatus(t, srv, "GET", "/v1/sessions/b", nil, http.StatusOK), &after); err != nil {
		t.Fatal(err)
	}
	if len(after.Tasks) != len(before.Tasks) {
		t.Fatalf("try-only batch mutated the session: %d tasks, was %d", len(after.Tasks), len(before.Tasks))
	}
}

// TestReadPathConcurrentChurn races many read goroutines (try, state,
// stats, try-only batches) against a writer churning admits and
// removes through the actor — the admitd-level companion of the
// analysis fork race fuzz. Run under -race in CI.
func TestReadPathConcurrentChurn(t *testing.T) {
	srv := newTestServer(t, Config{})
	mustStatus(t, srv, "POST", "/v1/sessions", api.CreateSessionRequest{Name: "c", Cores: 4}, http.StatusCreated)
	rng := rand.New(rand.NewSource(13))
	for i := int64(1); i <= 10; i++ {
		mustStatus(t, srv, "POST", "/v1/sessions/c/admit", api.AdmitRequest{Task: readTask(i, rng)}, http.StatusOK)
	}

	readers := 6
	iters := 60
	if testing.Short() {
		iters = 25
	}
	var stop atomic.Bool
	var reads atomic.Int64
	var errs atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rrng := rand.New(rand.NewSource(1000 + int64(r)))
			for !stop.Load() {
				var status int
				switch rrng.Intn(4) {
				case 0:
					status, _ = doReq(t, srv, "POST", "/v1/sessions/c/try",
						api.AdmitRequest{Task: readTask(1<<40+rrng.Int63n(1<<20), rrng)})
				case 1:
					status, _ = doReq(t, srv, "GET", "/v1/sessions/c", nil)
				case 2:
					status, _ = doReq(t, srv, "GET", "/v1/sessions/c/stats", nil)
				default:
					status, _ = doReq(t, srv, "POST", "/v1/sessions/c/batch", api.BatchRequest{
						Generate: &api.TaskGen{N: 4, TotalUtilization: 0.5, Seed: rrng.Int63()},
						TryOnly:  true,
					})
				}
				if status != http.StatusOK {
					errs.Add(1)
				}
				reads.Add(1)
				runtime.Gosched()
			}
		}(r)
	}
	next := int64(1000)
	var admitted []int64
	for i := 0; i < iters; i++ {
		next++
		status, body := doReq(t, srv, "POST", "/v1/sessions/c/admit", api.AdmitRequest{Task: readTask(next, rng)})
		if status != http.StatusOK {
			t.Errorf("admit %d: HTTP %d: %s", next, status, body)
			break
		}
		var v api.Verdict
		if json.Unmarshal(body, &v) == nil && v.Admitted {
			admitted = append(admitted, next)
		}
		if len(admitted) > 4 {
			id := admitted[0]
			admitted = admitted[1:]
			doReq(t, srv, "POST", "/v1/sessions/c/remove", api.RemoveRequest{ID: id})
		}
		runtime.Gosched()
	}
	for reads.Load() < int64(readers) {
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()
	if errs.Load() > 0 {
		t.Fatalf("%d read requests failed during churn (%d total)", errs.Load(), reads.Load())
	}
	if reads.Load() == 0 {
		t.Fatal("no concurrent reads ran")
	}

	// Quiesced: the session must still answer and be schedulable.
	var st api.State
	if err := json.Unmarshal(mustStatus(t, srv, "GET", "/v1/sessions/c", nil, http.StatusOK), &st); err != nil {
		t.Fatal(err)
	}
	if st.Schedulable == nil || !*st.Schedulable {
		t.Fatalf("post-churn state not schedulable: %+v", st)
	}
	t.Logf("raced %d reads against %d writer ops, 0 errors", reads.Load(), iters)
}
