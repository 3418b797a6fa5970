package admitd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/api"
	"repro/client"
)

// transportStep is one scripted request of the differential drive.
type transportStep struct {
	method, path string
	payload      any
}

// differentialScript is a deterministic request sequence covering
// every endpoint, happy paths and error envelopes alike.
func differentialScript() []transportStep {
	core0 := 0
	steps := []transportStep{
		{"POST", "/v1/sessions", api.CreateSessionRequest{Name: "d", Cores: 2, Policy: "fp"}},
		{"POST", "/v1/sessions", api.CreateSessionRequest{Name: "d", Cores: 2}}, // 409 session_exists
		{"POST", "/v1/sessions", api.CreateSessionRequest{Name: "e", Cores: 2, Policy: "edf", Model: json.RawMessage(`"zero"`)}},
		{"GET", "/v1/sessions", nil},
		{"GET", "/v1/sessions/nope", nil}, // 404 session_not_found
	}
	// A deterministic admission mix on "d": growing tasks until
	// rejections appear, plus explicit-core, try, hold/commit,
	// hold/rollback, duplicate and remove errors.
	for i := 1; i <= 12; i++ {
		steps = append(steps, transportStep{"POST", "/v1/sessions/d/admit", api.AdmitRequest{
			Task: api.Task{ID: int64(i), WCETNs: int64(i) * 7e5, PeriodNs: 1e7, Priority: i},
		}})
	}
	steps = append(steps,
		transportStep{"POST", "/v1/sessions/d/admit", api.AdmitRequest{Task: api.Task{ID: 1, WCETNs: 1e6, PeriodNs: 1e7, Priority: 1}}}, // 409 duplicate_task
		transportStep{"POST", "/v1/sessions/d/try", api.AdmitRequest{Task: api.Task{ID: 50, WCETNs: 1e6, PeriodNs: 1e7, Priority: 50}}},
		transportStep{"POST", "/v1/sessions/d/try", api.AdmitRequest{Task: api.Task{ID: 51, WCETNs: 1e6, PeriodNs: 1e7, Priority: 51}, Core: &core0}},
		transportStep{"POST", "/v1/sessions/d/try", api.AdmitRequest{Task: api.Task{ID: 52, WCETNs: 1e6, PeriodNs: 1e7, Priority: 52}, Hold: true}},
		transportStep{"POST", "/v1/sessions/d/commit", nil},
		transportStep{"POST", "/v1/sessions/d/commit", nil}, // 409 no_probe_pending
		transportStep{"POST", "/v1/sessions/d/try", api.AdmitRequest{Task: api.Task{ID: 53, WCETNs: 1e6, PeriodNs: 1e7, Priority: 53}, Hold: true}},
		transportStep{"POST", "/v1/sessions/d/rollback", nil},
		transportStep{"POST", "/v1/sessions/d/remove", api.RemoveRequest{ID: 3}},
		transportStep{"POST", "/v1/sessions/d/remove", api.RemoveRequest{ID: 9999}}, // 404 unknown_task
		transportStep{"GET", "/v1/sessions/d", nil},
		transportStep{"GET", "/v1/sessions/d/stats", nil},
		// EDF split protocol on "e".
		transportStep{"POST", "/v1/sessions/e/admit", api.AdmitRequest{Task: api.Task{ID: 1, WCETNs: 4e6, PeriodNs: 1e7}}},
		transportStep{"POST", "/v1/sessions/e/split", api.SplitRequest{Split: api.Split{
			Task:      api.Task{ID: 2, WCETNs: 6e6, PeriodNs: 1e7},
			Parts:     []api.Part{{Core: 0, BudgetNs: 3e6}, {Core: 1, BudgetNs: 3e6}},
			WindowsNs: []int64{5e6, 5e6},
		}}},
		transportStep{"GET", "/v1/sessions/e", nil},
		// Batch (server-side generation, FFD order) on a fresh session.
		transportStep{"POST", "/v1/sessions", api.CreateSessionRequest{Name: "b", Cores: 4}},
		transportStep{"POST", "/v1/sessions/b/batch", api.BatchRequest{Generate: &api.TaskGen{N: 10, TotalUtilization: 2.0, Seed: 5}, Order: "util-desc"}},
		// Server stats, lifecycle tail.
		transportStep{"GET", "/v1/stats", nil},
		transportStep{"DELETE", "/v1/sessions/b", nil},
		transportStep{"DELETE", "/v1/sessions/b", nil}, // 404 session_not_found
		transportStep{"GET", "/healthz", nil},
	)
	return steps
}

// runScript drives the script through one transport, returning every
// response as "status\nbody".
func runScript(t *testing.T, issue func(method, path string, payload []byte) (int, []byte)) []string {
	t.Helper()
	var out []string
	for i, st := range differentialScript() {
		var data []byte
		if st.payload != nil {
			var err error
			if data, err = json.Marshal(st.payload); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
		status, body := issue(st.method, st.path, data)
		out = append(out, fmt.Sprintf("%d\n%s", status, body))
	}
	return out
}

// TestTransportDifferential proves the two transports are the same
// API: the identical request script against two identically
// configured servers — one in-process, one over a real TCP listener
// — must return byte-identical responses at every step (verdicts,
// state, stats, streams, and error envelopes alike).
func TestTransportDifferential(t *testing.T) {
	inSrv := newTestServer(t, Config{})
	inProc := runScript(t, func(method, path string, payload []byte) (int, []byte) {
		req := httptest.NewRequest(method, path, bytes.NewReader(payload))
		rec := httptest.NewRecorder()
		inSrv.ServeHTTP(rec, req)
		return rec.Code, rec.Body.Bytes()
	})

	tcpSrv := newTestServer(t, Config{})
	ts := httptest.NewServer(tcpSrv)
	defer ts.Close()
	httpc := ts.Client()
	overTCP := runScript(t, func(method, path string, payload []byte) (int, []byte) {
		req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := httpc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	})

	script := differentialScript()
	for i := range script {
		if inProc[i] != overTCP[i] {
			t.Errorf("step %d (%s %s) diverges:\n in-process: %s\n over TCP:   %s",
				i, script[i].method, script[i].path, strings.TrimSpace(inProc[i]), strings.TrimSpace(overTCP[i]))
		}
	}
}

// TestClientE2E drives the full typed-client surface against both
// transports — the in-process dispatch and a real TCP listener (the
// CI race job runs this) — asserting identical behavior by
// construction: same SDK, same assertions, only the transport
// differs.
func TestClientE2E(t *testing.T) {
	transports := []struct {
		name  string
		build func(t *testing.T) *client.Client
	}{
		{"inprocess", func(t *testing.T) *client.Client {
			return client.InProcess(newTestServer(t, Config{}))
		}},
		{"tcp", func(t *testing.T) *client.Client {
			ts := httptest.NewServer(newTestServer(t, Config{}))
			t.Cleanup(ts.Close)
			c, err := client.New(ts.URL, client.WithHTTPClient(ts.Client()))
			if err != nil {
				t.Fatal(err)
			}
			return c
		}},
	}
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			driveClientE2E(t, tr.build(t))
		})
	}
}

func driveClientE2E(t *testing.T, c *client.Client) {
	ctx := context.Background()
	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}
	sess, err := c.CreateSession(ctx, api.CreateSessionRequest{Name: "s", Cores: 2, Policy: "fp"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateSession(ctx, api.CreateSessionRequest{Name: "s", Cores: 2}); !api.IsCode(err, api.CodeSessionExists) {
		t.Fatalf("duplicate create: %v", err)
	}

	tk := api.Task{ID: 1, WCETNs: 1e6, PeriodNs: 1e7, Priority: 1}
	v, err := sess.Admit(ctx, api.AdmitRequest{Task: tk})
	if err != nil || !v.Admitted || v.Core != 0 {
		t.Fatalf("admit: %+v, %v", v, err)
	}
	if _, err := sess.Admit(ctx, api.AdmitRequest{Task: tk}); !api.IsCode(err, api.CodeDuplicateTask) {
		t.Fatalf("duplicate admit: %v", err)
	}

	// Probe-only try leaves no state; hold/commit and hold/rollback
	// drive the two-phase protocol.
	if v, err = sess.Try(ctx, api.AdmitRequest{Task: api.Task{ID: 2, WCETNs: 1e6, PeriodNs: 1e7, Priority: 2}}); err != nil || !v.Admitted || v.Pending {
		t.Fatalf("try: %+v, %v", v, err)
	}
	if v, err = sess.Try(ctx, api.AdmitRequest{Task: api.Task{ID: 2, WCETNs: 1e6, PeriodNs: 1e7, Priority: 2}, Hold: true}); err != nil || !v.Pending {
		t.Fatalf("hold try: %+v, %v", v, err)
	}
	if _, err := sess.Admit(ctx, api.AdmitRequest{Task: api.Task{ID: 3, WCETNs: 1e6, PeriodNs: 1e7, Priority: 3}}); !api.IsCode(err, api.CodeProbePending) {
		t.Fatalf("mutation under held probe: %v", err)
	}
	if v, err = sess.Commit(ctx); err != nil || !v.Admitted || v.TaskID != 2 {
		t.Fatalf("commit: %+v, %v", v, err)
	}
	if _, err := sess.Commit(ctx); !api.IsCode(err, api.CodeNoProbePending) {
		t.Fatalf("commit without probe: %v", err)
	}
	if _, err = sess.Try(ctx, api.AdmitRequest{Task: api.Task{ID: 4, WCETNs: 1e6, PeriodNs: 1e7, Priority: 4}, Hold: true}); err != nil {
		t.Fatal(err)
	}
	if v, err = sess.Rollback(ctx); err != nil || v.Admitted {
		t.Fatalf("rollback: %+v, %v", v, err)
	}

	rm, err := sess.Remove(ctx, 2)
	if err != nil || !rm.Removed || rm.ID != 2 {
		t.Fatalf("remove: %+v, %v", rm, err)
	}
	if _, err := sess.Remove(ctx, 2); !api.IsCode(err, api.CodeUnknownTask) {
		t.Fatalf("remove missing: %v", err)
	}

	state, err := sess.State(ctx)
	if err != nil || state.Cores != 2 || len(state.Tasks) != 1 || state.Tasks[0].ID != 1 {
		t.Fatalf("state: %+v, %v", state, err)
	}
	if state.Schedulable == nil || !*state.Schedulable {
		t.Fatalf("state schedulability: %+v", state)
	}
	stats, err := sess.Stats(ctx)
	if err != nil || stats.Name != "s" || stats.Tasks != 1 || stats.Admission.Probes == 0 {
		t.Fatalf("stats: %+v, %v", stats, err)
	}

	// Batch: stream verdicts, then the summary.
	stream, err := sess.Batch(ctx, api.BatchRequest{Generate: &api.TaskGen{N: 8, TotalUtilization: 1.0, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	verdicts := 0
	for stream.Next() {
		verdicts++
	}
	sum, err := stream.Summary()
	stream.Close()
	if err != nil || verdicts != 8 || !sum.Done || sum.Admitted+sum.Rejected != 8 {
		t.Fatalf("batch: %d verdicts, %+v, %v", verdicts, sum, err)
	}

	// Try-only batch: the concurrent read path — nothing committed,
	// summary stamped try_only, task count unchanged.
	before := sum.TaskCount
	stream, err = sess.Batch(ctx, api.BatchRequest{
		Generate: &api.TaskGen{N: 6, TotalUtilization: 0.8, Seed: 9}, TryOnly: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	verdicts = 0
	for stream.Next() {
		verdicts++
	}
	trySum, err := stream.Summary()
	stream.Close()
	if err != nil || verdicts != 6 || !trySum.TryOnly || trySum.TaskCount != before {
		t.Fatalf("try-only batch: %d verdicts, %+v, %v", verdicts, trySum, err)
	}

	// A held probe rejects a committing batch with the branchable 409
	// code through the SDK — but not a try-only (read) batch. The
	// explicit core holds the probe regardless of its verdict.
	core0 := 0
	hv, err := sess.Try(ctx, api.AdmitRequest{Task: api.Task{ID: 40, WCETNs: 1e6, PeriodNs: 1e7, Priority: 40}, Core: &core0, Hold: true})
	if err != nil || !hv.Pending {
		t.Fatalf("hold try: %+v, %v", hv, err)
	}
	if _, err := sess.Batch(ctx, api.BatchRequest{Generate: &api.TaskGen{N: 2, TotalUtilization: 0.2, Seed: 4}}); !api.IsCode(err, api.CodeProbePending) {
		t.Fatalf("batch under held probe: %v", err)
	}
	stream, err = sess.Batch(ctx, api.BatchRequest{Generate: &api.TaskGen{N: 2, TotalUtilization: 0.2, Seed: 4}, TryOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	for stream.Next() {
	}
	if _, err := stream.Summary(); err != nil {
		t.Fatalf("try-only batch under held probe must serve: %v", err)
	}
	stream.Close()
	if _, err := sess.Rollback(ctx); err != nil {
		t.Fatal(err)
	}

	// EDF split through the SDK.
	esess, err := c.CreateSession(ctx, api.CreateSessionRequest{Name: "e", Cores: 2, Policy: "edf", Model: json.RawMessage(`"zero"`)})
	if err != nil {
		t.Fatal(err)
	}
	if v, err = esess.Split(ctx, api.SplitRequest{Split: api.Split{
		Task:      api.Task{ID: 1, WCETNs: 6e6, PeriodNs: 1e7},
		Parts:     []api.Part{{Core: 0, BudgetNs: 3e6}, {Core: 1, BudgetNs: 3e6}},
		WindowsNs: []int64{5e6, 5e6},
	}}); err != nil || !v.Admitted {
		t.Fatalf("split: %+v, %v", v, err)
	}

	// Server-scoped surface: list, stats.
	list, err := c.ListSessions(ctx)
	if err != nil || list.Count != 2 {
		t.Fatalf("list: %+v, %v", list, err)
	}
	sstats, err := c.ServerStats(ctx)
	if err != nil || sstats.SessionsLive != 2 || sstats.Requests == 0 {
		t.Fatalf("server stats: %+v, %v", sstats, err)
	}
	// Lifecycle tail: delete, then every handle call 404s.
	if err := esess.Delete(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := esess.State(ctx); !api.IsCode(err, api.CodeSessionNotFound) {
		t.Fatalf("state after delete: %v", err)
	}
	if _, err := c.Session("ghost").Stats(ctx); !api.IsCode(err, api.CodeSessionNotFound) {
		t.Fatalf("ghost session: %v", err)
	}
}
