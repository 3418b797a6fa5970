package api

import (
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"testing"
)

func intp(v int) *int    { return &v }
func boolp(v bool) *bool { return &v }

// goldenCases pins the v1 wire schema: one populated value and its
// exact JSON for every type that crosses the wire. A failure here
// means the schema changed — which within a version is only legal as
// a pure addition (extend the golden, never edit existing fields).
var goldenCases = []struct {
	name   string
	value  any
	golden string
}{
	{
		"Task",
		Task{ID: 7, Name: "cam", WCETNs: 2e6, PeriodNs: 1e7, DeadlineNs: 8e6, Priority: 3, WSS: 65536, Core: 2},
		`{"id":7,"name":"cam","wcet_ns":2000000,"period_ns":10000000,"deadline_ns":8000000,"priority":3,"wss":65536,"core":2}`,
	},
	{
		"Task-minimal",
		Task{ID: 1, WCETNs: 1e6, PeriodNs: 1e7},
		`{"id":1,"wcet_ns":1000000,"period_ns":10000000}`,
	},
	{
		"Part",
		Part{Core: 1, BudgetNs: 3e6},
		`{"core":1,"budget_ns":3000000}`,
	},
	{
		"Split",
		Split{
			Task:      Task{ID: 2, WCETNs: 6e6, PeriodNs: 1e7},
			Parts:     []Part{{Core: 0, BudgetNs: 3e6}, {Core: 1, BudgetNs: 3e6}},
			WindowsNs: []int64{5e6, 5e6},
		},
		`{"task":{"id":2,"wcet_ns":6000000,"period_ns":10000000},"parts":[{"core":0,"budget_ns":3000000},{"core":1,"budget_ns":3000000}],"windows_ns":[5000000,5000000]}`,
	},
	{
		"CreateSessionRequest",
		CreateSessionRequest{Name: "rack1", Cores: 4, Policy: "fp", Model: json.RawMessage(`"paper"`)},
		`{"name":"rack1","cores":4,"policy":"fp","model":"paper"}`,
	},
	{
		"SessionCreated",
		SessionCreated{Name: "rack1", Cores: 4, Policy: "fp", Version: "v1"},
		`{"name":"rack1","cores":4,"policy":"fp","version":"v1"}`,
	},
	{
		"SessionList",
		SessionList{Sessions: []string{"a", "b"}, Count: 2},
		`{"sessions":["a","b"],"count":2}`,
	},
	{
		"SessionDeleted",
		SessionDeleted{Deleted: true},
		`{"deleted":true}`,
	},
	{
		"AdmitRequest",
		AdmitRequest{Task: Task{ID: 1, WCETNs: 1e6, PeriodNs: 1e7, Priority: 1}, Core: intp(0), Hold: true},
		`{"task":{"id":1,"wcet_ns":1000000,"period_ns":10000000,"priority":1},"core":0,"hold":true}`,
	},
	{
		"SplitRequest",
		SplitRequest{Split: Split{Task: Task{ID: 2, WCETNs: 2e6, PeriodNs: 1e7}, Parts: []Part{{Core: 0, BudgetNs: 2e6}}}, Hold: true},
		`{"split":{"task":{"id":2,"wcet_ns":2000000,"period_ns":10000000},"parts":[{"core":0,"budget_ns":2000000}]},"hold":true}`,
	},
	{
		"RemoveRequest",
		RemoveRequest{ID: 9},
		`{"id":9}`,
	},
	{
		"Removed",
		Removed{Removed: true, ID: 9},
		`{"removed":true,"id":9}`,
	},
	{
		"Verdict",
		Verdict{TaskID: 7, Admitted: true, Core: 2, Pending: true, Probes: 3},
		`{"task_id":7,"admitted":true,"core":2,"pending":true,"probes":3}`,
	},
	{
		"Verdict-rejected",
		Verdict{TaskID: 7, Admitted: false, Core: -1, Probes: 4},
		`{"task_id":7,"admitted":false,"core":-1,"probes":4}`,
	},
	{
		"State",
		State{
			Name: "rack1", Cores: 2, Policy: "edf",
			Tasks:           []Task{{ID: 1, WCETNs: 1e6, PeriodNs: 1e7}},
			Splits:          []Split{{Task: Task{ID: 2, WCETNs: 2e6, PeriodNs: 1e7}, Parts: []Part{{Core: 0, BudgetNs: 2e6}}}},
			CoreUtilization: []float64{0.5, 0.25},
			Schedulable:     boolp(true),
		},
		`{"name":"rack1","cores":2,"policy":"edf","tasks":[{"id":1,"wcet_ns":1000000,"period_ns":10000000}],"splits":[{"task":{"id":2,"wcet_ns":2000000,"period_ns":10000000},"parts":[{"core":0,"budget_ns":2000000}]}],"core_utilization":[0.5,0.25],"schedulable":true}`,
	},
	{
		"State-pending",
		State{Name: "r", Cores: 1, Policy: "fp", Tasks: nil, CoreUtilization: []float64{0}, ProbePending: true},
		`{"name":"r","cores":1,"policy":"fp","tasks":null,"core_utilization":[0],"probe_pending":true}`,
	},
	{
		"SessionStats",
		SessionStats{Name: "rack1", Tasks: 3, Admitted: 5, Rejected: 2, Removed: 1,
			StateCacheHits: 8, StateCacheMisses: 2,
			Admission: AdmissionStats{Probes: 10, FullTests: 1, CoreTests: 9, VerdictHits: 4, FPSolves: 6, FPIterations: 18, WarmStarts: 3, CacheHitRate: 0.4, MeanFPIterations: 3, WarmStartRate: 0.5}},
		`{"name":"rack1","tasks":3,"admitted":5,"rejected":2,"removed":1,"state_cache_hits":8,"state_cache_misses":2,"admission":{"probes":10,"full_tests":1,"core_tests":9,"verdict_hits":4,"fp_solves":6,"fp_iterations":18,"warm_starts":3,"cache_hit_rate":0.4,"mean_fp_iterations":3,"warm_start_rate":0.5}}`,
	},
	{
		"ServerStats",
		ServerStats{Requests: 100, SessionsLive: 2, SessionsCreated: 3, SessionsEvicted: 1, SessionsRestored: 1, SessionsDeleted: 1,
			AdmissionFlushed: AdmissionStats{Probes: 7}},
		`{"requests":100,"sessions_live":2,"sessions_created":3,"sessions_evicted":1,"sessions_restored":1,"sessions_deleted":1,"admission_flushed":{"probes":7,"full_tests":0,"core_tests":0,"verdict_hits":0,"fp_solves":0,"fp_iterations":0,"warm_starts":0,"cache_hit_rate":0,"mean_fp_iterations":0,"warm_start_rate":0}}`,
	},
	{
		"Health",
		Health{Status: "ok"},
		`{"status":"ok"}`,
	},
	{
		"TaskGen",
		TaskGen{N: 12, TotalUtilization: 2.5, MaxTaskUtilization: 0.8, PeriodMinNs: 1e7, PeriodMaxNs: 1e9, Periods: "harmonic", WSSMin: 4096, WSSMax: 262144, Seed: 7},
		`{"n":12,"total_utilization":2.5,"max_task_utilization":0.8,"period_min_ns":10000000,"period_max_ns":1000000000,"periods":"harmonic","wss_min":4096,"wss_max":262144,"seed":7}`,
	},
	{
		"BatchRequest",
		BatchRequest{Generate: &TaskGen{N: 16, TotalUtilization: 2.5, Seed: 7}, Order: "util-desc"},
		`{"generate":{"n":16,"total_utilization":2.5,"seed":7},"order":"util-desc"}`,
	},
	{
		"BatchRequest-try-only",
		BatchRequest{Tasks: []Task{{ID: 1, WCETNs: 1e6, PeriodNs: 1e7}}, TryOnly: true},
		`{"tasks":[{"id":1,"wcet_ns":1000000,"period_ns":10000000}],"try_only":true}`,
	},
	{
		"BatchSummary",
		BatchSummary{Done: true, Admitted: 10, Rejected: 2, Schedulable: true, TaskCount: 10, Canceled: true},
		`{"done":true,"admitted":10,"rejected":2,"schedulable":true,"task_count":10,"canceled":true}`,
	},
	{
		"BatchSummary-try-only",
		BatchSummary{Done: true, Admitted: 3, Rejected: 1, Schedulable: true, TaskCount: 5, TryOnly: true},
		`{"done":true,"admitted":3,"rejected":1,"schedulable":true,"task_count":5,"try_only":true}`,
	},
	{
		"SweepResult",
		SweepResult{Cores: 2, Tasks: 6, SetsPerPoint: 4, Seed: 3,
			Series:    []SweepSeries{{Algorithm: "FFD", Points: []SweepPoint{{TotalUtilization: 1.2, PerCoreUtilization: 0.6, Accepted: 3, Total: 4, Ratio: 0.75, WilsonLo: 0.3, WilsonHi: 0.95, MeanSplits: 0.5, SimViolations: 0}}}},
			Admission: AdmissionStats{Probes: 42}},
		`{"cores":2,"tasks":6,"sets_per_point":4,"seed":3,"series":[{"algorithm":"FFD","points":[{"total_utilization":1.2,"per_core_utilization":0.6,"accepted":3,"total":4,"ratio":0.75,"wilson_lo":0.3,"wilson_hi":0.95,"mean_splits":0.5,"sim_violations":0}]}],"admission":{"probes":42,"full_tests":0,"core_tests":0,"verdict_hits":0,"fp_solves":0,"fp_iterations":0,"warm_starts":0,"cache_hit_rate":0,"mean_fp_iterations":0,"warm_start_rate":0}}`,
	},
	{
		"AuditReport",
		AuditReport{Name: "rack1", Seq: 5, Op: "admit", TaskID: 9, Core: 1, Tasks: 4, Admitted: true, Schedulable: true,
			Task:      &Task{ID: 9, WCETNs: 1e6, PeriodNs: 1e7, Priority: 2},
			Admission: AdmissionStats{Probes: 1, FullTests: 1, FPSolves: 2, FPIterations: 6, MeanFPIterations: 3}},
		`{"name":"rack1","seq":5,"op":"admit","task_id":9,"core":1,"tasks":4,"admitted":true,"schedulable":true,"task":{"id":9,"wcet_ns":1000000,"period_ns":10000000,"priority":2},"admission":{"probes":1,"full_tests":1,"core_tests":0,"verdict_hits":0,"fp_solves":2,"fp_iterations":6,"warm_starts":0,"cache_hit_rate":0,"mean_fp_iterations":3,"warm_start_rate":0}}`,
	},
	{
		"AuditReport-remove",
		AuditReport{Name: "rack1", Seq: 6, Op: "remove", TaskID: 9, Core: -1, Tasks: 4, Admitted: true, Schedulable: true,
			Admission: AdmissionStats{}},
		`{"name":"rack1","seq":6,"op":"remove","task_id":9,"core":-1,"tasks":4,"admitted":true,"schedulable":true,"admission":{"probes":0,"full_tests":0,"core_tests":0,"verdict_hits":0,"fp_solves":0,"fp_iterations":0,"warm_starts":0,"cache_hit_rate":0,"mean_fp_iterations":0,"warm_start_rate":0}}`,
	},
	{
		"Error-seq-truncated",
		Error{Code: CodeSeqTruncated, Message: "admitd: seq 3 predates the retained commit log"},
		`{"code":"seq_truncated","message":"admitd: seq 3 predates the retained commit log"}`,
	},
	{
		"Error",
		Error{Code: CodeDuplicateTask, Message: "admitd: task id already admitted: 7"},
		`{"code":"duplicate_task","message":"admitd: task id already admitted: 7"}`,
	},
	{
		// The two held-probe conflict envelopes, pinned byte for byte
		// (both map to 409; admitd's readpath_test pins them end to
		// end over HTTP).
		"Error-probe-pending",
		Error{Code: CodeProbePending, Message: "admitd: a held probe is pending (commit or rollback first)"},
		`{"code":"probe_pending","message":"admitd: a held probe is pending (commit or rollback first)"}`,
	},
	{
		"Error-no-probe-pending",
		Error{Code: CodeNoProbePending, Message: "admitd: no probe pending"},
		`{"code":"no_probe_pending","message":"admitd: no probe pending"}`,
	},
}

// TestGoldenRoundTrip marshals every value against its golden JSON
// and unmarshals the golden back into an equal value — both
// directions of the schema pinned byte for byte.
func TestGoldenRoundTrip(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := json.Marshal(tc.value)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != tc.golden {
				t.Fatalf("marshal drift:\n got  %s\n want %s", got, tc.golden)
			}
			fresh := reflect.New(reflect.TypeOf(tc.value))
			if err := json.Unmarshal([]byte(tc.golden), fresh.Interface()); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fresh.Elem().Interface(), tc.value) {
				t.Fatalf("unmarshal drift:\n got  %#v\n want %#v", fresh.Elem().Interface(), tc.value)
			}
			// Second marshal of the decoded value must be stable.
			again, err := json.Marshal(fresh.Elem().Interface())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, again) {
				t.Fatalf("re-marshal drift:\n got  %s\n want %s", again, got)
			}
		})
	}
}

// TestForwardCompatibleDecoding: decoding must ignore unknown fields
// — a newer server may add fields at any time within a version.
func TestForwardCompatibleDecoding(t *testing.T) {
	var v Verdict
	in := `{"task_id":7,"admitted":true,"core":2,"probes":1,"added_in_v1_9":"x","nested":{"deep":1}}`
	if err := json.Unmarshal([]byte(in), &v); err != nil {
		t.Fatalf("unknown fields must not fail decoding: %v", err)
	}
	if v.TaskID != 7 || !v.Admitted || v.Core != 2 {
		t.Fatalf("known fields lost: %+v", v)
	}
}

// TestErrorCodeStatuses pins the code → HTTP status derivation,
// including the 404-vs-409 split between missing and conflicting
// resources.
func TestErrorCodeStatuses(t *testing.T) {
	want := map[Code]int{
		CodeBadRequest:          http.StatusBadRequest,
		CodeSessionNotFound:     http.StatusNotFound,
		CodeUnknownTask:         http.StatusNotFound,
		CodeSessionExists:       http.StatusConflict,
		CodeProbePending:        http.StatusConflict,
		CodeNoProbePending:      http.StatusConflict,
		CodeProbeRejected:       http.StatusConflict,
		CodeDuplicateTask:       http.StatusConflict,
		CodeSessionClosed:       http.StatusGone,
		CodeSeqTruncated:        http.StatusGone,
		CodeInternal:            http.StatusInternalServerError,
		Code("from_the_future"): http.StatusBadRequest,
	}
	for code, status := range want {
		if got := code.HTTPStatus(); got != status {
			t.Errorf("%s: HTTP %d, want %d", code, got, status)
		}
	}
}

// TestDecodeError covers both the envelope path and the degraded
// (non-envelope body) path.
func TestDecodeError(t *testing.T) {
	e := DecodeError(409, []byte(`{"code":"duplicate_task","message":"nope"}`))
	if e.Code != CodeDuplicateTask || e.Message != "nope" {
		t.Fatalf("envelope decode: %+v", e)
	}
	if !IsCode(e, CodeDuplicateTask) || IsCode(e, CodeUnknownTask) {
		t.Fatal("IsCode mismatch")
	}
	if e.HTTPStatus() != http.StatusConflict {
		t.Fatalf("status: %d", e.HTTPStatus())
	}
	deg := DecodeError(502, []byte(`<html>bad gateway</html>`))
	if deg.Code != CodeInternal || deg.Message == "" {
		t.Fatalf("degraded decode: %+v", deg)
	}
	deg400 := DecodeError(400, []byte(`not json`))
	if deg400.Code != CodeBadRequest {
		t.Fatalf("degraded 4xx decode: %+v", deg400)
	}
}

// TestPaths pins the route construction (escaping included).
func TestPaths(t *testing.T) {
	if SessionPath("rack1") != "/v1/sessions/rack1" {
		t.Fatal(SessionPath("rack1"))
	}
	if SessionOpPath("a b/c", OpAdmit) != "/v1/sessions/a%20b%2Fc/admit" {
		t.Fatal(SessionOpPath("a b/c", OpAdmit))
	}
	if PathStats != "/v1/stats" || PathSessions != "/v1/sessions" {
		t.Fatal("route roots drifted")
	}
}
