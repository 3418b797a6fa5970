package admitd

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/api"
)

// The golden commit log: a data directory written by the daemon and
// committed under testdata/golden-log, with what a restart must make of
// it in testdata/golden-log.json. A change to how the log is scanned or
// folded has to recover it to the same states and the same registry.

const (
	goldenLogDir  = "testdata/golden-log"
	goldenLogWant = "testdata/golden-log.json"
)

// goldenEntry is one name's registry entry after the restart, and the
// state bytes its session then answers (live names only).
type goldenEntry struct {
	Gen     uint64 `json:"gen"`
	LastSeq int64  `json:"last_seq"`
	CkptSeq int64  `json:"ckpt_seq"`
	CkptLSN uint64 `json:"ckpt_lsn"`
	CkptOff int64  `json:"ckpt_off"`
	Deleted bool   `json:"deleted"`
	State   string `json:"state,omitempty"`
}

type goldenLog struct {
	Records     uint64                 `json:"records"`
	Checkpoints uint64                 `json:"checkpoints"`
	Names       map[string]goldenEntry `json:"names"`
}

// writeGoldenLog runs the history the golden log records and leaves a
// crash image of it in dir: two fixed-priority and two EDF sessions
// with creates, admits, EDF splits and removes; a checkpoint round that
// rotates the log and compacts away its first segment (and with it a
// session deleted before the round); then a tail over two segments of
// admits, removes and a split, a tombstone, and a name deleted and
// created again (its second generation, behind its first one's
// tombstone). It returns every live session's state bytes at the crash.
func writeGoldenLog(t *testing.T, dir string) map[string][]byte {
	srv, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	post := func(path string, body any, want int) {
		t.Helper()
		mustStatus(t, srv, "POST", path, body, want)
	}
	admit := func(name string, id, wcet int64) {
		t.Helper()
		post("/v1/sessions/"+name+"/admit", api.AdmitRequest{Task: api.Task{
			ID: id, Name: fmt.Sprintf("t%d", id), WCETNs: wcet, PeriodNs: 1e7, DeadlineNs: 1e7, Priority: int(id), WSS: 2048 * id,
		}}, http.StatusOK)
	}
	remove := func(name string, id int64) {
		t.Helper()
		post("/v1/sessions/"+name+"/remove", api.RemoveRequest{ID: id}, http.StatusOK)
	}
	create := func(name string, cores int, policy, model string) {
		t.Helper()
		post("/v1/sessions", api.CreateSessionRequest{Name: name, Cores: cores, Policy: policy, Model: json.RawMessage(model)}, http.StatusCreated)
	}
	create("fp-a", 4, "fp", `"paper"`)
	create("edf-b", 2, "edf", `"zero"`)
	create("re/born", 2, "fp", `"zero"`)
	create("gone", 1, "fp", `"zero"`)
	create("tomb", 1, "edf", `"paper"`)
	for id := int64(1); id <= 6; id++ {
		admit("fp-a", id, 1e5*id)
	}
	admit("edf-b", 1, 4e6)
	post("/v1/sessions/edf-b/split", api.SplitRequest{Split: api.Split{
		Task:      api.Task{ID: 2, Name: "split", WCETNs: 6e6, PeriodNs: 1e7},
		Parts:     []api.Part{{Core: 0, BudgetNs: 3e6}, {Core: 1, BudgetNs: 3e6}},
		WindowsNs: []int64{5e6, 5e6},
	}}, http.StatusOK)
	admit("re%2Fborn", 1, 1e6)
	admit("gone", 1, 1e6)
	admit("tomb", 1, 1e6)
	remove("fp-a", 2)
	mustStatus(t, srv, "DELETE", "/v1/sessions/gone", nil, http.StatusOK)

	first := goldenSegments(t, dir)
	if err := srv.store.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if after := goldenSegments(t, dir); len(first) != 1 || len(after) == 0 || after[0] == first[0] {
		t.Fatalf("the checkpoint round did not compact the first segment: %v, then %v", first, after)
	}

	admit("fp-a", 7, 3e5)
	remove("fp-a", 4)
	admit("edf-b", 3, 1e6)
	remove("edf-b", 2)
	// A round that seals the segment and dies before its checkpoints:
	// the tail spans two segments.
	srv.store.plane.rotate()
	post("/v1/sessions/edf-b/split", api.SplitRequest{Split: api.Split{
		Task:      api.Task{ID: 4, WCETNs: 4e6, PeriodNs: 2e7, DeadlineNs: 1.5e7, WSS: 512},
		Parts:     []api.Part{{Core: 1, BudgetNs: 2e6}, {Core: 0, BudgetNs: 2e6}},
		WindowsNs: []int64{7e6, 8e6},
	}}, http.StatusOK)
	mustStatus(t, srv, "DELETE", "/v1/sessions/tomb", nil, http.StatusOK)
	mustStatus(t, srv, "DELETE", "/v1/sessions/re%2Fborn", nil, http.StatusOK)
	create("re/born", 3, "edf", `"zero"`)
	admit("re%2Fborn", 1, 2e6)
	states := map[string][]byte{}
	for _, name := range []string{"fp-a", "edf-b", "re/born"} {
		states[name] = sessionState(t, srv, strings.ReplaceAll(name, "/", "%2F"))
	}
	crashServer(srv)
	return states
}

// goldenSegments lists a data directory's segment files.
func goldenSegments(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(shardDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range ents {
		names = append(names, de.Name())
	}
	sort.Strings(names)
	return names
}

// recoverGolden restarts on a copy of the data directory at src and
// reports the registry and every live session's state.
func recoverGolden(t *testing.T, src string) goldenLog {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "data")
	copyTree(t, src, dir)
	srv := newTestServer(t, durableConfig(dir))
	p := srv.store.plane
	got := goldenLog{Records: p.recoveredRecords, Checkpoints: p.recoveredCkpts, Names: map[string]goldenEntry{}}
	p.mu.Lock()
	for name, e := range p.streams {
		if e.poison != nil {
			t.Errorf("%q: %v", name, e.poison)
		}
		got.Names[name] = goldenEntry{Gen: e.gen, LastSeq: e.lastSeq.Load(), CkptSeq: e.ckptSeq.Load(),
			CkptLSN: e.ckpt.LSN, CkptOff: e.ckpt.Off, Deleted: e.deleted}
	}
	p.mu.Unlock()
	for name, g := range got.Names {
		if !g.Deleted {
			g.State = string(sessionState(t, srv, strings.ReplaceAll(name, "/", "%2F")))
			got.Names[name] = g
		}
	}
	return got
}

// TestRecoverGoldenLog recovers the committed golden log and compares
// every name's registry entry (generation, last seq, checkpoint
// position, tombstone) and every live session's state bytes with the
// committed expectations. Without testdata/golden-log it records a
// fresh log and its expectations, and fails so they are looked at and
// committed.
func TestRecoverGoldenLog(t *testing.T) {
	if _, err := os.Stat(goldenLogDir); os.IsNotExist(err) {
		recordGoldenLog(t)
		t.Fatalf("recorded %s and %s: review and commit them", goldenLogDir, goldenLogWant)
	}
	data, err := os.ReadFile(goldenLogWant)
	if err != nil {
		t.Fatal(err)
	}
	var want goldenLog
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	got := recoverGolden(t, goldenLogDir)
	if got.Records != want.Records || got.Checkpoints != want.Checkpoints {
		t.Errorf("recovered %d records (%d checkpoints), want %d (%d)", got.Records, got.Checkpoints, want.Records, want.Checkpoints)
	}
	for name, w := range want.Names {
		if g, ok := got.Names[name]; !ok {
			t.Errorf("%q: missing from the recovered registry", name)
		} else if !reflect.DeepEqual(g, w) {
			t.Errorf("%q recovered as\n  %+v\nwant\n  %+v", name, g, w)
		}
	}
	for name := range got.Names {
		if _, ok := want.Names[name]; !ok {
			t.Errorf("%q: recovered, but not in %s", name, goldenLogWant)
		}
	}
}

// recordGoldenLog writes the golden log and its expectations: the
// registry the restart builds, and the state bytes every live session
// answered before the crash, which the restart must repeat.
func recordGoldenLog(t *testing.T) {
	dir := t.TempDir()
	states := writeGoldenLog(t, dir)
	got := recoverGolden(t, dir)
	for name, state := range states {
		if got.Names[name].State != string(state) {
			t.Fatalf("%q recovered as\n  %s\nbefore the crash\n  %s", name, got.Names[name].State, state)
		}
	}
	if g := got.Names["re/born"]; g.Gen != 2 || !strings.Contains(g.State, `"policy":"edf"`) {
		t.Fatalf("re/born recovered as %+v", g)
	}
	if !got.Names["tomb"].Deleted {
		t.Fatalf("tomb recovered as %+v", got.Names["tomb"])
	}
	if _, ok := got.Names["gone"]; ok {
		t.Fatal(`"gone" outlived the compaction`)
	}
	want, err := json.MarshalIndent(got, "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	copyTree(t, dir, goldenLogDir)
	if err := os.WriteFile(goldenLogWant, append(want, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
