package admitd

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/api"
	"repro/internal/analysis"
	"repro/internal/overhead"
	"repro/internal/wal"
)

// Checkpoint records: the v1 payload codec, the import of the older
// layout's checkpoint files, and what carry-forward and the compaction
// pin guarantee.

// goldenSnapshot is a session state touching every field of the v1
// checkpoint payload.
func goldenSnapshot() *sessionSnapshot {
	return &sessionSnapshot{
		Cores:  3,
		Policy: "fp",
		Model:  overhead.PaperModel(),
		Tasks: []api.Task{
			{ID: 7, Name: "a", WCETNs: 1e6, PeriodNs: 1e7, DeadlineNs: 9e6, Priority: 2, WSS: 4096, Core: 1},
			{ID: 9, WCETNs: 2e6, PeriodNs: 2e7, DeadlineNs: 2e7, Priority: 5, Core: 0},
		},
		Splits: []api.Split{{
			Task:      api.Task{ID: 11, Name: "split", WCETNs: 6e6, PeriodNs: 1e7, DeadlineNs: 1e7, Priority: 1},
			Parts:     []api.Part{{Core: 0, BudgetNs: 3e6}, {Core: 2, BudgetNs: 3e6}},
			WindowsNs: []int64{5e6, 5e6},
		}},
		Admitted: 4, Rejected: 3, Removed: 1, StateCacheHits: 10, StateCacheMisses: 2,
		Admission: analysis.AdmissionStats{
			Probes: 21, FullTests: 22, CoreTests: 23, VerdictHits: 24, FPSolves: 25,
			FPIterations: 26, WarmStarts: 27, DemandTests: 28, DemandPoints: 29,
		},
	}
}

// TestCheckpointRecordGolden pins the v1 payload bytes: a change to them
// is a format change, which needs a new version byte, not an edit.
func TestCheckpointRecordGolden(t *testing.T) {
	got := hex.EncodeToString(walEncodeCheckpoint(nil, goldenSnapshot())) + "\n"
	golden := "testdata/checkpoint-v1.hex"
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	if got != string(want) {
		t.Fatalf("v1 checkpoint payload drifted from %s:\n got %s\nwant %s", golden, got, want)
	}
	snap, err := walDecodeCheckpoint(walEncodeCheckpoint(nil, goldenSnapshot()))
	if err != nil || !reflect.DeepEqual(snap, goldenSnapshot()) {
		t.Fatalf("decode of the golden payload: %+v, %v", snap, err)
	}
}

// TestCheckpointPayloadIgnoresNewAdmissionFields: the payload lists the
// admission counters field by field. A field added to
// analysis.AdmissionStats leaves the bytes unchanged (here: every field
// beyond the v1 nine is set, and the payload must not move), and each of
// the nine is really encoded (bumping any one moves it).
func TestCheckpointPayloadIgnoresNewAdmissionFields(t *testing.T) {
	v1 := []string{"Probes", "FullTests", "CoreTests", "VerdictHits", "FPSolves",
		"FPIterations", "WarmStarts", "DemandTests", "DemandPoints"}
	want := walEncodeCheckpoint(nil, goldenSnapshot())
	snap := goldenSnapshot()
	stats := reflect.ValueOf(&snap.Admission).Elem()
	for i := 0; i < stats.NumField(); i++ {
		f := stats.Field(i)
		if name := stats.Type().Field(i).Name; !strings.Contains(strings.Join(v1, " "), name) {
			switch {
			case f.CanInt():
				f.SetInt(12345)
			case f.CanFloat():
				f.SetFloat(0.5)
			default:
				t.Fatalf("AdmissionStats.%s is a %s: extend this test", name, f.Kind())
			}
		}
	}
	if got := walEncodeCheckpoint(nil, snap); !bytes.Equal(got, want) {
		t.Fatal("an AdmissionStats field outside the v1 layout changed the checkpoint payload")
	}
	for _, name := range v1 {
		snap := goldenSnapshot()
		f := reflect.ValueOf(&snap.Admission).Elem().FieldByName(name)
		f.SetInt(f.Int() + 1)
		if bytes.Equal(walEncodeCheckpoint(nil, snap), want) {
			t.Fatalf("AdmissionStats.%s is not in the checkpoint payload", name)
		}
	}
}

// FuzzCheckpointRecord: arbitrary payload bytes never panic the decoder,
// and whatever decodes re-encodes to exactly the bytes it came from — a
// checkpoint has one encoding.
func FuzzCheckpointRecord(f *testing.F) {
	f.Add(walEncodeCheckpoint(nil, goldenSnapshot()))
	f.Add(walEncodeCheckpoint(nil, &sessionSnapshot{Cores: 1, Policy: "edf"}))
	f.Add([]byte{walKindCkpt, walCkptV1})
	f.Fuzz(func(t *testing.T, payload []byte) {
		snap, err := walDecodeCheckpoint(payload)
		if err != nil {
			return
		}
		if got := walEncodeCheckpoint(nil, snap); !bytes.Equal(got, payload) {
			t.Fatalf("encode(decode(p)) != p:\n   p %x\n got %x", payload, got)
		}
	})
}

// --- the import of checkpoint files ------------------------------------

// checkpointRecords counts, per stream, the checkpoint records in the
// log of a data directory no daemon has open.
func checkpointRecords(t *testing.T, dataDir string) map[string]int {
	t.Helper()
	n := map[string]int{}
	handWrittenLog(t, dataDir, func(l *wal.Log) {
		if err := l.Replay(func(r wal.Record) error {
			if walKind(r.Payload) == walKindCkpt {
				n[r.Stream]++
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	})
	return n
}

// legacyLayout turns a crashed data directory into what the older layout
// left: every stream's latest checkpoint record becomes a JSON file under
// checkpoints/, written the way that layout wrote them, and the log loses
// its checkpoint records. Returns the file paths in name order.
func legacyLayout(t *testing.T, dataDir string) []string {
	t.Helper()
	latest := map[string]*sessionSnapshot{}
	rewriteLog(t, dataDir, func(r wal.Record) []byte {
		if walKind(r.Payload) != walKindCkpt {
			return r.Payload
		}
		snap, err := walDecodeCheckpoint(r.Payload)
		if err != nil {
			t.Fatal(err)
		}
		name, gen, _ := parseStreamKey(r.Stream)
		snap.Name, snap.Seq, snap.Gen = name, r.Seq, gen
		latest[name] = snap
		return nil
	})
	dir := filepath.Join(dataDir, "checkpoints")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	var paths []string
	for name, snap := range latest {
		data, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, url.PathEscape(name)+".json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	sort.Strings(paths)
	return paths
}

// TestCheckpointImportCrashAtEveryStep: the import of the older layout
// crashes after each of its appends, after its sync, and after each file
// removal. Every reopen recovers every session bit-identically, leaves
// exactly one checkpoint record per imported stream — none imported
// twice — and no file behind; a deleted session's leftover file (a
// delete that crashed before removing it) brings nothing back.
func TestCheckpointImportCrashAtEveryStep(t *testing.T) {
	image := t.TempDir()
	srv := newTestServer(t, durableConfig(image))
	names := []string{"idle", "tail", "c/d", "gone"}
	path := func(name string) string { return "/v1/sessions/" + url.PathEscape(name) }
	for i, name := range names {
		mustStatus(t, srv, "POST", "/v1/sessions", api.CreateSessionRequest{Name: name, Cores: 2, Policy: []string{"fp", "edf"}[i%2]}, http.StatusCreated)
		admitAcked(t, srv, url.PathEscape(name), 1, 3)
	}
	if err := srv.store.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	admitAcked(t, srv, "tail", 10, 2)
	admitAcked(t, srv, url.PathEscape("c/d"), 10, 1)
	mustStatus(t, srv, "DELETE", path("gone"), nil, http.StatusOK)
	mustStatus(t, srv, "POST", "/v1/sessions", api.CreateSessionRequest{Name: "fresh", Cores: 1}, http.StatusCreated)
	want := map[string][]byte{}
	for _, name := range append(names[:3:3], "fresh") {
		want[name] = mustStatus(t, srv, "GET", path(name), nil, http.StatusOK)
	}
	crashServer(srv)
	files := legacyLayout(t, image)
	if len(files) != 4 {
		t.Fatalf("older layout has %d checkpoint files, want 4 (gone's among them)", len(files))
	}

	// One undisturbed import shows what it appends.
	ref := filepath.Join(t.TempDir(), "d")
	copyTree(t, image, ref)
	before := len(streamRecords(t, ref, "")) // every stream's records
	check := func(dir string) {
		t.Helper()
		srv := newTestServer(t, durableConfig(dir))
		for name, w := range want {
			if got := mustStatus(t, srv, "GET", path(name), nil, http.StatusOK); !bytes.Equal(got, w) {
				t.Fatalf("%q after the import:\n got %s\nwant %s", name, got, w)
			}
		}
		mustStatus(t, srv, "GET", path("gone"), nil, http.StatusNotFound)
		if n := srv.met.walErrors.Value(); n != 0 {
			t.Fatalf("admitd_wal_errors_total = %d after the import", n)
		}
		crashServer(srv)
		if left, _ := filepath.Glob(filepath.Join(dir, "checkpoints", "*.json")); len(left) != 0 {
			t.Fatalf("files left after the import: %v", left)
		}
		got := checkpointRecords(t, dir)
		for _, stream := range []string{"idle/1", "tail/1", "c%2Fd/1"} {
			if got[stream] != 1 {
				t.Fatalf("%d checkpoint records of %s, want 1: %v", got[stream], stream, got)
			}
		}
		if len(got) != 3 {
			t.Fatalf("checkpoint records of streams that had no file to import: %v", got)
		}
	}
	check(ref)
	var appended []wal.Record
	handWrittenLog(t, ref, func(l *wal.Log) {
		i := 0
		if err := l.Replay(func(r wal.Record) error {
			if i++; i > before {
				r.Payload = append([]byte(nil), r.Payload...)
				appended = append(appended, r)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	})
	if len(appended) != 3 {
		t.Fatalf("the import appended %d records, want 3", len(appended))
	}

	// Crash after the k-th append (k = 3: after the sync), then after
	// the j-th file removal.
	crashAt := func(k, removed int) {
		t.Run(fmt.Sprintf("appends=%d,removed=%d", k, removed), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "d")
			copyTree(t, image, dir)
			handWrittenLog(t, dir, func(l *wal.Log) {
				for _, r := range appended[:k] {
					mustAppend(t, l, r.Stream, r.Seq, r.Payload)
				}
			})
			for _, f := range files[:removed] {
				if err := os.Remove(filepath.Join(dir, "checkpoints", filepath.Base(f))); err != nil {
					t.Fatal(err)
				}
			}
			check(dir)
		})
	}
	for k := 0; k <= len(appended); k++ {
		crashAt(k, 0)
	}
	for j := 1; j <= len(files); j++ {
		crashAt(len(appended), j)
	}
}

// TestCheckpointImportKeepsFileOfPoisonedStream: a checkpoint file
// whose stream tail cannot be folded on top of it (a sequence gap) is
// not imported and not removed — its session answers 500, the file
// stays for an operator — while the other files are imported. So is an
// undecodable file whose stream the log no longer holds: its name
// answers 500 naming the file and cannot be created afresh over it.
func TestCheckpointImportKeepsFileOfPoisonedStream(t *testing.T) {
	dir := t.TempDir()
	handWrittenLog(t, dir, func(l *wal.Log) {
		mustAppend(t, l, "gap/1", 5, admitPayload(5))
		mustAppend(t, l, "gap/1", 7, admitPayload(7)) // seq 6 never made it
	})
	files := filepath.Join(dir, "checkpoints")
	if err := os.MkdirAll(files, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"gap", "ok"} {
		snap := &sessionSnapshot{Name: name, Cores: 2, Policy: "fp", Model: overhead.Zero(), Seq: 4, Gen: 1,
			Tasks: []api.Task{{ID: 1, WCETNs: 1e6, PeriodNs: 1e8, DeadlineNs: 1e8, Priority: 1}}}
		data, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(files, name+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	bad := filepath.Join(files, "bad.json") // no stream in the log: the file was all there was
	if err := os.WriteFile(bad, []byte(`{"name": "bad", "seq": `), 0o644); err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, durableConfig(dir))
	if status, err := getStatus(t, srv, "gap"); status != http.StatusInternalServerError || !errors.Is(err, ErrSeqGap) {
		t.Fatalf("gapped stream behind a file: HTTP %d, %v", status, err)
	}
	if status, err := getStatus(t, srv, "bad"); status != http.StatusInternalServerError || err == nil || !strings.Contains(err.Error(), bad) {
		t.Fatalf("undecodable file: HTTP %d, %v; want 500 naming %s", status, err, bad)
	}
	mustStatus(t, srv, "POST", "/v1/sessions", api.CreateSessionRequest{Name: "bad", Cores: 2}, http.StatusConflict)
	mustStatus(t, srv, "GET", "/v1/sessions/ok", nil, http.StatusOK)
	left, _ := filepath.Glob(filepath.Join(files, "*.json"))
	sort.Strings(left)
	if len(left) != 2 || filepath.Base(left[0]) != "bad.json" || filepath.Base(left[1]) != "gap.json" {
		t.Fatalf("files left after the import: %v, want bad.json and gap.json", left)
	}
}

// --- carry-forward and the compaction pin --------------------------------

// TestCheckpointCarryLetsIdleStreamsCompact: an evicted session that
// never comes back has its checkpoint carried into every round's fresh
// segment, so it pins nothing: after a few rounds of traffic elsewhere
// its stream is that one record, and a restart restores it from it.
func TestCheckpointCarryLetsIdleStreamsCompact(t *testing.T) {
	dir := t.TempDir()
	srv := newTestServer(t, Config{DataDir: dir, CheckpointEvery: -1, MaxSessions: 1})
	mustStatus(t, srv, "POST", "/v1/sessions", api.CreateSessionRequest{Name: "idle", Cores: 2}, http.StatusCreated)
	admitAcked(t, srv, "idle", 1, 4)
	want := sessionState(t, srv, "idle")
	mustStatus(t, srv, "POST", "/v1/sessions", api.CreateSessionRequest{Name: "busy", Cores: 2}, http.StatusCreated)
	for round := 0; round < 3; round++ {
		admitAcked(t, srv, "busy", int64(10*round+1), 2)
		if err := srv.store.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	crashServer(srv)
	recs := streamRecords(t, dir, "idle/1")
	if len(recs) != 1 || walKind(recs[0].Payload) != walKindCkpt || recs[0].Seq != 4 {
		t.Fatalf("the idle stream kept %d records after three rounds, want its one checkpoint", len(recs))
	}
	srv2 := newTestServer(t, durableConfig(dir))
	if got := sessionState(t, srv2, "idle"); !bytes.Equal(got, want) {
		t.Fatalf("idle session after carries:\n got %s\nwant %s", got, want)
	}
}

// TestCompactKeepsLatestCheckpoint: compaction never drops the segment
// holding a live stream's latest checkpoint record, even when every
// record in it is covered — here no round carried the record forward
// (as when the carry's read fails), and the segment must stay.
func TestCompactKeepsLatestCheckpoint(t *testing.T) {
	dir := t.TempDir()
	srv := newTestServer(t, durableConfig(dir))
	mustStatus(t, srv, "POST", "/v1/sessions", api.CreateSessionRequest{Name: "ev", Cores: 2}, http.StatusCreated)
	admitAcked(t, srv, "ev", 1, 3)
	want := sessionState(t, srv, "ev")
	sh := srv.store.shardFor("ev")
	sh.mu.Lock()
	s := sh.m["ev"]
	sh.mu.Unlock()
	srv.store.evict(sh, s) // the checkpoint record covers the whole segment
	srv.store.plane.rotate()
	srv.store.plane.compact()
	if got := sessionState(t, srv, "ev"); !bytes.Equal(got, want) {
		t.Fatalf("restore after compaction:\n got %s\nwant %s", got, want)
	}
	crashServer(srv)
	srv2 := newTestServer(t, durableConfig(dir))
	if got := sessionState(t, srv2, "ev"); !bytes.Equal(got, want) {
		t.Fatalf("restart after compaction:\n got %s\nwant %s", got, want)
	}
}

// TestCheckpointTooLargeForAFrame: a task name too long for a record is
// refused, and a session whose checkpoint would not fit in one log frame gets none — the round reports it, counted — and
// keeps its records pinned instead, while the other sessions' records
// appended after that round survive a restart.
func TestCheckpointTooLargeForAFrame(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a session of about 20 MB")
	}
	dir := t.TempDir()
	srv := newTestServer(t, durableConfig(dir))
	for _, name := range []string{"big", "small"} {
		mustStatus(t, srv, "POST", "/v1/sessions", api.CreateSessionRequest{Name: name, Cores: 2}, http.StatusCreated)
	}
	admitAcked(t, srv, "small", 1, 3)
	label := strings.Repeat("n", walMaxString)
	mustStatus(t, srv, "POST", "/v1/sessions/big/admit", api.AdmitRequest{Task: api.Task{ID: 1, Name: label + "n",
		WCETNs: 1_000, PeriodNs: 1_000_000_000, Priority: 1}}, http.StatusBadRequest) // a record could not hold the name
	for id := int64(1); id <= 270; id += 15 {
		var tasks []api.Task
		for i := id; i < id+15; i++ {
			tasks = append(tasks, api.Task{ID: i, Name: label, WCETNs: 1_000, PeriodNs: 1_000_000_000,
				DeadlineNs: 1_000_000_000, Priority: int(i)})
		}
		mustStatus(t, srv, "POST", "/v1/sessions/big/batch", api.BatchRequest{Tasks: tasks}, http.StatusOK)
	}
	if err := srv.store.Checkpoint(); !errors.Is(err, wal.ErrFrameTooLarge) {
		t.Fatalf("checkpoint round with an oversized session: %v, want ErrFrameTooLarge", err)
	}
	if n := srv.store.plane.walErrors.Load(); n != 1 {
		t.Fatalf("wal errors after the round: %d, want 1", n)
	}
	admitAcked(t, srv, "small", 10, 2)
	want := map[string][]byte{"big": sessionState(t, srv, "big"), "small": sessionState(t, srv, "small")}
	crashServer(srv)
	srv2 := newTestServer(t, durableConfig(dir))
	for name, w := range want {
		if got := sessionState(t, srv2, name); !bytes.Equal(got, w) {
			t.Fatalf("%s after restart: %d bytes of state, want %d", name, len(got), len(w))
		}
	}
}
