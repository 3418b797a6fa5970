package admitd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/api"
	"repro/client"
	"repro/internal/analysis"
	"repro/internal/overhead"
	"repro/internal/wal"
)

// Recovery tests: the open-time scan is the only time a restart reads
// the commit log, and what it folds must equal what a per-stream
// replay of the same files would.

func shardDir(dataDir string) string {
	return filepath.Join(dataDir, "wal", "shard-00")
}

// segmentBytes sums the commit-log segment files under a data dir.
func segmentBytes(t testing.TB, dataDir string) int64 {
	t.Helper()
	ents, err := os.ReadDir(shardDir(dataDir))
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, de := range ents {
		fi, err := de.Info()
		if err != nil {
			t.Fatal(err)
		}
		n += fi.Size()
	}
	return n
}

// buildCrashImage leaves, under dir, what a crash of a daemon with n
// sessions sharing one log leaves: a checkpoint of every session and
// a tail of perSession mutations each on top of it (an admission, then
// a removal of the oldest resident, and so on), interleaved in the
// log. Returns the session names and every session's state bytes
// at the crash.
func buildCrashImage(t testing.TB, dir string, n, perSession int) ([]string, map[string][]byte) {
	t.Helper()
	srv, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()
	c := client.InProcess(srv)
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("s%02d", i)
		if _, err := c.CreateSession(ctx, api.CreateSessionRequest{Name: names[i], Cores: 8, Policy: "fp"}); err != nil {
			t.Fatal(err)
		}
	}
	oldest, next := int64(1), int64(1)
	mutate := func(round int) {
		for _, name := range names {
			var err error
			if round%2 == 0 && round > 0 {
				_, err = c.Session(name).Remove(ctx, oldest)
			} else {
				var v api.Verdict
				v, err = c.Session(name).Admit(ctx, api.AdmitRequest{Task: api.Task{
					ID: next, WCETNs: 1_000_000, PeriodNs: 100_000_000, DeadlineNs: 100_000_000, Priority: int(next),
				}})
				if err == nil && !v.Admitted {
					err = fmt.Errorf("task %d rejected", next)
				}
			}
			if err != nil {
				t.Fatalf("%s round %d: %v", name, round, err)
			}
		}
		if round%2 == 0 && round > 0 {
			oldest++
		} else {
			next++
		}
	}
	mutate(0)
	if err := srv.store.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= perSession; r++ {
		mutate(r)
	}
	want := map[string][]byte{}
	for _, name := range names {
		s, err := srv.store.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if want[name], err = s.stateReadBytes(); err != nil {
			t.Fatal(err)
		}
	}
	crashServer(srv)
	return names, want
}

// TestRecoveryReadsLogOnce: reopening after a crash and touching every
// session reads each segment exactly once — the open-time scan — no
// matter how many sessions share the log. (One full pass per session,
// plus two at open, before the scan fed the fold.)
func TestRecoveryReadsLogOnce(t *testing.T) {
	for _, n := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("sessions=%d", n), func(t *testing.T) {
			dir := t.TempDir()
			names, want := buildCrashImage(t, dir, n, 6)
			onDisk := segmentBytes(t, dir)

			srv := newTestServer(t, durableConfig(dir))
			for _, name := range names {
				if got := sessionState(t, srv, name); !bytes.Equal(got, want[name]) {
					t.Fatalf("session %q recovered differently:\n pre: %s\npost: %s", name, want[name], got)
				}
			}
			if got := srv.store.plane.stats().ReadBytes; got != onDisk {
				t.Fatalf("restart read %d commit-log bytes for %d sessions; the segments hold %d (%.1f passes)",
					got, n, onDisk, float64(got)/float64(onDisk))
			}
			// Each session's checkpoint record, then its six-record tail.
			if got, want := srv.store.plane.recoveredRecords, uint64(n*7); got != want {
				t.Fatalf("recovered %d records, want %d", got, want)
			}
			if got := srv.store.plane.recoveredCkpts; got != uint64(n) {
				t.Fatalf("recovered %d checkpoint records, want %d", got, n)
			}
		})
	}
}

// streamSeqs lists the sequence numbers of a live session's stream in
// log order.
func streamSeqs(t *testing.T, s *Session) []int64 {
	t.Helper()
	var seqs []int64
	if err := s.wlog.ReplayStream(s.wstream, -1, func(r wal.Record) error {
		seqs = append(seqs, r.Seq)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return seqs
}

// TestRecoverOneRecordPerMutation pins what the sequence-gap check
// stands on: every committed mutation of every kind — admit, split,
// remove, a held probe's commit, each admission of a batch — logs
// exactly one record, numbered with the session's commit sequence, and
// nothing else (rejections, tries, rollbacks) logs any. So a healthy
// log is dense and the check cannot fire on it.
func TestRecoverOneRecordPerMutation(t *testing.T) {
	srv := newTestServer(t, durableConfig(t.TempDir()))
	mustStatus(t, srv, "POST", "/v1/sessions",
		api.CreateSessionRequest{Name: "m", Cores: 2, Policy: "edf", Model: json.RawMessage(`"zero"`)}, http.StatusCreated)
	s, err := srv.store.Get("m")
	if err != nil {
		t.Fatal(err)
	}
	mutations := int64(0)
	check := func(after string, committed int64) {
		t.Helper()
		mutations += committed
		var seq int64
		if err := s.call(func() { seq = s.durableSeq() }); err != nil {
			t.Fatal(err)
		}
		if seq != mutations {
			t.Fatalf("after %s: commit sequence %d, want %d", after, seq, mutations)
		}
		seqs := streamSeqs(t, s)
		if int64(len(seqs)) != mutations+1 {
			t.Fatalf("after %s: %d records for create + %d mutations: %v", after, len(seqs), mutations, seqs)
		}
		for i, q := range seqs {
			if q != int64(i) {
				t.Fatalf("after %s: stream is not dense: %v", after, seqs)
			}
		}
	}
	tk := func(id int64, wcetMs int64) api.Task {
		return api.Task{ID: id, WCETNs: wcetMs * 1e6, PeriodNs: 1e8}
	}
	check("create", 0)
	mustStatus(t, srv, "POST", "/v1/sessions/m/admit", api.AdmitRequest{Task: tk(1, 10)}, http.StatusOK)
	check("admit", 1)
	mustStatus(t, srv, "POST", "/v1/sessions/m/split", api.SplitRequest{Split: api.Split{
		Task:      tk(2, 20),
		Parts:     []api.Part{{Core: 0, BudgetNs: 1e7}, {Core: 1, BudgetNs: 1e7}},
		WindowsNs: []int64{5e7, 5e7},
	}}, http.StatusOK)
	check("split", 1)
	mustStatus(t, srv, "POST", "/v1/sessions/m/try", api.AdmitRequest{Task: tk(3, 10)}, http.StatusOK)
	check("try", 0)
	mustStatus(t, srv, "POST", "/v1/sessions/m/admit", api.AdmitRequest{Task: tk(4, 99)}, http.StatusOK)
	check("rejected admit", 0)
	mustStatus(t, srv, "POST", "/v1/sessions/m/try", api.AdmitRequest{Task: tk(5, 10), Hold: true}, http.StatusOK)
	check("held try", 0)
	mustStatus(t, srv, "POST", "/v1/sessions/m/commit", nil, http.StatusOK)
	check("commit of the held try", 1)
	mustStatus(t, srv, "POST", "/v1/sessions/m/try", api.AdmitRequest{Task: tk(6, 10), Hold: true}, http.StatusOK)
	mustStatus(t, srv, "POST", "/v1/sessions/m/rollback", nil, http.StatusOK)
	check("rollback of a held try", 0)
	mustStatus(t, srv, "POST", "/v1/sessions/m/remove", api.RemoveRequest{ID: 1}, http.StatusOK)
	check("remove", 1)
	mustStatus(t, srv, "POST", "/v1/sessions/m/remove", api.RemoveRequest{ID: 2}, http.StatusOK)
	check("remove of the split", 1)
	mustStatus(t, srv, "POST", "/v1/sessions/m/remove", api.RemoveRequest{ID: 77}, http.StatusNotFound)
	check("remove of an unknown task", 0)
	body := mustStatus(t, srv, "POST", "/v1/sessions/m/batch", api.BatchRequest{
		Tasks: []api.Task{tk(10, 10), tk(11, 95), tk(12, 95), tk(13, 10)},
	}, http.StatusOK)
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	var sum api.BatchSummary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Admitted != 3 || sum.Rejected != 1 {
		t.Fatalf("batch summary: %+v", sum)
	}
	check("batch", 3)
	mustStatus(t, srv, "POST", "/v1/sessions/m/batch", api.BatchRequest{
		Tasks: []api.Task{tk(20, 10)}, TryOnly: true,
	}, http.StatusOK)
	check("try-only batch", 0)
}

// handWrittenLog appends records straight to the shard log of a data
// directory no daemon has open, then closes it.
func handWrittenLog(t *testing.T, dataDir string, write func(l *wal.Log)) {
	t.Helper()
	l, _, err := wal.Open(wal.Options{Dir: shardDir(dataDir), Policy: wal.SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	write(l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func mustAppend(t *testing.T, l *wal.Log, stream string, seq int64, payload []byte) {
	t.Helper()
	if _, err := l.Append(stream, seq, payload); err != nil {
		t.Fatal(err)
	}
}

func createPayload(t *testing.T) []byte {
	t.Helper()
	model, err := json.Marshal(overhead.Normalize(overhead.Zero()))
	if err != nil {
		t.Fatal(err)
	}
	return walEncodeCreate(nil, 2, "fp", model)
}

func admitPayload(id int64) []byte {
	return walEncodeAdmit(nil, 0, id, &api.Task{
		ID: id, WCETNs: 1e6, PeriodNs: 1e8, DeadlineNs: 1e8, Priority: int(id),
	})
}

// getStatus answers what GET state of a session returns, and the
// store-level error behind a failure.
func getStatus(t *testing.T, srv *Server, name string) (int, error) {
	t.Helper()
	status, _ := doReq(t, srv, "GET", "/v1/sessions/"+name, nil)
	_, err := srv.store.Get(name)
	return status, err
}

// TestRecoverSeqGapRefused: a generation whose tail skips a sequence
// number (an append failed, later records landed on a state the log
// does not describe) is refused with ErrSeqGap — naming the stream and
// both numbers, counted as a wal error, answered 500 — and the other
// sessions of the same log recover.
func TestRecoverSeqGapRefused(t *testing.T) {
	dir := t.TempDir()
	handWrittenLog(t, dir, func(l *wal.Log) {
		for _, name := range []string{"gap", "ok"} {
			mustAppend(t, l, name+"/1", 0, createPayload(t))
		}
		mustAppend(t, l, "gap/1", 1, admitPayload(1))
		mustAppend(t, l, "ok/1", 1, admitPayload(1))
		mustAppend(t, l, "ok/1", 2, admitPayload(2))
		mustAppend(t, l, "gap/1", 3, admitPayload(3)) // seq 2 never made it
		mustAppend(t, l, "gap/1", 4, admitPayload(4))
	})
	srv := newTestServer(t, durableConfig(dir))
	status, err := getStatus(t, srv, "gap")
	if status != http.StatusInternalServerError || !errors.Is(err, ErrSeqGap) {
		t.Fatalf("gapped stream: HTTP %d, err %v; want 500 and ErrSeqGap", status, err)
	}
	for _, want := range []string{`"gap/1"`, "seq 3", "follows 1"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("gap error %q does not name %s", err, want)
		}
	}
	var state api.State
	if err := json.Unmarshal(sessionState(t, srv, "ok"), &state); err != nil {
		t.Fatal(err)
	}
	if len(state.Tasks) != 2 {
		t.Fatalf("the healthy stream recovered %d tasks, want 2", len(state.Tasks))
	}
	if got := srv.met.walErrors.Value(); got != 1 {
		t.Fatalf("admitd_wal_errors_total = %d, want 1 (the gap)", got)
	}
	// The name stays taken until an operator deletes it.
	mustStatus(t, srv, "POST", "/v1/sessions", api.CreateSessionRequest{Name: "gap", Cores: 1}, http.StatusConflict)
	mustStatus(t, srv, "DELETE", "/v1/sessions/gap", nil, http.StatusOK)
	mustStatus(t, srv, "POST", "/v1/sessions", api.CreateSessionRequest{Name: "gap", Cores: 1}, http.StatusCreated)
}

// TestRecoverBadPayloadPoisonsOneStream: a record that passes its CRC
// but cannot be decoded fails that session's Get and nothing else —
// not the open, not its neighbours in the log.
func TestRecoverBadPayloadPoisonsOneStream(t *testing.T) {
	dir := t.TempDir()
	handWrittenLog(t, dir, func(l *wal.Log) {
		mustAppend(t, l, "bad/1", 0, createPayload(t))
		mustAppend(t, l, "good/1", 0, createPayload(t))
		mustAppend(t, l, "bad/1", 1, admitPayload(1)[:9]) // cut mid-field
		mustAppend(t, l, "good/1", 1, admitPayload(1))
		mustAppend(t, l, "bad/1", 2, admitPayload(2))
	})
	srv := newTestServer(t, durableConfig(dir))
	status, err := getStatus(t, srv, "bad")
	if status != http.StatusInternalServerError || err == nil || !strings.Contains(err.Error(), "truncated wal record payload") {
		t.Fatalf("undecodable stream: HTTP %d, err %v", status, err)
	}
	if errors.Is(err, ErrSeqGap) {
		t.Fatalf("a bad payload reported as a sequence gap: %v", err)
	}
	var state api.State
	if err := json.Unmarshal(sessionState(t, srv, "good"), &state); err != nil {
		t.Fatal(err)
	}
	if len(state.Tasks) != 1 {
		t.Fatalf("the neighbour recovered %d tasks, want 1", len(state.Tasks))
	}
}

// rewriteLog rebuilds the shard log of a data directory no daemon has
// open from its own records, in order, each payload passed through
// edit first (a nil result drops the record).
func rewriteLog(t *testing.T, dataDir string, edit func(r wal.Record) []byte) {
	t.Helper()
	type rec struct {
		stream  string
		seq     int64
		payload []byte
	}
	var recs []rec
	handWrittenLog(t, dataDir, func(l *wal.Log) {
		if err := l.Replay(func(r wal.Record) error {
			if p := edit(r); p != nil {
				recs = append(recs, rec{r.Stream, r.Seq, append([]byte(nil), p...)})
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	})
	if err := os.RemoveAll(shardDir(dataDir)); err != nil {
		t.Fatal(err)
	}
	handWrittenLog(t, dataDir, func(l *wal.Log) {
		for _, r := range recs {
			mustAppend(t, l, r.stream, r.seq, r.payload)
		}
	})
}

// damageCheckpoints cuts the payload of every checkpoint record of a
// stream short, leaving frames that pass their CRC but do not decode.
func damageCheckpoints(t *testing.T, dataDir, stream string) {
	t.Helper()
	damaged := 0
	rewriteLog(t, dataDir, func(r wal.Record) []byte {
		if r.Stream == stream && walKind(r.Payload) == walKindCkpt {
			damaged++
			return r.Payload[:20]
		}
		return r.Payload
	})
	if damaged == 0 {
		t.Fatalf("no checkpoint record of %s to damage", stream)
	}
}

// TestRecoverDamagedCheckpointAfterCompaction: once Checkpoint() has
// compacted the log prefix away, the checkpoint record is the only copy
// of that state. A damaged one must fail its session with an error that
// names the stream and the seq — not 410 "sequence range predates the
// retained commit log", which blames the caller — with or without a log
// tail on top, and must be counted; the other sessions recover.
func TestRecoverDamagedCheckpointAfterCompaction(t *testing.T) {
	for _, tail := range []int{0, 3} {
		t.Run(fmt.Sprintf("tail=%d", tail), func(t *testing.T) {
			dir := t.TempDir()
			srv := newTestServer(t, durableConfig(dir))
			for _, name := range []string{"hurt", "fine"} {
				mustStatus(t, srv, "POST", "/v1/sessions",
					api.CreateSessionRequest{Name: name, Cores: 2, Policy: "fp"}, http.StatusCreated)
				admitAcked(t, srv, name, 1, 4)
			}
			if err := srv.store.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			admitAcked(t, srv, "hurt", 100, tail)
			admitAcked(t, srv, "fine", 100, tail)
			want := sessionState(t, srv, "fine")
			crashServer(srv)
			damageCheckpoints(t, dir, "hurt/1")

			srv2 := newTestServer(t, durableConfig(dir))
			status, err := getStatus(t, srv2, "hurt")
			if status != http.StatusInternalServerError || err == nil {
				t.Fatalf("damaged checkpoint: HTTP %d, err %v; want 500", status, err)
			}
			for _, want := range []string{`"hurt/1"`, "seq 4"} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("damaged checkpoint error %q does not name %s", err, want)
				}
			}
			if errors.Is(err, ErrSeqTruncated) {
				t.Fatalf("damaged checkpoint blamed on the caller: %v", err)
			}
			if got := sessionState(t, srv2, "fine"); !bytes.Equal(got, want) {
				t.Fatalf("the sound session recovered differently:\n pre: %s\npost: %s", want, got)
			}
			if got := srv2.met.walErrors.Value(); got < 1 {
				t.Fatalf("admitd_wal_errors_total = %d after an undecodable checkpoint", got)
			}
			expo := scrapeMetrics(t, srv2)
			if v := sampleValue(t, expo, "admitd_wal_errors_total"); v == "0" {
				t.Fatalf("the scrape does not show the open-time error: %s", v)
			}
		})
	}
}

// TestRecoverDamagedCheckpointBeforeCompaction: while the log still
// holds the stream from its create record, a damaged checkpoint record
// repeats state the log rebuilds anyway: it costs a counted error and
// nothing else — at a restart (the open-time fold) and at a
// request-time replay that reads the checkpoint at its position alike.
func TestRecoverDamagedCheckpointBeforeCompaction(t *testing.T) {
	dir := t.TempDir()
	// MaxSessions 1: creating "other" evicts "ev", which appends its
	// checkpoint record without compacting the log.
	srv := newTestServer(t, Config{DataDir: dir, CheckpointEvery: -1, MaxSessions: 1})
	mustStatus(t, srv, "POST", "/v1/sessions",
		api.CreateSessionRequest{Name: "ev", Cores: 2, Policy: "fp"}, http.StatusCreated)
	admitAcked(t, srv, "ev", 1, 5)
	want := sessionState(t, srv, "ev")
	mustStatus(t, srv, "POST", "/v1/sessions",
		api.CreateSessionRequest{Name: "other", Cores: 2, Policy: "fp"}, http.StatusCreated)
	crashServer(srv)
	damageCheckpoints(t, dir, "ev/1")

	srv2 := newTestServer(t, Config{DataDir: dir, CheckpointEvery: -1})
	if got := srv2.met.walErrors.Value(); got != 1 {
		t.Fatalf("admitd_wal_errors_total = %d after the restart, want 1", got)
	}
	e := srv2.store.plane.lookup("ev")
	ref, _, err := srv2.store.replayToSeq("ev", e, seqEnd-1)
	if err != nil || ref == nil || ref.Seq != 5 || len(ref.Tasks) != 5 {
		t.Fatalf("request-time replay past a damaged checkpoint: %+v, %v", ref, err)
	}
	if got := srv2.met.walErrors.Value(); got != 2 {
		t.Fatalf("the replay did not count the damaged checkpoint: admitd_wal_errors_total = %d", got)
	}
	if got := sessionState(t, srv2, "ev"); !bytes.Equal(got, want) {
		t.Fatalf("restart past a damaged checkpoint diverged:\n pre: %s\npost: %s", want, got)
	}
}

// streamRecords lists the records of one stream in a data directory no
// daemon has open, in log order.
func streamRecords(t *testing.T, dataDir, stream string) []wal.Record {
	t.Helper()
	var out []wal.Record
	handWrittenLog(t, dataDir, func(l *wal.Log) {
		if err := l.ReplayStream(stream, -1, func(r wal.Record) error {
			r.Payload = append([]byte(nil), r.Payload...)
			out = append(out, r)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	})
	return out
}

// TestRecoverTombstoneOutlivesCheckpoint: a checkpoint record of a
// deleted session never lands after its tombstone — eviction appends
// one, a round carries it forward, the delete follows — so compaction,
// which drops the tombstone, drops every checkpoint with it, and the
// name stays gone across restarts.
func TestRecoverTombstoneOutlivesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	srv := newTestServer(t, Config{DataDir: dir, CheckpointEvery: -1, MaxSessions: 1})
	mustStatus(t, srv, "POST", "/v1/sessions",
		api.CreateSessionRequest{Name: "del", Cores: 2, Policy: "fp"}, http.StatusCreated)
	admitAcked(t, srv, "del", 1, 3)
	mustStatus(t, srv, "POST", "/v1/sessions", // evicts "del": its checkpoint record
		api.CreateSessionRequest{Name: "other", Cores: 2, Policy: "fp"}, http.StatusCreated)
	if err := srv.store.Checkpoint(); err != nil { // carries it
		t.Fatal(err)
	}
	if srv.store.plane.carried.Load() == 0 {
		t.Fatal("the round carried no checkpoint of the evicted session")
	}
	mustStatus(t, srv, "DELETE", "/v1/sessions/del", nil, http.StatusOK)
	crashServer(srv)
	recs := streamRecords(t, dir, "del/1")
	if len(recs) == 0 || walKind(recs[len(recs)-1].Payload) != walKindDelete {
		t.Fatalf("the tombstone is not the stream's last record: %d records", len(recs))
	}

	srv2 := newTestServer(t, durableConfig(dir))
	mustStatus(t, srv2, "GET", "/v1/sessions/del", nil, http.StatusNotFound)
	// With the tombstone compacted away the name must stay gone.
	if err := srv2.store.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	crashServer(srv2)
	if recs := streamRecords(t, dir, "del/1"); len(recs) != 0 {
		t.Fatalf("%d records of the deleted stream outlived compaction", len(recs))
	}
	srv3 := newTestServer(t, durableConfig(dir))
	mustStatus(t, srv3, "GET", "/v1/sessions/del", nil, http.StatusNotFound)
}

// TestRecoverSummaryMetrics: what the open-time recovery kept and
// threw away reaches /metrics — records, segments cut or dropped, and
// bytes (bytes only: the dropped-segment count used to be added in).
func TestRecoverSummaryMetrics(t *testing.T) {
	dir := t.TempDir()
	buildCrashImage(t, dir, 2, 3)
	// A torn final record plus a foreign segment file after it.
	ents, err := os.ReadDir(shardDir(dir))
	if err != nil || len(ents) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	last := filepath.Join(shardDir(dir), ents[len(ents)-1].Name())
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-5); err != nil {
		t.Fatal(err)
	}
	junk := bytes.Repeat([]byte{0xAB}, 100)
	if err := os.WriteFile(filepath.Join(shardDir(dir), "wal-7fffffffffffffff.log"), junk, 0o644); err != nil {
		t.Fatal(err)
	}
	frame := fi.Size() - 5 // bytes of the last, torn frame that survive the cut
	srv := newTestServer(t, durableConfig(dir))
	expo := scrapeMetrics(t, srv)
	records := 2 + 2*3 - 1 // two checkpoint records, two tails of three, one torn
	for series, want := range map[string]string{
		"admitd_wal_recovered_records":           fmt.Sprint(records),
		"admitd_wal_recovered_checkpoints":       "2",
		"admitd_wal_recovery_truncated_segments": "2",
		"admitd_wal_checkpoint_records_total":    "0",
		"admitd_wal_checkpoints_carried_total":   "0",
		"admitd_wal_checkpointed_sessions":       "2",
	} {
		if got := sampleValue(t, expo, series); got != want {
			t.Fatalf("%s = %s, want %s", series, got, want)
		}
	}
	// Dropped: the junk file whole, plus what was left of the torn frame.
	dropped := srv.store.plane.droppedBytes
	if dropped <= int64(len(junk)) || dropped >= int64(len(junk))+frame {
		t.Fatalf("dropped bytes %d, want the %d junk bytes plus part of one frame", dropped, len(junk))
	}
	if got := sampleValue(t, expo, "admitd_wal_recovery_dropped_bytes"); got != fmt.Sprint(dropped) {
		t.Fatalf("admitd_wal_recovery_dropped_bytes = %s, want %d", got, dropped)
	}
	if got := sampleValue(t, expo, "admitd_wal_read_bytes_total"); got == "0" {
		t.Fatal("admitd_wal_read_bytes_total is zero after a recovery scan")
	}
	// A round checkpoints both untouched sessions from the state the scan
	// folded (they have tails); the next carries those records unchanged.
	for round, want := range [][2]string{{"2", "0"}, {"4", "2"}} {
		if err := srv.store.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		expo = scrapeMetrics(t, srv)
		got := [2]string{sampleValue(t, expo, "admitd_wal_checkpoint_records_total"), sampleValue(t, expo, "admitd_wal_checkpoints_carried_total")}
		if got != want {
			t.Fatalf("round %d: checkpoint records, carried = %v, want %v", round+1, got, want)
		}
	}
}

// --- recovery differential fuzz ---------------------------------------

// fuzzName is the fuzz's model of one session name.
type fuzzName struct {
	live     bool
	resident []int64
	nextID   int64
	held     *api.Task // a held probe awaiting commit/rollback
	heldCore int
}

// TestRecoverKeyMemoGenerations feeds the open-time fold a name's two
// generations interleaved with another stream: gen 0's create, admits
// and tombstone, gen 1's create, a stray gen 0 record, then gen 1's
// mutations and a checkpoint, another stray, and a gap that poisons the
// other stream.
// With the scan's stream-key memo the registry and the folded states
// come out as parsing every record's key anew gives them, and a
// malformed key still fails the open.
func TestRecoverKeyMemoGenerations(t *testing.T) {
	g0, g1, h := streamKey("g", 0), streamKey("g", 1), streamKey("h x/y", 1)
	remove := func(id int64) []byte { return walEncodeRemove(nil, 0, id) }
	ckpt := &sessionSnapshot{Cores: 2, Policy: "fp", Model: overhead.Normalize(overhead.Zero()), Admitted: 2, Removed: 1,
		Tasks: []api.Task{{ID: 11, WCETNs: 1e6, PeriodNs: 1e8, DeadlineNs: 1e8, Priority: 11}}}
	steps := []struct {
		stream  string
		seq     int64
		payload []byte
	}{
		{g0, 0, createPayload(t)},
		{g0, 1, admitPayload(1)},
		{h, 0, createPayload(t)},
		{g0, 2, admitPayload(2)},
		{g0, 3, walEncodeDelete(nil)},
		{g1, 0, createPayload(t)},
		{g0, 4, admitPayload(3)}, // stray: gen 0 is retired
		{g1, 1, admitPayload(10)},
		{h, 1, admitPayload(1)},
		{g1, 2, admitPayload(11)},
		{g1, 3, remove(10)},
		{g1, 3, walEncodeCheckpoint(nil, ckpt)},
		{h, 3, admitPayload(2)},  // skips seq 2
		{g0, 9, admitPayload(4)}, // stray again, past gen 1's last seq
		{g1, 4, admitPayload(12)},
		{h, 4, admitPayload(3)},
	}
	records := make([]wal.Record, len(steps))
	for i, st := range steps {
		records[i] = wal.Record{LSN: uint64(i + 1), Off: int64(16 + 100*i), Seq: st.seq, Stream: st.stream, Payload: st.payload}
	}
	fold := func(memo bool) *walPlane {
		p := &walPlane{streams: make(map[string]*streamState)}
		keys := streamKeys{}
		for _, r := range records {
			if !memo {
				keys = streamKeys{}
			}
			if err := p.recoverRecord(&keys, &r); err != nil {
				t.Fatalf("record %d (%s seq %d): %v", r.LSN, r.Stream, r.Seq, err)
			}
		}
		return p
	}
	got, want := fold(true), fold(false)
	if len(got.streams) != 2 || len(want.streams) != 2 {
		t.Fatalf("registries hold %d and %d names, want 2", len(got.streams), len(want.streams))
	}
	if got.recoveredCkpts != want.recoveredCkpts || got.recoveredCkpts != 1 {
		t.Fatalf("checkpoints counted: memo %d, per record %d, want 1", got.recoveredCkpts, want.recoveredCkpts)
	}
	state := func(s *sessionSnapshot) string {
		if s == nil {
			return "none"
		}
		return fmt.Sprintf("%s@%d %x", s.Name, s.Seq, walEncodeCheckpoint(nil, s))
	}
	for name, w := range want.streams {
		e := got.streams[name]
		if e == nil {
			t.Fatalf("%q: missing from the memo's registry", name)
		}
		if e.gen != w.gen || e.lastSeq.Load() != w.lastSeq.Load() || e.ckptSeq.Load() != w.ckptSeq.Load() ||
			e.ckpt != w.ckpt || e.deleted != w.deleted || fmt.Sprint(e.poison) != fmt.Sprint(w.poison) {
			t.Errorf("%q: memo gen %d last %d ckpt %d@%+v deleted %v poison %v; per record gen %d last %d ckpt %d@%+v deleted %v poison %v",
				name, e.gen, e.lastSeq.Load(), e.ckptSeq.Load(), e.ckpt, e.deleted, e.poison,
				w.gen, w.lastSeq.Load(), w.ckptSeq.Load(), w.ckpt, w.deleted, w.poison)
		}
		if a, b := state(e.recovered), state(w.recovered); a != b {
			t.Errorf("%q: memo folded %s, per record %s", name, a, b)
		}
	}
	g := got.streams["g"]
	if g.gen != 1 || g.deleted || g.poison != nil || g.lastSeq.Load() != 4 || g.ckptSeq.Load() != 3 || g.ckpt != records[11].Pos() {
		t.Fatalf("g: gen %d deleted %v poison %v last %d ckpt %d@%+v", g.gen, g.deleted, g.poison, g.lastSeq.Load(), g.ckptSeq.Load(), g.ckpt)
	}
	if s := g.recovered; s == nil || s.Seq != 4 || len(s.Tasks) != 2 || s.Tasks[0].ID != 11 || s.Tasks[1].ID != 12 || s.Admitted != 3 {
		t.Fatalf("g folded to %+v", s)
	}
	if e := got.streams["h x/y"]; !errors.Is(e.poison, ErrSeqGap) || e.recovered != nil || e.lastSeq.Load() != 4 {
		t.Fatalf("h: poison %v, state %v, last %d", e.poison, e.recovered, e.lastSeq.Load())
	}

	for _, key := range []string{"no-generation", "g/x", "bad%zz/1"} {
		p := &walPlane{streams: make(map[string]*streamState)}
		if err := p.recoverRecord(new(streamKeys), &wal.Record{Stream: key, Payload: createPayload(t)}); err == nil {
			t.Errorf("stream key %q was accepted", key)
		}
	}
	dir := t.TempDir()
	handWrittenLog(t, dir, func(l *wal.Log) {
		mustAppend(t, l, g1, 0, createPayload(t))
		mustAppend(t, l, "g/x", 1, admitPayload(1))
	})
	if srv, err := New(durableConfig(dir)); err == nil {
		srv.Close()
		t.Fatal("a log with a malformed stream key opened")
	}
}

// TestRecoverDifferentialFuzz drives seeded random histories — create,
// admit, remove, held probes, delete, recreate, Checkpoint(), crash, and
// a crash between a round's carry-forward and its compaction — over
// four names sharing one log, and evictions that park a session in its
// checkpoint record. Sessions left untouched after a restart or an
// eviction, or holding a probe at a checkpoint, have their checkpoints
// carried into the segments later rounds roll. After every crash, and
// at the end, each session's state bytes must equal both a model
// rebuilt from acknowledged writes alone (a second, non-durable daemon
// fed exactly the acked mutations) and a per-stream reference that
// folds the same checkpoint record and ReplayStream records on its own.
func TestRecoverDifferentialFuzz(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 3
	}
	spanning := 0
	for seed := 1; seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { spanning += recoverFuzz(t, int64(seed)) })
	}
	if spanning == 0 {
		t.Fatal("no restart of any history found a log of several segments: the fuzz no longer covers tails that span them")
	}
}

// recoverFuzz runs one history and returns how many of its restarts
// opened a log of two or more segments.
func recoverFuzz(t *testing.T, seed int64) (spanning int) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	open := func() *Server {
		srv, err := New(durableConfig(dir))
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		return srv
	}
	srv := open()
	defer func() { srv.Close() }()
	model := newTestServer(t, Config{})
	names := []string{"a", "b", "c/d", "e"}
	st := map[string]*fuzzName{}
	for _, n := range names {
		st[n] = &fuzzName{nextID: 1}
	}
	path := func(name string) string { return "/v1/sessions/" + strings.ReplaceAll(name, "/", "%2F") }

	// reference rebuilds a session the way a request-time history read
	// does: the checkpoint record read at its position + ReplayStream,
	// nothing the scan folded.
	reference := func(name string) []byte {
		t.Helper()
		e := srv.store.plane.lookup(name)
		if e == nil {
			t.Fatalf("%q: no live stream", name)
		}
		base, _, err := srv.store.replayToSeq(name, e, seqEnd-1)
		if err != nil || base == nil {
			t.Fatalf("%q: reference replay: %v (base %v)", name, err, base)
		}
		s, err := restoreSession(base, &analysis.Collector{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer s.close()
		b, err := s.stateReadBytes()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	check := func(name string) {
		t.Helper()
		f := st[name]
		if !f.live {
			mustStatus(t, srv, "GET", path(name), nil, http.StatusNotFound)
			return
		}
		ref := reference(name)
		got := mustStatus(t, srv, "GET", path(name), nil, http.StatusOK)
		want := mustStatus(t, model, "GET", path(name), nil, http.StatusOK)
		if !bytes.Equal(got, want) {
			t.Fatalf("%q differs from the acked-write model:\nmodel: %s\n  got: %s", name, want, got)
		}
		if !bytes.Equal(got, ref) {
			t.Fatalf("%q differs from the per-stream reference:\n  ref: %s\n  got: %s", name, ref, got)
		}
	}
	crash := func(touch float64) {
		crashServer(srv)
		srv.Close()
		if ents, err := os.ReadDir(shardDir(dir)); err == nil && len(ents) >= 2 {
			spanning++
		}
		srv = open()
		for _, n := range names {
			st[n].held = nil // a held probe dies with the process
			if rng.Float64() < touch {
				check(n)
			}
		}
	}
	commitAdmit := func(name string, tk api.Task, core int) {
		f := st[name]
		f.resident = append(f.resident, tk.ID)
		mustStatus(t, model, "POST", path(name)+"/admit", api.AdmitRequest{Task: tk, Core: &core}, http.StatusOK)
	}

	for op := 0; op < 260; op++ {
		name := names[rng.Intn(len(names))]
		f := st[name]
		k := rng.Intn(100)
		switch {
		case !f.live:
			if k < 40 {
				req := api.CreateSessionRequest{Name: name, Cores: 1 + rng.Intn(3), Policy: []string{"fp", "edf"}[rng.Intn(2)]}
				mustStatus(t, srv, "POST", "/v1/sessions", req, http.StatusCreated)
				mustStatus(t, model, "POST", "/v1/sessions", req, http.StatusCreated)
				f.live, f.resident = true, nil
			}
		case f.held != nil:
			// Everything else answers 409 while a probe is held.
			if k < 50 {
				mustStatus(t, srv, "POST", path(name)+"/commit", nil, http.StatusOK)
				commitAdmit(name, *f.held, f.heldCore)
				f.held = nil
			} else if k < 70 {
				mustStatus(t, srv, "POST", path(name)+"/rollback", nil, http.StatusOK)
				f.held = nil
			}
		case k < 55:
			id := f.nextID
			f.nextID++
			tk := api.Task{ID: id, WCETNs: int64(1+rng.Intn(12)) * 1e6, PeriodNs: 1e8, DeadlineNs: 1e8, Priority: int(id)}
			hold := k < 6
			verb := "/admit"
			if hold {
				verb = "/try"
			}
			var v api.Verdict
			if err := json.Unmarshal(mustStatus(t, srv, "POST", path(name)+verb, api.AdmitRequest{Task: tk, Hold: hold}, http.StatusOK), &v); err != nil {
				t.Fatal(err)
			}
			switch {
			case hold && v.Pending:
				f.held, f.heldCore = &tk, v.Core
			case !hold && v.Admitted:
				commitAdmit(name, tk, v.Core)
			}
		case k < 70:
			if len(f.resident) > 0 {
				i := rng.Intn(len(f.resident))
				req := api.RemoveRequest{ID: f.resident[i]}
				mustStatus(t, srv, "POST", path(name)+"/remove", req, http.StatusOK)
				mustStatus(t, model, "POST", path(name)+"/remove", req, http.StatusOK)
				f.resident = append(f.resident[:i], f.resident[i+1:]...)
			}
		case k < 72:
			// Eviction rolls a held probe back; the next touch restores.
			sh := srv.store.shardFor(name)
			sh.mu.Lock()
			s := sh.m[name]
			sh.mu.Unlock()
			if s != nil {
				srv.store.evict(sh, s)
			}
		case k < 75:
			mustStatus(t, srv, "DELETE", path(name), nil, http.StatusOK)
			mustStatus(t, model, "DELETE", path(name), nil, http.StatusOK)
			f.live = false
		case k < 87:
			if err := srv.store.Checkpoint(); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
		case k < 90:
			// A round that dies between carry-forward and compaction:
			// the log holds each checkpoint twice.
			if err := srv.store.checkpointStreams(srv.store.plane.rotate()); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
			crash(0.5)
		default:
			crash(0.5)
		}
	}
	crash(1)
	if n := srv.met.walErrors.Value(); n != 0 {
		t.Fatalf("a healthy history ended with admitd_wal_errors_total = %d", n)
	}
	t.Logf("restarts on a multi-segment log: %d", spanning)
	return spanning
}

// TestRecoverFoldAllocFree guards the restart's per-record fold: an
// admit (an unnamed task) is decoded into the slot it takes in a
// pre-sized state, and a remove reads its ID and closes the gap, with
// no allocation.
func TestRecoverFoldAllocFree(t *testing.T) {
	base := &sessionSnapshot{Name: "a", Cores: 2, Policy: "fp", Model: overhead.Normalize(overhead.Zero()),
		Tasks: make([]api.Task, 0, 8)}
	r := wal.Record{Stream: streamKey("a", 1)}
	fold := func(payload []byte) {
		r.Seq, r.Payload = base.Seq+1, payload
		if err := foldRecord("a", &base, r); err != nil {
			t.Fatal(err)
		}
	}
	admits, removes := make([][]byte, 64), make([][]byte, 64)
	for i := range admits {
		admits[i], removes[i] = admitPayload(int64(i+1)), walEncodeRemove(nil, 3, int64(i+1))
	}
	for _, p := range admits[:3] {
		fold(p)
	}
	i := 3
	admitRemove := func() { // admit the next task, remove the oldest
		fold(admits[i%64])
		fold(removes[(i-3)%64])
		i++
	}
	if n := testing.AllocsPerRun(200, admitRemove); n != 0 {
		t.Fatalf("folding an admit and a remove: %.1f allocs, want 0", n)
	}
	if len(base.Tasks) != 3 || base.Tasks[0].ID != int64((i-3)%64+1) || base.Admitted != int64(i) || base.Removed != int64(i-3) {
		t.Fatalf("folded to %d tasks (first %d), %d admitted, %d removed", len(base.Tasks), base.Tasks[0].ID, base.Admitted, base.Removed)
	}
}

// TestWalDecodeNamesFirstOverRead: a record cut short anywhere reports
// the byte at which the field it cuts starts — the first over-read,
// not a later one — and a record with bytes to spare says how many.
func TestWalDecodeNamesFirstOverRead(t *testing.T) {
	tk := api.Task{ID: 3, Name: "abc", WCETNs: 1e6, PeriodNs: 1e7, DeadlineNs: 1e7, Priority: 2, WSS: 64}
	full := walEncodeAdmit(nil, 1, 2, &tk)
	// Where each field ends: kind, core, tasks after, the task's six
	// integers, its name's length and its name.
	ends := []int{1, 5, 9, 17, 25, 33, 41, 49, 57, 59, len(full)}
	for l := 1; l < len(full); l++ {
		start := 0
		for _, e := range ends {
			if e > l {
				break
			}
			start = e
		}
		want := fmt.Sprintf("admitd: truncated wal record payload at byte %d", start)
		if err := walDecode(full[:l], &walRec{}); err == nil || err.Error() != want {
			t.Fatalf("cut to %d bytes: %v, want %q", l, err, want)
		}
	}
	want := "admitd: wal record payload has 2 trailing bytes"
	if err := walDecode(append(full, 0, 0), &walRec{}); err == nil || err.Error() != want {
		t.Fatalf("two bytes to spare: %v, want %q", err, want)
	}
}

// FuzzFoldRecord: any payload folds onto a state or fails without a
// panic, and a failure leaves the state byte for byte as it was — a
// task or split partly decoded into its slot is taken back.
func FuzzFoldRecord(f *testing.F) {
	tk := api.Task{ID: 21, Name: "n", WCETNs: 1e6, PeriodNs: 1e7, DeadlineNs: 1e7, Priority: 3}
	sp := api.Split{Task: tk, Parts: []api.Part{{Core: 0, BudgetNs: 5e5}, {Core: 1, BudgetNs: 5e5}}, WindowsNs: []int64{5e6, 5e6}}
	admit, split := walEncodeAdmit(nil, 1, 3, &tk), walEncodeSplit(nil, 3, &sp)
	for _, p := range [][]byte{
		admit, admit[:len(admit)-1], append(admit, 0),
		split, split[:len(split)-5],
		walEncodeRemove(nil, 2, 9), walEncodeRemove(nil, 2, 99),
		walEncodeCreate(nil, 2, "edf", []byte(`{}`)), walEncodeCreate(nil, 2, "fp", []byte(`{`)),
		walEncodeDelete(nil), walEncodeCheckpoint(nil, goldenSnapshot()), {}, {99},
	} {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		base := goldenSnapshot()
		base.Name, base.Seq = "f", 5
		// Spare capacity: a slot is taken in place, not in a copy.
		base.Tasks = append(make([]api.Task, 0, 8), base.Tasks...)
		base.Splits = append(make([]api.Split, 0, 4), base.Splits...)
		orig, enc := base, walEncodeCheckpoint(nil, base)
		tasks, splits := slices.Clone(base.Tasks[:cap(base.Tasks)]), slices.Clone(base.Splits[:cap(base.Splits)])
		seq := base.Seq + 1
		if walKind(payload) == walKindCkpt {
			seq = base.Seq
		}
		if err := foldRecord("f", &base, wal.Record{Seq: seq, Stream: "f/1", Payload: payload}); err == nil {
			return
		}
		if base != orig || base.Name != "f" || base.Seq != 5 {
			t.Fatalf("a failed fold replaced or moved the state: %p %q@%d", base, base.Name, base.Seq)
		}
		if got := walEncodeCheckpoint(nil, base); !bytes.Equal(got, enc) {
			t.Fatalf("a failed fold changed the state:\n  was %x\n  now %x", enc, got)
		}
		if !reflect.DeepEqual(base.Tasks[:cap(base.Tasks)], tasks) || !reflect.DeepEqual(base.Splits[:cap(base.Splits)], splits) {
			t.Fatal("a failed fold left a slot filled")
		}
	})
}

// copyTree copies a data directory (regular files only).
func copyTree(t testing.TB, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// BenchmarkRecover16 is the restart the recover_durable workload
// times, small enough for `go test -bench`: one crash image of 16
// sessions sharing a log, reopened and every session touched. It
// reports the cost and the allocations per commit-log record, and how
// many times the restart read the log (passes/op; 1 = the open-time
// scan alone). Its layer rows split the restart: scan_ns/record is
// wal.Open with no callback on a second copy of the image (timed on
// its own, outside ns/op), open_ns/record is New (the scan that feeds
// the registry and the fold), and touch_ns/session is a session's first
// Get and state read.
func BenchmarkRecover16(b *testing.B) {
	image := b.TempDir()
	names, _ := buildCrashImage(b, image, 16, 600)
	onDisk := segmentBytes(b, image)
	var records uint64
	var passes float64
	var mallocs uint64
	var scan, open, touch time.Duration
	var ms runtime.MemStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		root := b.TempDir()
		dir, scanDir := filepath.Join(root, "d"), filepath.Join(root, "s")
		copyTree(b, image, dir)
		copyTree(b, image, scanDir)
		t0 := time.Now()
		l, _, err := wal.Open(wal.Options{Dir: shardDir(scanDir), Policy: wal.SyncOff})
		scan += time.Since(t0)
		if err != nil {
			b.Fatal(err)
		}
		l.Close()
		runtime.ReadMemStats(&ms)
		mallocs -= ms.Mallocs
		b.StartTimer()
		t1 := time.Now()
		srv, err := New(durableConfig(dir))
		if err != nil {
			b.Fatal(err)
		}
		t2 := time.Now()
		for _, name := range names {
			s, err := srv.store.Get(name)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.stateReadBytes(); err != nil {
				b.Fatal(err)
			}
		}
		t3 := time.Now()
		b.StopTimer()
		open += t2.Sub(t1)
		touch += t3.Sub(t2)
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs
		records = srv.store.plane.recoveredRecords
		passes = float64(srv.store.plane.stats().ReadBytes) / float64(onDisk)
		crashServer(srv)
		srv.Close()
		if err := os.RemoveAll(root); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	perRecord := float64(b.N) * float64(records)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perRecord, "ns/record")
	b.ReportMetric(float64(mallocs)/perRecord, "allocs/record")
	b.ReportMetric(passes, "passes/op")
	b.ReportMetric(float64(scan.Nanoseconds())/perRecord, "scan_ns/record")
	b.ReportMetric(float64(open.Nanoseconds())/perRecord, "open_ns/record")
	b.ReportMetric(float64(touch.Nanoseconds())/(float64(b.N)*float64(len(names))), "touch_ns/session")
}
