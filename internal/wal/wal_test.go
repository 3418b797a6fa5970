package wal

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// openT opens a log in dir, failing the test on I/O errors.
func openT(t *testing.T, dir string, opts Options) (*Log, *Recovery) {
	t.Helper()
	opts.Dir = dir
	l, rec, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, rec
}

// collect replays the whole log into a slice (payloads copied).
func collect(t *testing.T, l *Log) []Record {
	t.Helper()
	var out []Record
	if err := l.Replay(func(r Record) error {
		r.Payload = append([]byte(nil), r.Payload...)
		out = append(out, r)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return out
}

func appendN(t *testing.T, l *Log, stream string, from, to int64) {
	t.Helper()
	for seq := from; seq <= to; seq++ {
		if _, err := l.Append(stream, seq, []byte(fmt.Sprintf("payload-%s-%d", stream, seq))); err != nil {
			t.Fatalf("Append(%s, %d): %v", stream, seq, err)
		}
	}
	if err := l.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, rec := openT(t, dir, Options{Policy: SyncOff})
	if rec.Truncated || rec.Records != 0 {
		t.Fatalf("fresh log recovery: %+v", rec)
	}
	appendN(t, l, "a", 1, 50)
	appendN(t, l, "b", 1, 30)
	got := collect(t, l)
	if len(got) != 80 {
		t.Fatalf("replayed %d records, want 80", len(got))
	}
	for i, r := range got {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d: lsn %d", i, r.LSN)
		}
		want := fmt.Sprintf("payload-%s-%d", r.Stream, r.Seq)
		if string(r.Payload) != want {
			t.Fatalf("record %d: payload %q, want %q", i, r.Payload, want)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen: everything survives a clean close, appends continue.
	l2, rec2 := openT(t, dir, Options{Policy: SyncOff})
	defer l2.Close()
	if rec2.Truncated {
		t.Fatalf("clean reopen truncated: %+v", rec2)
	}
	if rec2.Records != 80 || rec2.NextLSN != 81 {
		t.Fatalf("reopen recovery: %+v", rec2)
	}
	appendN(t, l2, "a", 51, 60)
	if got := collect(t, l2); len(got) != 90 || got[89].LSN != 90 {
		t.Fatalf("after reopen+append: %d records, last lsn %d", len(got), got[len(got)-1].LSN)
	}
}

func TestReplayStreamFilters(t *testing.T) {
	l, _ := openT(t, t.TempDir(), Options{Policy: SyncOff})
	defer l.Close()
	appendN(t, l, "a", 1, 20)
	appendN(t, l, "b", 1, 20)
	appendN(t, l, "a", 21, 40)
	var seqs []int64
	if err := l.ReplayStream("a", 15, func(r Record) error {
		if r.Stream != "a" {
			t.Fatalf("stream %q leaked through", r.Stream)
		}
		seqs = append(seqs, r.Seq)
		return nil
	}); err != nil {
		t.Fatalf("ReplayStream: %v", err)
	}
	if len(seqs) != 25 || seqs[0] != 16 || seqs[24] != 40 {
		t.Fatalf("filtered seqs: %v", seqs)
	}
}

// TestRecordStreamIndex: the recovery scan numbers the streams it
// meets from 0 in meeting order, one index per stream across segments;
// Replay's records carry 0.
func TestRecordStreamIndex(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Policy: SyncOff, SegmentBytes: 1 << 10})
	for i := int64(1); i <= 30; i++ {
		for _, s := range []string{"c", "a", "b"} {
			if _, err := l.Append(s, i, []byte("payload")); err != nil {
				t.Fatal(err)
			}
		}
	}
	l.Close()
	want := map[string]int{"c": 0, "a": 1, "b": 2}
	check := func(how string, r Record) error {
		if i, ok := want[r.Stream]; !ok || i != r.StreamIndex {
			t.Fatalf("%s: record %d of %q carries index %d, want %d", how, r.LSN, r.Stream, r.StreamIndex, i)
		}
		return nil
	}
	l2, rec := openT(t, dir, Options{Policy: SyncOff, OnRecover: func(r *Record) error { return check("scan", *r) }})
	defer l2.Close()
	if rec.Segments < 2 || rec.Records != 90 {
		t.Fatalf("recovery %+v, want 90 records over several segments", rec)
	}
	if err := l2.Replay(func(r Record) error {
		if r.StreamIndex != 0 {
			t.Fatalf("Replay record %d carries index %d", r.LSN, r.StreamIndex)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: force many rotations.
	l, _ := openT(t, dir, Options{Policy: SyncOff, SegmentBytes: 1 << 10})
	appendN(t, l, "a", 1, 200)
	st := l.Stats()
	if st.Segments < 3 {
		t.Fatalf("expected several segments, got %d", st.Segments)
	}
	// Nothing covered: nothing removed.
	if n, err := l.Compact(func(string, int64, uint64) bool { return false }); err != nil || n != 0 {
		t.Fatalf("Compact(none) = %d, %v", n, err)
	}
	// Cover seqs <= 150: a strict prefix of segments goes.
	n, err := l.Compact(func(_ string, maxSeq int64, _ uint64) bool { return maxSeq <= 150 })
	if err != nil || n == 0 {
		t.Fatalf("Compact(<=150) = %d, %v", n, err)
	}
	got := collect(t, l)
	if len(got) == 0 || got[len(got)-1].Seq != 200 {
		t.Fatalf("tail lost after compaction: %d records", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq != got[i-1].Seq+1 {
			t.Fatalf("gap after compaction: %d then %d", got[i-1].Seq, got[i].Seq)
		}
	}
	// Retained records must include everything > 150.
	if got[0].Seq > 151 {
		t.Fatalf("compaction dropped uncovered seq %d..", got[0].Seq)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Survivors stay contiguous across reopen.
	l2, rec := openT(t, dir, Options{Policy: SyncOff, SegmentBytes: 1 << 10})
	defer l2.Close()
	if rec.Truncated {
		t.Fatalf("reopen after compaction truncated: %+v", rec)
	}
	if int(rec.Records) != len(got) {
		t.Fatalf("reopen found %d records, want %d", rec.Records, len(got))
	}
}

// --- corruption torture suite ----------------------------------------

// buildLog writes records and closes the log, returning the segment
// file paths in LSN order.
func buildLog(t *testing.T, dir string, n int64, segBytes int64) []string {
	t.Helper()
	l, _ := openT(t, dir, Options{Policy: SyncOff, SegmentBytes: segBytes})
	appendN(t, l, "s", 1, n)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, e := range ents {
		if _, ok := segNameLSN(e.Name()); ok {
			paths = append(paths, filepath.Join(dir, e.Name()))
		}
	}
	return paths
}

// reopenExpectTrunc reopens a damaged log and asserts recovery
// truncated with the expected surviving record count, and that the
// log still appends and replays cleanly afterward.
func reopenExpectTrunc(t *testing.T, dir string, wantRecords uint64, wantReason string) *Recovery {
	t.Helper()
	l, rec := openT(t, dir, Options{Policy: SyncOff})
	if !rec.Truncated {
		t.Fatalf("recovery did not truncate: %+v", rec)
	}
	if rec.Records != wantRecords {
		t.Fatalf("recovered %d records, want %d (%+v)", rec.Records, wantRecords, rec)
	}
	if wantReason != "" && rec.Reason != wantReason {
		t.Fatalf("reason %q, want %q", rec.Reason, wantReason)
	}
	if rec.File == "" {
		t.Fatalf("truncation point not reported: %+v", rec)
	}
	// The surviving prefix is intact and the log is appendable.
	got := collect(t, l)
	if uint64(len(got)) != wantRecords {
		t.Fatalf("replay after recovery: %d records, want %d", len(got), wantRecords)
	}
	for i, r := range got {
		if r.LSN != uint64(i+1) || r.Seq != int64(i+1) {
			t.Fatalf("survivor %d: lsn %d seq %d", i, r.LSN, r.Seq)
		}
	}
	if _, err := l.Append("s", int64(wantRecords+1), []byte("after")); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	if err := l.Flush(); err != nil {
		t.Fatalf("flush after recovery: %v", err)
	}
	if got := collect(t, l); uint64(len(got)) != wantRecords+1 {
		t.Fatalf("append after recovery lost: %d records", len(got))
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return rec
}

func TestTortureTruncatedTailRecord(t *testing.T) {
	dir := t.TempDir()
	paths := buildLog(t, dir, 10, 1<<20)
	last := paths[len(paths)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	// Chop mid-way through the final record: a torn append.
	if err := os.Truncate(last, fi.Size()-7); err != nil {
		t.Fatal(err)
	}
	rec := reopenExpectTrunc(t, dir, 9, "truncated frame body")
	if rec.Offset == 0 {
		t.Fatalf("no truncation offset: %+v", rec)
	}
}

func TestTortureFlippedCRCByte(t *testing.T) {
	dir := t.TempDir()
	paths := buildLog(t, dir, 10, 1<<20)
	last := paths[len(paths)-1]
	data, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte in the 6th record: CRC catches it, the
	// 5 records before survive, the 5 at-and-after drop.
	off := headerSize
	for i := 0; i < 5; i++ {
		n, bad := parseFrame(new(frame), data[off:])
		if bad != "" || n == 0 {
			t.Fatalf("pre-damage parse at %d: %q", off, bad)
		}
		off += n
	}
	data[off+30] ^= 0x40
	if err := os.WriteFile(last, data, 0o644); err != nil {
		t.Fatal(err)
	}
	reopenExpectTrunc(t, dir, 5, "crc mismatch")
}

func TestTortureZeroFilledPage(t *testing.T) {
	dir := t.TempDir()
	paths := buildLog(t, dir, 10, 1<<20)
	last := paths[len(paths)-1]
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A preallocated-but-never-written page at the tail: all zeros.
	if _, err := f.Write(make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	rec := reopenExpectTrunc(t, dir, 10, "")
	// A zero length field is rejected as a bad frame length.
	if rec.Reason != "bad frame length 0" {
		t.Fatalf("reason %q", rec.Reason)
	}
}

func TestTortureDuplicateSegment(t *testing.T) {
	dir := t.TempDir()
	paths := buildLog(t, dir, 60, 512) // several sealed segments
	if len(paths) < 3 {
		t.Fatalf("want >=3 segments, got %d", len(paths))
	}
	// Copy the first segment under a name sorting after the last: a
	// botched restore/copy. Its header LSN contradicts the name, so
	// recovery drops it (and everything after it — nothing is).
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	dup := filepath.Join(dir, segName(1<<40))
	if err := os.WriteFile(dup, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l, rec := openT(t, dir, Options{Policy: SyncOff})
	if !rec.Truncated || rec.Reason != "segment header/name mismatch" {
		t.Fatalf("recovery: %+v", rec)
	}
	if rec.Records != 60 || rec.DroppedSegments != 1 {
		t.Fatalf("recovery: %+v", rec)
	}
	if got := collect(t, l); len(got) != 60 {
		t.Fatalf("replay: %d records, want 60", len(got))
	}
	if _, err := os.Stat(dup); !os.IsNotExist(err) {
		t.Fatalf("duplicate segment not removed")
	}
	l.Close()

	// Variant: a byte-identical duplicate of an interior segment file
	// (same header, colliding LSNs) injected between real ones.
	dir2 := t.TempDir()
	paths2 := buildLog(t, dir2, 60, 512)
	data2, err := os.ReadFile(paths2[0])
	if err != nil {
		t.Fatal(err)
	}
	// Give it a self-consistent header so only the cross-segment LSN
	// continuity check can catch it.
	first, _ := segNameLSN(filepath.Base(paths2[len(paths2)-1]))
	dup2 := filepath.Join(dir2, segName(first+1<<20))
	hdr := append([]byte(nil), data2...)
	copy(hdr[:8], segMagic)
	for i := 0; i < 8; i++ {
		hdr[8+i] = byte((first + 1<<20) >> (8 * i))
	}
	if err := os.WriteFile(dup2, hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, rec2 := openT(t, dir2, Options{Policy: SyncOff})
	defer l2.Close()
	if !rec2.Truncated {
		t.Fatalf("interior duplicate not detected: %+v", rec2)
	}
	if rec2.Records != 60 {
		t.Fatalf("recovered %d, want 60: %+v", rec2.Records, rec2)
	}
}

// TestTortureMissingSegment: a lost middle segment leaves a later one
// whose header does not continue the log. It is refused on that header
// alone: none of its (individually sound) frames reaches OnRecover.
func TestTortureMissingSegment(t *testing.T) {
	dir := t.TempDir()
	paths := buildLog(t, dir, 60, 512)
	if len(paths) < 3 {
		t.Fatalf("want >=3 segments, got %d", len(paths))
	}
	second, _ := segNameLSN(filepath.Base(paths[1]))
	if err := os.Remove(paths[1]); err != nil {
		t.Fatal(err)
	}
	delivered := 0
	l, rec := openT(t, dir, Options{Policy: SyncOff, OnRecover: func(*Record) error {
		delivered++
		return nil
	}})
	defer l.Close()
	want := int(second - 1) // the first segment's records
	if !rec.Truncated || rec.Reason != "segment lsn discontinuity" || int(rec.Records) != want {
		t.Fatalf("recovery: %+v, want %d records", rec, want)
	}
	if rec.DroppedSegments != len(paths)-2 {
		t.Fatalf("dropped %d segments, want %d", rec.DroppedSegments, len(paths)-2)
	}
	if delivered != want || len(collect(t, l)) != want {
		t.Fatalf("OnRecover saw %d records, the log keeps %d", delivered, want)
	}
}

// TestTortureStaleFrame: a frame with a sound checksum but the wrong
// LSN (an old block resurfacing past the tail) is an anomaly like any
// other: the log is cut in front of it and OnRecover never sees it.
func TestTortureStaleFrame(t *testing.T) {
	dir := t.TempDir()
	paths := buildLog(t, dir, 10, 1<<20)
	last := paths[len(paths)-1]
	data, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	n, bad := parseFrame(new(frame), data[headerSize:])
	if bad != "" || n == 0 {
		t.Fatalf("first frame: %q", bad)
	}
	data = append(data, data[headerSize:headerSize+n]...)
	if err := os.WriteFile(last, data, 0o644); err != nil {
		t.Fatal(err)
	}
	delivered := 0
	l, rec := openT(t, dir, Options{Policy: SyncOff, OnRecover: func(*Record) error {
		delivered++
		return nil
	}})
	defer l.Close()
	if !rec.Truncated || rec.Reason != "lsn discontinuity (1 after 10)" || rec.Records != 10 {
		t.Fatalf("recovery: %+v", rec)
	}
	if delivered != 10 || len(collect(t, l)) != 10 {
		t.Fatalf("OnRecover saw %d records, the log keeps 10", delivered)
	}
}

// TestTortureLargeFrame: a frame larger than the scan window (a big
// checkpoint) is read whole — by the open scan, by Replay and by
// ReadAt — and when it is torn or damaged it is the truncation point
// like any other frame.
func TestTortureLargeFrame(t *testing.T) {
	big := bytes.Repeat([]byte("checkpoint"), 3*windowBytes/10)
	for _, damage := range []string{"", "truncated frame body", "crc mismatch"} {
		t.Run(fmt.Sprintf("damage=%q", damage), func(t *testing.T) {
			dir := t.TempDir()
			l, _ := openT(t, dir, Options{Policy: SyncOff})
			appendN(t, l, "s", 1, 3)
			pos, err := l.Append("s", 4, big)
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, segName(1))
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			switch damage {
			case "truncated frame body":
				data = data[:len(data)-100]
			case "crc mismatch":
				data[len(data)-5000] ^= 1
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			want := 4
			if damage != "" {
				want = 3
			}
			var delivered int
			l2, rec := openT(t, dir, Options{Policy: SyncOff, OnRecover: func(r *Record) error {
				delivered++
				if r.Seq == 4 && !bytes.Equal(r.Payload, big) {
					t.Fatal("the large frame was misread")
				}
				return nil
			}})
			defer l2.Close()
			if delivered != want || int(rec.Records) != want || rec.Reason != damage {
				t.Fatalf("recovered %d (delivered %d), want %d; reason %q, want %q", rec.Records, delivered, want, rec.Reason, damage)
			}
			if got := collect(t, l2); len(got) != want {
				t.Fatalf("replay: %d records, want %d", len(got), want)
			}
			if r, err := l2.ReadAt(pos); (err == nil) != (damage == "") || err == nil && !bytes.Equal(r.Payload, big) {
				t.Fatalf("ReadAt of the large frame: %v", err)
			}
		})
	}
}

// TestAppendRefusesOversizedFrame: a record past the frame bound every
// reader enforces is refused, takes no LSN and writes nothing, so the
// records appended after it survive a reopen.
func TestAppendRefusesOversizedFrame(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Policy: SyncOff})
	appendN(t, l, "s", 1, 2)
	if _, err := l.Append("s", 3, make([]byte, maxFrame-frameFixed)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("Append past the frame bound: %v, want ErrFrameTooLarge", err)
	}
	appendN(t, l, "t", 1, 2)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, rec := openT(t, dir, Options{Policy: SyncOff})
	defer l2.Close()
	if rec.Truncated || rec.Records != 4 || rec.NextLSN != 5 {
		t.Fatalf("reopen after a refused append: %+v, want 4 records and no truncation", rec)
	}
}

// TestTortureCarriedCheckpoint: a checkpoint record carried forward (read
// at its position, appended again after a rotation) and a crash before
// the compaction that would follow, tearing the carried copy. The log
// reopens to everything but the torn copy, and the original is still
// where its position says.
func TestTortureCarriedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Policy: SyncOff})
	appendN(t, l, "s", 1, 10)
	orig, err := l.Append("s", 10, []byte("checkpoint of s at 10"))
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, "o", 1, 5)
	fresh, err := l.Rotate()
	if err != nil || fresh <= orig.LSN {
		t.Fatalf("Rotate = %d, %v; want past lsn %d", fresh, err, orig.LSN)
	}
	r, err := l.ReadAt(orig)
	if err != nil || r.Seq != 10 || r.Stream != "s" {
		t.Fatalf("ReadAt(%+v) = %+v, %v", orig, r, err)
	}
	carried, err := l.Append(r.Stream, r.Seq, r.Payload)
	if err != nil || carried.LSN != fresh {
		t.Fatalf("carried to %+v, %v; want lsn %d", carried, err, fresh)
	}
	if err := l.Close(); err != nil { // the crash: no Compact
		t.Fatal(err)
	}
	last := filepath.Join(dir, segName(fresh))
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	l2, rec := openT(t, dir, Options{Policy: SyncOff})
	defer l2.Close()
	if !rec.Truncated || rec.Records != 16 || rec.Reason != "truncated frame body" {
		t.Fatalf("recovery: %+v", rec)
	}
	if r2, err := l2.ReadAt(orig); err != nil || !bytes.Equal(r2.Payload, r.Payload) {
		t.Fatalf("the original checkpoint after the crash: %+v, %v", r2, err)
	}
	if _, err := l2.ReadAt(carried); err == nil {
		t.Fatal("ReadAt returned the torn copy")
	}
}

// TestReadAt: a position read back — from Append, from a Record, while
// still buffered — returns the frame; a compacted one ErrNotRetained;
// and Compact is handed each segment's last LSN, so a caller can keep
// the segment holding a position it still needs.
func TestReadAt(t *testing.T) {
	l, _ := openT(t, t.TempDir(), Options{Policy: SyncOff, SegmentBytes: 512})
	defer l.Close()
	var pos []Pos
	for seq := int64(1); seq <= 40; seq++ {
		p, err := l.Append("a", seq, []byte(fmt.Sprintf("payload-a-%d", seq)))
		if err != nil {
			t.Fatal(err)
		}
		pos = append(pos, p)
	}
	for i, p := range pos {
		r, err := l.ReadAt(p)
		if err != nil || r.Seq != int64(i+1) || r.Pos() != p || string(r.Payload) != fmt.Sprintf("payload-a-%d", i+1) {
			t.Fatalf("ReadAt(%+v) = %+v, %v", p, r, err)
		}
	}
	for _, r := range collect(t, l) {
		if r.Pos() != pos[r.Seq-1] {
			t.Fatalf("replayed seq %d at %+v, appended at %+v", r.Seq, r.Pos(), pos[r.Seq-1])
		}
	}
	pin := pos[20]
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	n, err := l.Compact(func(_ string, _ int64, last uint64) bool { return last < pin.LSN })
	if err != nil || n == 0 {
		t.Fatalf("Compact = %d, %v", n, err)
	}
	if _, err := l.ReadAt(pos[0]); !errors.Is(err, ErrNotRetained) {
		t.Fatalf("ReadAt of a compacted frame: %v", err)
	}
	if r, err := l.ReadAt(pin); err != nil || r.Seq != 21 {
		t.Fatalf("the pinned frame: %+v, %v", r, err)
	}
}

// --- map-model differential fuzz --------------------------------------

// modelRec is the pure-Go model of one retained record.
type modelRec struct {
	stream string
	seq    int64
	body   string
}

// TestFuzzMapModelDifferential drives random append/rotate/compact/
// reopen schedules against an in-memory model of what the log must
// retain, checking full-replay equivalence after every reopen and at
// the end. Compaction may legally drop any checkpoint-covered prefix,
// so the model tracks the covered watermark per stream and accepts
// either retention or removal for covered records — but never a
// dropped uncovered record, and never reordering.
func TestFuzzMapModelDifferential(t *testing.T) {
	for round := 0; round < 8; round++ {
		round := round
		t.Run(fmt.Sprintf("round=%d", round), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(0xda7a + round)))
			dir := t.TempDir()
			opts := Options{Policy: SyncOff, SegmentBytes: 256 + int64(rng.Intn(2048))}
			l, _ := openT(t, dir, opts)

			streams := []string{"s0", "s1", "s2"}
			next := map[string]int64{}
			ckpt := map[string]int64{} // covered watermark per stream
			var model []modelRec

			check := func() {
				t.Helper()
				got := collect(t, l)
				// Drop the model's covered prefix lazily: compaction may
				// or may not have removed covered records (segment
				// granularity), so align the model to what the log kept.
				gi := 0
				for _, m := range model {
					if gi < len(got) && got[gi].Stream == m.stream && got[gi].Seq == m.seq {
						if string(got[gi].Payload) != m.body {
							t.Fatalf("payload drift at %s/%d", m.stream, m.seq)
						}
						gi++
						continue
					}
					// The log dropped it: legal only when covered.
					if m.seq > ckpt[m.stream] {
						t.Fatalf("uncovered record %s/%d lost (covered to %d)", m.stream, m.seq, ckpt[m.stream])
					}
					if gi < len(got) && got[gi].LSN <= 0 {
						t.Fatalf("bad lsn")
					}
				}
				if gi != len(got) {
					t.Fatalf("log has %d extra records", len(got)-gi)
				}
			}

			for op := 0; op < 400; op++ {
				switch k := rng.Intn(100); {
				case k < 70: // append
					s := streams[rng.Intn(len(streams))]
					next[s]++
					body := fmt.Sprintf("%s#%d#%d", s, next[s], rng.Int63())
					if _, err := l.Append(s, next[s], []byte(body)); err != nil {
						t.Fatalf("append: %v", err)
					}
					model = append(model, modelRec{s, next[s], body})
				case k < 78: // flush
					if err := l.Flush(); err != nil {
						t.Fatalf("flush: %v", err)
					}
				case k < 85: // rotate
					if _, err := l.Rotate(); err != nil {
						t.Fatalf("rotate: %v", err)
					}
				case k < 93: // checkpoint + compact
					for _, s := range streams {
						if rng.Intn(2) == 0 {
							ckpt[s] = next[s]
						}
					}
					if _, err := l.Compact(func(stream string, maxSeq int64, _ uint64) bool {
						return maxSeq <= ckpt[stream]
					}); err != nil {
						t.Fatalf("compact: %v", err)
					}
					// The model prunes records all of whose segment
					// peers are covered only via check()'s alignment;
					// here just drop the provably-gone prefix: nothing
					// (segment boundaries are the log's business).
				default: // reopen
					if err := l.Close(); err != nil {
						t.Fatalf("close: %v", err)
					}
					var rec *Recovery
					l, rec = openT(t, dir, opts)
					if rec.Truncated {
						t.Fatalf("clean reopen truncated: %+v", rec)
					}
					check()
				}
			}
			check()
			l.Close()
		})
	}
}

func TestSyncPolicyParse(t *testing.T) {
	for in, want := range map[string]SyncPolicy{
		"": SyncGroup, "group": SyncGroup, "always": SyncAlways, "off": SyncOff,
	} {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", in, got, err)
		}
		if in != "" && got.String() != in {
			t.Fatalf("round trip %q -> %q", in, got.String())
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatalf("bad policy accepted")
	}
}

func TestGroupCommitFsyncCoalesces(t *testing.T) {
	l, _ := openT(t, t.TempDir(), Options{Policy: SyncGroup})
	defer l.Close()
	for seq := int64(1); seq <= 64; seq++ {
		if _, err := l.Append("s", seq, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil { // nothing new: must coalesce
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Fsyncs != 1 {
		t.Fatalf("group commit fsynced %d times for 64 appends + 2 syncs, want 1", st.Fsyncs)
	}
}

// TestGroupSyncConcurrentCommits hammers one log's Sync from many
// goroutines: every sync must succeed, every synced record must
// survive a reopen, and the batching must never fsync more often than
// callers ask.
func TestGroupSyncConcurrentCommits(t *testing.T) {
	const (
		workers = 8
		perW    = 25
	)
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Policy: SyncGroup})
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			stream := fmt.Sprintf("w%d", w)
			for i := 0; i < perW; i++ {
				if _, err := l.Append(stream, int64(i), []byte("payload")); err != nil {
					errs <- err
					return
				}
				if err := l.Sync(); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("group commit: %v", err)
	}
	if fsyncs := l.Stats().Fsyncs; fsyncs > workers*perW {
		t.Fatalf("%d fsyncs for %d syncs: the batching amplified fsyncs", fsyncs, workers*perW)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Every synced record is on disk.
	l, rec := openT(t, dir, Options{})
	defer l.Close()
	if rec.Truncated {
		t.Fatalf("log truncated on reopen: %+v", rec)
	}
	if rec.Records != workers*perW {
		t.Fatalf("%d records survived, want %d", rec.Records, workers*perW)
	}
}

// TestGroupSyncSingleCommitter: alone, a caller pays one fsync per
// Sync with pending bytes — no batching overhead, no extra fsyncs.
func TestGroupSyncSingleCommitter(t *testing.T) {
	l, _ := openT(t, t.TempDir(), Options{Policy: SyncGroup})
	defer l.Close()
	for i := 0; i < 10; i++ {
		if _, err := l.Append("s", int64(i), []byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	// A Sync with nothing new pending must not fsync again.
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().Fsyncs; got != 10 {
		t.Fatalf("%d fsyncs for 10 dirty syncs", got)
	}
}

// --- frame fuzz ---------------------------------------------------------

// fuzzLog builds a three-stream log of several small segments once per
// process and returns its segment files (name → bytes, names in LSN
// order) and its records.
var fuzzLog = sync.OnceValue(func() (out struct {
	names []string
	files map[string][]byte
	recs  []Record
}) {
	dir, err := os.MkdirTemp("", "walfuzz")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	l, _, err := Open(Options{Dir: dir, Policy: SyncOff, SegmentBytes: 400})
	if err != nil {
		panic(err)
	}
	// Mutations, checkpoint records (a stream's seq repeated), one frame
	// larger than the scan window, then a rotation that carries a
	// checkpoint forward — and no compaction: a crash between the two.
	var ckpt Pos
	for i := 0; i < 40; i++ {
		stream := fmt.Sprintf("s%d/1", i%3)
		payload := []byte(fmt.Sprintf("payload-%d", i))
		if i == 20 {
			payload = bytes.Repeat(payload, windowBytes/len(payload)+1)
		}
		if _, err := l.Append(stream, int64(i/3), payload); err != nil {
			panic(err)
		}
		if i%7 == 6 {
			p, err := l.Append(stream, int64(i/3), []byte(fmt.Sprintf("checkpoint-%d", i)))
			if err != nil {
				panic(err)
			}
			ckpt = p
		}
	}
	if _, err := l.Rotate(); err != nil {
		panic(err)
	}
	r, err := l.ReadAt(ckpt)
	if err != nil {
		panic(err)
	}
	if _, err := l.Append(r.Stream, r.Seq, r.Payload); err != nil {
		panic(err)
	}
	if err := l.Replay(func(r Record) error {
		r.Payload = append([]byte(nil), r.Payload...)
		out.recs = append(out.recs, r)
		return nil
	}); err != nil {
		panic(err)
	}
	if err := l.Close(); err != nil {
		panic(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		panic(err)
	}
	out.files = map[string][]byte{}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			panic(err)
		}
		out.names = append(out.names, e.Name())
		out.files[e.Name()] = data
	}
	return out
})

func sameRecord(a, b Record) bool {
	return a.LSN == b.LSN && a.Off == b.Off && a.Seq == b.Seq && a.Stream == b.Stream && bytes.Equal(a.Payload, b.Payload)
}

// FuzzWalFrame pins the two halves of the recovery invariant. Arbitrary
// bytes never panic the frame parser or the segment scan, whatever
// position they are read from. And a valid log with one byte changed,
// one file cut short or lost, or garbage or a stale frame appended
// reopens to a prefix of its original records — never a misparsed or reordered one — with
// OnRecover having been handed exactly the records a Replay of the
// reopened log returns: what is delivered is what is kept.
func FuzzWalFrame(f *testing.F) {
	f.Add([]byte{}, uint32(0), byte(1), uint8(0))
	f.Add([]byte("SPWALSEG\x01\x00\x00\x00\x00\x00\x00\x00\x12\x00\x00\x00"), uint32(20), byte(0x40), uint8(0))
	f.Add(bytes.Repeat([]byte{0}, 64), uint32(500), byte(0x80), uint8(1))
	f.Add([]byte("garbage after the last frame"), uint32(900), byte(7), uint8(2))
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 1, 2, 3, 4}, uint32(3), byte(0xff), uint8(2))
	f.Add([]byte{}, uint32(450), byte(0), uint8(3))
	f.Add([]byte{}, uint32(0), byte(0), uint8(3))
	f.Add([]byte{}, uint32(0), byte(0), uint8(4))
	f.Fuzz(func(t *testing.T, raw []byte, pos uint32, flip byte, mode uint8) {
		// Raw bytes through the parser, from every frame boundary it
		// believes in and from an arbitrary offset.
		for off := 0; off <= len(raw); {
			n, _ := parseFrame(new(frame), raw[off:])
			if n == 0 {
				break
			}
			off += n
		}
		parseFrame(new(frame), raw[int(pos)%(len(raw)+1):])
		// Raw bytes as a segment file of their own, bare and behind a
		// valid header.
		for _, withHeader := range []bool{false, true} {
			dir := t.TempDir()
			data := raw
			if withHeader {
				data = append([]byte(segMagic+"\x01\x00\x00\x00\x00\x00\x00\x00"), raw...)
			}
			if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
				t.Fatal(err)
			}
			l, _, err := Open(Options{Dir: dir, Policy: SyncOff})
			if err != nil {
				t.Fatalf("Open on arbitrary bytes: %v", err)
			}
			l.Close()
		}

		// One mutation of a valid log.
		orig := fuzzLog()
		dir := t.TempDir()
		total := 0
		for _, name := range orig.names {
			total += len(orig.files[name])
		}
		at := int(pos) % total
		intact := true // every original frame is still where it was, whole
		skip := 0      // original records that went with a lost first file
		for _, name := range orig.names {
			data := append([]byte(nil), orig.files[name]...)
			hit := at >= 0 && at < len(data) // the mutation lands in this file
			last := name == orig.names[len(orig.names)-1]
			at -= len(data)
			switch mode % 5 {
			case 0: // one byte changed
				if hit {
					data[at+len(data)] ^= flip | 1
					intact = false
				}
			case 1: // one file cut short
				if hit {
					data = data[:at+len(data)]
					intact = false
				}
			case 2: // garbage after the last frame
				if last {
					data = append(data, raw...)
				}
			case 3: // one file lost
				if hit && name == orig.names[0] {
					// Indistinguishable from compaction, which removes
					// prefixes: the rest is a whole log.
					for off := headerSize; ; skip++ {
						n, _ := parseFrame(new(frame), data[off:])
						if n == 0 {
							break
						}
						off += n
					}
					continue
				} else if hit {
					intact = false
					continue
				}
			case 4: // an old frame written again at the end: sound CRC, stale LSN
				if last {
					n, _ := parseFrame(new(frame), orig.files[orig.names[0]][headerSize:])
					data = append(data, orig.files[orig.names[0]][headerSize:headerSize+n]...)
				}
			}
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		var delivered []Record
		l, rec, err := Open(Options{Dir: dir, Policy: SyncOff, OnRecover: func(r *Record) error {
			c := *r
			c.Payload = append([]byte(nil), r.Payload...)
			delivered = append(delivered, c)
			return nil
		}})
		if err != nil {
			t.Fatalf("Open after the mutation: %v", err)
		}
		defer l.Close()
		kept := collect(t, l)
		if len(delivered) != len(kept) || uint64(len(kept)) != rec.Records {
			t.Fatalf("OnRecover saw %d records, Replay returns %d, Recovery reports %d", len(delivered), len(kept), rec.Records)
		}
		want := orig.recs[skip:]
		if len(kept) > len(want) || (!intact && len(kept) == len(want)) {
			t.Fatalf("%d records survive a damaged log of %d (%+v)", len(kept), len(want), rec)
		}
		for i := range kept {
			if !sameRecord(kept[i], want[i]) || !sameRecord(delivered[i], kept[i]) {
				t.Fatalf("record %d: original %+v, kept %+v, delivered %+v", i, want[i], kept[i], delivered[i])
			}
		}
		if intact && len(kept) != len(want) {
			t.Fatalf("what was appended cost %d intact records (%+v)", len(want)-len(kept), rec)
		}
		// The survivor is a log: it takes an append and replays it.
		if _, err := l.Append("s0/1", 1000, []byte("after")); err != nil {
			t.Fatal(err)
		}
		if got := collect(t, l); len(got) != len(kept)+1 {
			t.Fatalf("append after recovery: %d records, want %d", len(got), len(kept)+1)
		}
	})
}

// TestOnRecoverSeesEachKeptRecordOnce: on an undamaged multi-segment
// log the callback sees every record, in LSN order, with one shared
// string per stream, and the scan reads each segment once.
func TestOnRecoverSeesEachKeptRecordOnce(t *testing.T) {
	dir := t.TempDir()
	paths := buildLog(t, dir, 60, 512)
	var size int64
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		size += fi.Size()
	}
	var lsns []uint64
	l, rec := openT(t, dir, Options{Policy: SyncOff, OnRecover: func(r *Record) error {
		lsns = append(lsns, r.LSN)
		return nil
	}})
	defer l.Close()
	if rec.Truncated || len(lsns) != 60 {
		t.Fatalf("callback saw %d records (%+v)", len(lsns), rec)
	}
	for i, lsn := range lsns {
		if lsn != uint64(i+1) {
			t.Fatalf("delivery out of order: %v", lsns)
		}
	}
	if got := l.Stats().ReadBytes; got != size {
		t.Fatalf("Open read %d bytes of %d on disk", got, size)
	}
	// A filtered replay above the stream's last seq touches no segment.
	if err := l.ReplayStream("s", 60, func(Record) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().ReadBytes; got != size {
		t.Fatalf("a replay past the stream's end read %d more bytes", got-size)
	}
	collect(t, l)
	if got := l.Stats().ReadBytes; got != 2*size {
		t.Fatalf("after one full replay ReadBytes = %d, want %d", got, 2*size)
	}
	// An OnRecover error aborts the open.
	l.Close()
	if _, _, err := Open(Options{Dir: dir, Policy: SyncOff, OnRecover: func(*Record) error {
		return fmt.Errorf("stop")
	}}); err == nil || err.Error() != "stop" {
		t.Fatalf("Open with a failing OnRecover: %v", err)
	}
}

// TestScanIndexMatchesAppendIndex: the per-segment stream index Open's
// scan builds equals the one the appending Log kept, for a multi-
// segment, multi-stream log reopened whole and reopened with a torn
// tail (against a twin that appended only the records it keeps). On
// each, ReplayStream reads the same segments for the same records and
// Compact is offered the same coverage.
func TestScanIndexMatchesAppendIndex(t *testing.T) {
	type rec struct {
		stream  string
		seq     int64
		payload []byte
	}
	rng := rand.New(rand.NewSource(7))
	streams := []string{"a/1", "b/1", "c/2", "d%2Fe/1"}
	next := map[string]int64{}
	var plan []rec
	for i := 0; i < 400; i++ {
		s := streams[rng.Intn(len(streams))]
		if rng.Intn(8) != 0 { // else it shares the seq, as a checkpoint does
			next[s]++
		}
		plan = append(plan, rec{s, next[s], make([]byte, rng.Intn(64))})
	}
	// write appends plan[:n] to a fresh log, sealing a segment after
	// every 37th record but never after the last two.
	write := func(dir string, n int) *Log {
		l, _ := openT(t, dir, Options{Policy: SyncOff, SegmentBytes: 64 << 10})
		for i, r := range plan[:n] {
			if _, err := l.Append(r.stream, r.seq, r.payload); err != nil {
				t.Fatal(err)
			}
			if i%37 == 36 && i < len(plan)-2 {
				if _, err := l.Rotate(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
		return l
	}
	type segIndex struct {
		first, last uint64
		streams     map[string]seqRange
	}
	index := func(l *Log) []segIndex {
		l.mu.Lock()
		defer l.mu.Unlock()
		var out []segIndex
		for _, s := range append(l.sealed[:len(l.sealed):len(l.sealed)], l.active) {
			out = append(out, segIndex{s.firstLSN, s.lastLSN, s.streams})
		}
		return out
	}
	// observe is what the index decides: per stream and watermark, the
	// records ReplayStream returns and the bytes it reads, and every
	// (stream, maxSeq, lastLSN) Compact is offered (it then removes every
	// sealed segment).
	observe := func(l *Log) []string {
		var out []string
		for _, s := range streams {
			for _, after := range []int64{-1, 0, next[s] / 3, next[s] / 2, next[s] - 1, next[s]} {
				n, before := 0, l.Stats().ReadBytes
				if err := l.ReplayStream(s, after, func(Record) error { n++; return nil }); err != nil {
					t.Fatal(err)
				}
				out = append(out, fmt.Sprintf("replay %s after %d: %d records, %d bytes", s, after, n, l.Stats().ReadBytes-before))
			}
		}
		var offered []string
		if _, err := l.Compact(func(s string, maxSeq int64, lastLSN uint64) bool {
			offered = append(offered, fmt.Sprintf("compact %s max %d last %d", s, maxSeq, lastLSN))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		sort.Strings(offered)
		return append(out, offered...)
	}
	check := func(t *testing.T, wantIdx []segIndex, wantObs []string, dir string) {
		l, rec := openT(t, dir, Options{Policy: SyncOff, SegmentBytes: 64 << 10})
		defer l.Close()
		if got := index(l); !reflect.DeepEqual(got, wantIdx) {
			t.Fatalf("scanned index (%+v)\n  %v\nappended\n  %v", rec, got, wantIdx)
		}
		if got := observe(l); !reflect.DeepEqual(got, wantObs) {
			t.Fatalf("after the scan\n  %q\nafter appending\n  %q", got, wantObs)
		}
	}

	// twin appends the first n records to a second directory and reports
	// what its appending Log holds and decides (observing compacts it).
	twin := func(t *testing.T, n int) ([]segIndex, []string) {
		l := write(t.TempDir(), n)
		defer l.Close()
		if len(l.sealed) < 8 {
			t.Fatalf("%d sealed segments, want several", len(l.sealed))
		}
		return index(l), observe(l)
	}

	t.Run("whole", func(t *testing.T) {
		dir := t.TempDir()
		if err := write(dir, len(plan)).Close(); err != nil {
			t.Fatal(err)
		}
		idx, obs := twin(t, len(plan))
		check(t, idx, obs, dir)
	})
	t.Run("torn tail", func(t *testing.T) {
		dir := t.TempDir()
		l := write(dir, len(plan))
		last := l.active.path
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(last)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(last, fi.Size()-3); err != nil {
			t.Fatal(err)
		}
		idx, obs := twin(t, len(plan)-1)
		check(t, idx, obs, dir)
	})
}

// TestAppendAllocFree pins the append path at fsync=off: framing an
// admit-sized record into the write buffer, and the flush at every
// 32nd append (the actor-drain boundary), allocate nothing.
func TestAppendAllocFree(t *testing.T) {
	l, _ := openT(t, t.TempDir(), Options{Policy: SyncOff})
	defer l.Close()
	payload := make([]byte, 96)
	var seq int64
	appendOne := func() {
		seq++
		if _, err := l.Append("bench/1", seq, payload); err != nil {
			t.Fatal(err)
		}
		if seq%32 == 0 {
			if err := l.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 64; i++ {
		appendOne()
	}
	if n := testing.AllocsPerRun(320, appendOne); n != 0 {
		t.Fatalf("Append at fsync=off: %.2f allocs/op, want 0", n)
	}
}

// TestScanAllocatesPerStreamNotPerRecord pins the scan's allocation
// shape: reading a log costs a fixed number of allocations per segment
// and per distinct stream, none per record.
func TestScanAllocatesPerStreamNotPerRecord(t *testing.T) {
	allocs := func(records int64) float64 {
		dir := t.TempDir()
		buildLog(t, dir, records, 1<<20)
		return testing.AllocsPerRun(5, func() {
			l, _, err := Open(Options{Dir: dir, Policy: SyncOff, OnRecover: func(*Record) error { return nil }})
			if err != nil {
				t.Fatal(err)
			}
			l.Close()
		})
	}
	small, large := allocs(50), allocs(2050)
	if large-small > 20 {
		t.Fatalf("opening 2000 more records cost %.0f more allocations (%.0f vs %.0f)", large-small, large, small)
	}
}
