// Package wal is the durability plane's commit log: an append-only,
// segmented record log with CRC32C framing, monotonic log sequence
// numbers, a configurable fsync policy, and truncate-at-last-valid-
// record crash recovery. It depends on nothing outside the standard
// library and knows nothing about sessions: callers append opaque
// payloads keyed by a (stream, seq) pair and get them back, in order,
// from Replay.
//
// # Framing
//
// Every record is one length-prefixed frame:
//
//	u32  length   — bytes after the crc field (lsn..payload)
//	u32  crc32c   — Castagnoli checksum of those bytes
//	u64  lsn      — log sequence number, +1 per append, log-wide
//	u64  seq      — caller's per-stream sequence number (opaque here)
//	u16  streamLen
//	     stream   — the stream key (a session, for admitd)
//	     payload  — opaque caller bytes
//
// Frames live in segment files named wal-%016x.log (the hex of the
// first LSN the segment holds), each opened with a 16-byte header
// (magic + first LSN). Appends go to the newest ("active") segment;
// when it passes Options.SegmentBytes it is sealed and a new one
// started. Compact removes a fully-covered prefix of sealed segments
// — the low-water truncation that pairs with checkpointing.
//
// # Durability
//
// Appends are buffered; Flush writes them to the active segment file,
// and Sync, the one durability call, makes them durable: it returns
// once an fsync that started after the caller's bytes reached the file
// has completed, and concurrent callers share fsyncs in ordered
// batches (group commit, after Helland et al., HPTS 1987).
// Who calls Sync, and whether acks wait for it, is the caller's
// policy (SyncPolicy); the log reads only whether it is SyncOff.
//
// # Recovery invariant
//
// Open scans every segment front to back, verifying the header, the
// per-frame checksum, and LSN continuity (segments are contiguous:
// compaction only ever removes a prefix). At the FIRST anomaly — a
// torn tail write, a flipped bit, a zero-filled page, a duplicated
// or foreign segment file — the log is truncated at the last valid
// record: the offending bytes and every later segment are dropped,
// and the Recovery report says where and why. Everything before the
// truncation point is intact and appendable.
//
// That scan is the one time a restart has to read the log:
// Options.OnRecover is handed each record as it is verified, in LSN
// order, and sees exactly the records a Replay after Open would
// return — no record Open then drops, none it keeps left out.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// SyncPolicy names the durability plane's fsync policy (the daemon's
// -fsync flag). The log itself reads only whether it is SyncOff: a
// sealed segment and Close then skip their fsync. Every other fsync is
// a Sync call, whose timing is the caller's.
type SyncPolicy uint8

const (
	// SyncGroup (the default): acks do not wait for the device; a
	// background committer calls Sync once per window (admitd's
	// bounded-loss group policy).
	SyncGroup SyncPolicy = iota
	// SyncAlways: every commit boundary calls Sync and its acks wait
	// for it.
	SyncAlways
	// SyncOff: nothing waits for the device; Flush still writes
	// buffered frames to the file, so only an OS crash (not a process
	// crash) loses data.
	SyncOff
)

// String is the canonical flag spelling (always|group|off).
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncOff:
		return "off"
	default:
		return "group"
	}
}

// ParseSyncPolicy maps the flag spelling; "" means SyncGroup.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "", "group":
		return SyncGroup, nil
	case "always":
		return SyncAlways, nil
	case "off":
		return SyncOff, nil
	default:
		return SyncGroup, fmt.Errorf("wal: unknown fsync policy %q (always|group|off)", s)
	}
}

// Options parameterizes Open.
type Options struct {
	// Dir holds the segment files (created if missing).
	Dir string
	// SegmentBytes seals the active segment once it grows past this;
	// 0 means 4 MiB.
	SegmentBytes int64
	// Policy is the fsync policy (default SyncGroup); the log reads
	// only whether it is SyncOff.
	Policy SyncPolicy
	// OnFsync, when non-nil, observes every fsync's duration —
	// the telemetry hook (called without the log's lock held state
	// exposed; keep it cheap).
	OnFsync func(time.Duration)
	// OnRecover, when non-nil, is handed every record Open's recovery
	// scan verifies and keeps, in LSN order, so the caller's replay
	// rides the scan instead of reading the log again. What is
	// delivered is what is kept: within a segment delivery stops at the
	// first anomaly, which is the truncation point, and a segment Open
	// drops whole is refused on its header before any of its frames is
	// delivered. The record is the scan's own, refilled for every
	// frame: it and its Payload (which aliases the read window) are
	// valid only during the call, so copy what you keep. Stream is one
	// string shared by all of a stream's records, safe to keep, and
	// StreamIndex its index in this scan. An error aborts Open.
	OnRecover func(*Record) error
}

// Record is one replayed log entry. Payload aliases the replay
// buffer: it is valid only inside the Replay (or OnRecover) callback
// — copy it to keep it. OnRecover is handed a *Record the scan reuses
// for the next frame, so the pointer is valid only during the call too.
// Off is the frame's byte offset in its segment file: with LSN, the
// record's Pos.
type Record struct {
	LSN     uint64
	Off     int64
	Seq     int64
	Stream  string
	Payload []byte
	// StreamIndex, in a record Open's recovery scan hands OnRecover, is
	// the index the scan interned Stream under: from 0 in the order the
	// scan met the streams, and stable for one Open, so a caller can
	// keep per-stream state in a slice instead of hashing Stream again.
	// Replay, ReplayStream and ReadAt leave it 0.
	StreamIndex int
}

// Pos locates one frame: the LSN it was appended at and its byte
// offset within its segment file. Append returns it, Record carries
// it, and ReadAt reads the frame back without a scan.
type Pos struct {
	LSN uint64
	Off int64
}

// Pos is where the record sits in the log.
func (r Record) Pos() Pos { return Pos{LSN: r.LSN, Off: r.Off} }

// ErrNotRetained: ReadAt was asked for a frame whose segment the log no
// longer holds (compaction removed it).
var ErrNotRetained = errors.New("wal: position no longer retained")

// ErrFrameTooLarge is returned by Append for a record whose frame
// would exceed the 16 MiB bound every reader enforces.
var ErrFrameTooLarge = errors.New("wal: record too large")

// Recovery reports what Open found: how much of the log was valid
// and, when an anomaly forced truncation, where and why.
type Recovery struct {
	Segments int    // segment files kept
	Records  uint64 // valid records found
	NextLSN  uint64 // first LSN the reopened log will assign

	Truncated       bool   // an anomaly truncated the log
	Reason          string // first anomaly ("crc mismatch", ...)
	File            string // segment file holding the anomaly
	Offset          int64  // byte offset of the anomaly in File
	DroppedBytes    int64  // bytes discarded at and after the anomaly
	DroppedSegments int    // whole segment files discarded
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	Segments int   // live segment files (sealed + active)
	Bytes    int64 // logical bytes appended over the log's lifetime
	Appends  uint64
	Fsyncs   uint64
	// ReadBytes counts segment bytes read back: by Open's recovery scan
	// and by every Replay/ReplayStream since.
	ReadBytes int64
}

const (
	segMagic   = "SPWALSEG"
	headerSize = 16
	// frameFixed is the fixed part of the CRC-covered region:
	// lsn (8) + seq (8) + streamLen (2).
	frameFixed = 18
	// maxFrame bounds one frame's length field — anything bigger is
	// garbage, not a record.
	maxFrame = 16 << 20
	// flushThreshold bounds the in-memory append buffer between
	// flushes.
	flushThreshold = 1 << 20
	// windowBytes is the read window segments are scanned through; a
	// frame larger than it is read whole.
	windowBytes = 64 << 10
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// seqRange is the [min, max] caller sequence span one segment holds
// for one stream — the compaction coverage index.
type seqRange struct{ min, max int64 }

// add widens the range to cover seq.
func (r *seqRange) add(seq int64) {
	if seq < r.min {
		r.min = seq
	}
	if seq > r.max {
		r.max = seq
	}
}

type segment struct {
	path     string
	firstLSN uint64
	lastLSN  uint64 // firstLSN-1 when empty
	records  int64
	size     int64 // logical bytes (header + frames, buffered included)
	streams  map[string]seqRange
}

func (s *segment) note(stream string, seq int64) {
	r, ok := s.streams[stream]
	if !ok {
		r = seqRange{min: seq, max: seq}
	}
	r.add(seq)
	s.streams[stream] = r
}

// Log is one open commit log. All methods are safe for concurrent
// use; Append serializes under one mutex (admitd's store shares one
// Log).
type Log struct {
	mu     sync.Mutex
	opts   Options
	sealed []*segment
	active *segment
	f      *os.File
	buf    []byte // appended frames not yet written to f
	dirty  bool   // bytes written to f since the last fsync started
	closed bool

	// Group commit: the batch whose fsync is running, and the one
	// queued behind it, which callers arriving meanwhile join.
	syncing, queued *syncBatch

	nextLSN uint64
	appends uint64
	fsyncs  uint64
	bytes   int64

	readBytes atomic.Int64 // replays read outside mu
}

func segName(firstLSN uint64) string {
	return fmt.Sprintf("wal-%016x.log", firstLSN)
}

func segNameLSN(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log")
	if len(hex) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// frame is one parsed frame: the record it carries (parseFrame fills
// LSN, Seq and Payload; the reader fills in the rest) and its stream
// key's bytes. Stream key and payload alias the buffer it was parsed
// from.
type frame struct {
	Record
	stream []byte
}

// streamNames interns stream keys, so reading the log allocates one
// string per distinct stream instead of one per frame. Its lookup is
// an open-addressed table over the key bytes (FNV-1a, linear probing,
// at most half full): a hit costs the hash and one string compare, and
// the table grows by doubling. The zero value is ready to use.
type streamNames struct {
	slots []int32 // 0: empty; else 1 + the index of an entry in ents
	ents  []streamName
}

// streamName is one interned stream key. The recovery scan also keeps
// in it the stream's seq range in the segment being scanned, so a
// frame costs the scan one table lookup; the ranges reach the
// segment's index once per stream, when its scan ends.
type streamName struct {
	name string
	hash uint32
	seg  *segment // the segment r spans; nil before the scan meets the stream
	r    seqRange
}

// minNameSlots is the table's first size.
const minNameSlots = 16

// fnv1a is the 32-bit FNV-1a hash of b.
func fnv1a(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	return h
}

// of returns the index of b's entry in ents, interning b if it is new.
func (n *streamNames) of(b []byte) int {
	h := fnv1a(b)
	if mask := uint32(len(n.slots) - 1); len(n.slots) > 0 {
		for i := h & mask; n.slots[i] != 0; i = (i + 1) & mask {
			if e := &n.ents[n.slots[i]-1]; e.hash == h && e.name == string(b) {
				return int(n.slots[i] - 1)
			}
		}
	}
	if 2*(len(n.ents)+1) > len(n.slots) {
		n.grow()
	}
	n.ents = append(n.ents, streamName{name: string(b), hash: h})
	n.place(len(n.ents) - 1)
	return len(n.ents) - 1
}

// grow doubles the table (or makes its first one) and places every
// entry anew.
func (n *streamNames) grow() {
	n.slots = make([]int32, max(minNameSlots, 2*len(n.slots)))
	for i := range n.ents {
		n.place(i)
	}
}

// place puts entry i in the first free slot from its hash on.
func (n *streamNames) place(i int) {
	mask := uint32(len(n.slots) - 1)
	j := n.ents[i].hash & mask
	for n.slots[j] != 0 {
		j = (j + 1) & mask
	}
	n.slots[j] = int32(i + 1)
}

// scanner is Open's state across the segments it scans: the read
// window, the interned stream keys, and how many streams the current
// segment holds.
type scanner struct {
	sr    segReader
	names streamNames
	held  int
}

// note counts one frame of stream b at seq into seg's ranges and
// returns the stream's index.
func (sc *scanner) note(seg *segment, b []byte, seq int64) int {
	i := sc.names.of(b)
	if e := &sc.names.ents[i]; e.seg != seg {
		e.seg, e.r = seg, seqRange{min: seq, max: seq}
		sc.held++
	} else {
		e.r.add(seq)
	}
	return i
}

// index writes the ranges of seg, the segment just scanned, to its
// index.
func (sc *scanner) index(seg *segment) {
	seg.streams = make(map[string]seqRange, sc.held)
	for i := range sc.names.ents {
		if e := &sc.names.ents[i]; e.seg == seg {
			seg.streams[e.name] = e.r
		}
	}
}

// parseFrame decodes the frame at the front of data into f. A ""
// reason with size 0 is the clean end of data; a non-empty reason names
// the anomaly, and f is then left as it was.
func parseFrame(f *frame, data []byte) (size int, reason string) {
	if len(data) == 0 {
		return 0, ""
	}
	if len(data) < 8 {
		return 0, "truncated frame header"
	}
	l := binary.LittleEndian.Uint32(data)
	if l < frameFixed || l > maxFrame {
		return 0, fmt.Sprintf("bad frame length %d", l)
	}
	if len(data) < 8+int(l) {
		return 0, "truncated frame body"
	}
	body := data[8 : 8+l]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(data[4:]) {
		return 0, "crc mismatch"
	}
	sl := int(binary.LittleEndian.Uint16(body[16:]))
	if frameFixed+sl > int(l) {
		return 0, "bad stream length"
	}
	f.LSN = binary.LittleEndian.Uint64(body)
	f.Seq = int64(binary.LittleEndian.Uint64(body[8:]))
	f.stream = body[frameFixed : frameFixed+sl]
	f.Payload = body[frameFixed+sl:]
	return 8 + int(l), ""
}

// segReader reads one segment file through a reused window: frames are
// parsed in place, into fr, and one larger than the window grows it to
// fit.
type segReader struct {
	f    *os.File
	fr   frame // the frame next last parsed; it aliases buf
	buf  []byte
	r, w int   // unparsed bytes: buf[r:w]
	off  int64 // file offset of buf[r]
	left int64 // file bytes not yet read
	read int64 // file bytes read
}

// reset points the reader at f, of which it reads at most limit bytes.
func (sr *segReader) reset(f *os.File, limit int64) {
	if sr.buf == nil {
		sr.buf = make([]byte, windowBytes)
	}
	sr.f, sr.r, sr.w, sr.off, sr.left, sr.read = f, 0, 0, 0, limit, 0
}

// fill makes n bytes available at buf[r:], or all that is left of
// the file if that is fewer.
func (sr *segReader) fill(n int) error {
	if sr.w-sr.r >= n {
		return nil
	}
	if n > len(sr.buf) {
		sr.buf = append(make([]byte, 0, n), sr.buf[sr.r:sr.w]...)[:n]
	} else {
		copy(sr.buf, sr.buf[sr.r:sr.w])
	}
	sr.w -= sr.r
	sr.r = 0
	for sr.w < n && sr.left > 0 {
		k, err := sr.f.Read(sr.buf[sr.w:min(int64(len(sr.buf)), int64(sr.w)+sr.left)])
		sr.w += k
		sr.left -= int64(k)
		sr.read += int64(k)
		if err == io.EOF {
			sr.left = 0
		} else if err != nil {
			return err
		}
	}
	return nil
}

// next parses the frame at the reader's position into sr.fr
// (parseFrame's answer, over the window), and steps past it. off is the
// frame's file offset; a clean end leaves sr.off at off.
func (sr *segReader) next() (off int64, reason string, err error) {
	if sr.w-sr.r < 8 {
		if err := sr.fill(8); err != nil {
			return 0, "", err
		}
	}
	if sr.w-sr.r >= 8 {
		if l := binary.LittleEndian.Uint32(sr.buf[sr.r:]); l >= frameFixed && l <= maxFrame && sr.w-sr.r < 8+int(l) {
			if err := sr.fill(8 + int(l)); err != nil {
				return 0, "", err
			}
		}
	}
	n, reason := parseFrame(&sr.fr, sr.buf[sr.r:sr.w])
	off = sr.off
	sr.r += n
	sr.off += int64(n)
	return off, reason, nil
}

// scanSegment validates one segment file front to back, returning the
// valid-prefix description and, when the scan hit an anomaly, its
// reason and offset. wantFirst, when non-zero, is the LSN the segment
// must start at to continue the log: one that starts elsewhere is
// refused on its header, before any frame is looked at. Every frame
// that passes is handed to Options.OnRecover on the spot — a frame is
// checksummed and LSN-checked once per restart, here. An I/O error
// (or an OnRecover error) aborts the open instead.
func (l *Log) scanSegment(sc *scanner, path string, wantFirst uint64) (seg *segment, reason string, offset int64, err error) {
	sr := &sc.sr
	sc.held = 0
	file, err := os.Open(path)
	if err != nil {
		return nil, "", 0, err
	}
	defer file.Close()
	sr.reset(file, 1<<62)
	defer func() { l.readBytes.Add(sr.read) }()
	nameLSN, ok := segNameLSN(filepath.Base(path))
	if !ok {
		return nil, "bad segment name", 0, nil
	}
	if err := sr.fill(headerSize); err != nil {
		return nil, "", 0, err
	}
	hdr := sr.buf[sr.r:sr.w]
	if len(hdr) < headerSize {
		return nil, "truncated segment header", 0, nil
	}
	if string(hdr[:8]) != segMagic {
		return nil, "bad segment magic", 0, nil
	}
	first := binary.LittleEndian.Uint64(hdr[8:])
	sr.r += headerSize
	sr.off = headerSize
	if first != nameLSN {
		return nil, "segment header/name mismatch", 0, nil
	}
	if wantFirst != 0 && first != wantFirst {
		return nil, "segment lsn discontinuity", 0, nil
	}
	seg = &segment{
		path:     path,
		firstLSN: first,
		lastLSN:  first - 1,
		size:     headerSize,
	}
	f := &sr.fr
	for {
		off, bad, err := sr.next()
		switch {
		case err != nil:
			return nil, "", 0, err
		case bad != "":
			reason, offset = bad, off
		case sr.off == off: // clean end
		case f.LSN != seg.lastLSN+1:
			reason, offset = fmt.Sprintf("lsn discontinuity (%d after %d)", f.LSN, seg.lastLSN), off
		default:
			i := sc.note(seg, f.stream, f.Seq)
			if l.opts.OnRecover != nil {
				f.Off, f.Stream, f.StreamIndex = off, sc.names.ents[i].name, i
				if err := l.opts.OnRecover(&f.Record); err != nil {
					return nil, "", 0, err
				}
			}
			seg.lastLSN = f.LSN
			seg.records++
			seg.size = sr.off
			continue
		}
		sc.index(seg)
		return seg, reason, offset, nil
	}
}

// Open opens (or creates) the log in opts.Dir, running recovery over
// whatever is on disk. It never fails on corrupt data — corruption
// truncates, and the Recovery report says so — only on I/O errors.
func Open(opts Options) (*Log, *Recovery, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 4 << 20
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, err
	}
	entries, err := os.ReadDir(opts.Dir)
	if err != nil {
		return nil, nil, err
	}
	var names []string
	for _, e := range entries {
		if _, ok := segNameLSN(e.Name()); ok {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names) // %016x: name order is LSN order

	l := &Log{opts: opts}
	rec := &Recovery{}
	lastLSN := uint64(0) // last assigned LSN (empty segments count: firstLSN-1)
	haveSeg := false
	drop := func(i int, reason string, file string, offset int64) error {
		// First anomaly: record it, then discard the offending bytes
		// and every later segment.
		rec.Truncated = true
		rec.Reason = reason
		rec.File = file
		rec.Offset = offset
		for _, name := range names[i:] {
			p := filepath.Join(opts.Dir, name)
			if fi, err := os.Stat(p); err == nil {
				rec.DroppedBytes += fi.Size()
			}
			if err := os.Remove(p); err != nil {
				return err
			}
			rec.DroppedSegments++
		}
		return syncDir(opts.Dir)
	}
	sc := &scanner{}
scan:
	for i, name := range names {
		path := filepath.Join(opts.Dir, name)
		// Continuity across segments: compaction removes prefixes only,
		// so survivors are contiguous. Whether a segment continues the
		// log hangs on its header alone, so it is settled before any of
		// its frames reaches OnRecover.
		wantFirst := uint64(0)
		if haveSeg {
			wantFirst = lastLSN + 1
		}
		seg, reason, offset, err := l.scanSegment(sc, path, wantFirst)
		if err != nil {
			return nil, nil, err
		}
		switch {
		case reason == "" && seg.records == 0 && i != len(names)-1:
			// An empty segment is only ever the active tail.
			if err := drop(i, "empty non-final segment", name, 0); err != nil {
				return nil, nil, err
			}
		case reason == "":
			l.sealed = append(l.sealed, seg)
			lastLSN = seg.lastLSN
			haveSeg = true
			rec.Records += uint64(seg.records)
			continue
		case seg != nil && seg.records > 0:
			// Anomaly inside this segment: keep its valid prefix (the
			// frames OnRecover has seen), then drop the rest of the log.
			fi, err := os.Stat(path)
			if err != nil {
				return nil, nil, err
			}
			rec.DroppedBytes += fi.Size() - seg.size
			if err := truncateFile(path, seg.size); err != nil {
				return nil, nil, err
			}
			l.sealed = append(l.sealed, seg)
			lastLSN = seg.lastLSN
			rec.Records += uint64(seg.records)
			if err := drop(i+1, reason, name, offset); err != nil {
				return nil, nil, err
			}
		default:
			if err := drop(i, reason, name, offset); err != nil {
				return nil, nil, err
			}
		}
		break scan
	}

	l.nextLSN = lastLSN + 1
	rec.Segments = len(l.sealed)
	rec.NextLSN = l.nextLSN

	// The newest surviving segment becomes active again; a fresh log
	// (or a fully-dropped one) starts a new segment.
	if n := len(l.sealed); n > 0 {
		l.active = l.sealed[n-1]
		l.sealed = l.sealed[:n-1]
		f, err := os.OpenFile(l.active.path, os.O_WRONLY, 0o644)
		if err != nil {
			return nil, nil, err
		}
		if _, err := f.Seek(l.active.size, 0); err != nil {
			f.Close()
			return nil, nil, err
		}
		l.f = f
	} else if err := l.newSegmentLocked(); err != nil {
		return nil, nil, err
	}
	for _, s := range l.sealed {
		l.bytes += s.size
	}
	l.bytes += l.active.size
	return l, rec, nil
}

func truncateFile(path string, size int64) error {
	if err := os.Truncate(path, size); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// newSegmentLocked creates and activates the next segment file.
func (l *Log) newSegmentLocked() error {
	first := l.nextLSN
	if first == 0 {
		first = 1
		l.nextLSN = 1
	}
	path := filepath.Join(l.opts.Dir, segName(first))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	// Reserve the segment's extents up front (keeping the logical
	// size) so the fsync-per-commit path never pays block allocation.
	preallocate(f, l.opts.SegmentBytes)
	var hdr [headerSize]byte
	copy(hdr[:], segMagic)
	binary.LittleEndian.PutUint64(hdr[8:], first)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.dirty = true
	l.active = &segment{
		path:     path,
		firstLSN: first,
		lastLSN:  first - 1,
		size:     headerSize,
		streams:  make(map[string]seqRange),
	}
	l.bytes += headerSize
	return syncDir(l.opts.Dir)
}

var errClosed = fmt.Errorf("wal: log closed")

// Append stages one record: it is buffered until Flush, Sync (or the
// buffer threshold) writes it to the file. Returns the record's
// position.
func (l *Log) Append(stream string, seq int64, payload []byte) (Pos, error) {
	if len(stream) > 1<<16-1 {
		return Pos{}, fmt.Errorf("wal: stream key too long (%d bytes)", len(stream))
	}
	frameLen := frameFixed + len(stream) + len(payload)
	if frameLen > maxFrame {
		// The scan would read a longer length field as garbage and
		// truncate the log there, so such a frame is never written.
		return Pos{}, fmt.Errorf("%w: %d bytes, limit %d", ErrFrameTooLarge, frameLen, maxFrame)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return Pos{}, errClosed
	}
	lsn := l.nextLSN
	l.nextLSN++
	pos := Pos{LSN: lsn, Off: l.active.size}

	start := len(l.buf)
	l.buf = binary.LittleEndian.AppendUint32(l.buf, uint32(frameLen))
	crcAt := len(l.buf)
	l.buf = binary.LittleEndian.AppendUint32(l.buf, 0)
	body := len(l.buf)
	l.buf = binary.LittleEndian.AppendUint64(l.buf, lsn)
	l.buf = binary.LittleEndian.AppendUint64(l.buf, uint64(seq))
	l.buf = binary.LittleEndian.AppendUint16(l.buf, uint16(len(stream)))
	l.buf = append(l.buf, stream...)
	l.buf = append(l.buf, payload...)
	binary.LittleEndian.PutUint32(l.buf[crcAt:], crc32.Checksum(l.buf[body:], castagnoli))

	n := int64(len(l.buf) - start)
	l.active.size += n
	l.active.lastLSN = lsn
	l.active.records++
	l.active.note(stream, seq)
	l.appends++
	l.bytes += n

	var err error
	if len(l.buf) >= flushThreshold {
		err = l.flushLocked()
	}
	if err == nil && l.active.size >= l.opts.SegmentBytes {
		err = l.rotateLocked()
	}
	return pos, err
}

// flushLocked writes buffered frames to the active file.
func (l *Log) flushLocked() error {
	if len(l.buf) == 0 {
		return nil
	}
	if _, err := l.f.Write(l.buf); err != nil {
		return err
	}
	l.buf = l.buf[:0]
	l.dirty = true
	return nil
}

// syncLocked flushes and fsyncs under the mutex, if anything reached
// the file since the last fsync started: rotation and Close, which
// hold the mutex anyway.
func (l *Log) syncLocked() error {
	if err := l.flushLocked(); err != nil {
		return err
	}
	if !l.dirty {
		return nil
	}
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.dirty = false
	l.fsyncs++
	if l.opts.OnFsync != nil {
		l.opts.OnFsync(time.Since(start))
	}
	return nil
}

// Flush writes buffered frames to the active segment file without
// fsyncing.
func (l *Log) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errClosed
	}
	return l.flushLocked()
}

// syncBatch is one fsync and the Sync callers it covers.
type syncBatch struct {
	done chan struct{} // closed once err is set; each waiter blocks here once
	err  error
}

// Sync makes everything appended so far durable, whatever the policy:
// it flushes, then returns once an fsync that started after those
// bytes reached the file has completed, with that fsync's error.
// Concurrent callers share fsyncs in ordered batches. While one fsync
// runs, every caller with newer bytes joins the one batch queued
// behind it; that batch's first caller leads it, starting its fsync
// when the running one completes, so batches complete in order. A
// caller whose bytes the running fsync already covers waits for it.
// The fsync runs on a dup'ed descriptor with the log mutex released,
// so appenders never stall behind the device.
func (l *Log) Sync() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return errClosed
	}
	if err := l.flushLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	var b *syncBatch
	switch {
	case !l.dirty:
		// Every byte in the file was written before the last fsync
		// started: that fsync covers them, done or still running.
		b = l.syncing
	case l.queued != nil:
		b = l.queued
	default:
		return l.lead()
	}
	l.mu.Unlock()
	if b == nil {
		return nil
	}
	<-b.done
	return b.err
}

// lead runs a new batch: it waits for the running fsync, if any, then
// fsyncs everything written so far. Called with the mutex held; returns
// with it released.
func (l *Log) lead() error {
	b := &syncBatch{done: make(chan struct{})}
	if prev := l.syncing; prev != nil {
		l.queued = b
		l.mu.Unlock()
		<-prev.done
		l.mu.Lock()
		l.queued = nil
		if l.closed {
			l.mu.Unlock()
			b.err = errClosed
			close(b.done)
			return b.err
		}
	}
	l.syncing = b
	l.dirty = false
	fd, ok := dupFD(l.f.Fd())
	start := time.Now()
	if !ok {
		b.err = l.f.Sync() // no descriptor clone here: fsync under the mutex
	}
	l.mu.Unlock()
	if ok {
		b.err = fsyncFD(fd)
		closeFD(fd)
	}
	elapsed := time.Since(start)

	l.mu.Lock()
	l.syncing = nil
	if b.err != nil {
		l.dirty = true
	} else {
		l.fsyncs++
	}
	l.mu.Unlock()
	close(b.done)
	if b.err == nil && l.opts.OnFsync != nil {
		l.opts.OnFsync(elapsed)
	}
	return b.err
}

// rotateLocked seals the active segment and starts the next one.
func (l *Log) rotateLocked() error {
	if l.active.records == 0 {
		return nil
	}
	if l.opts.Policy == SyncOff {
		if err := l.flushLocked(); err != nil {
			return err
		}
	} else if err := l.syncLocked(); err != nil {
		// A sealed segment is never written again: sync it on the way
		// out so compaction and recovery can trust it.
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	l.sealed = append(l.sealed, l.active)
	return l.newSegmentLocked()
}

// Rotate seals the active segment (a no-op when it holds no records)
// so a following Compact can consider its records. It returns the
// first LSN of the active segment it leaves: every record below it
// sits in a sealed segment. The checkpoint loop calls this first.
func (l *Log) Rotate() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, errClosed
	}
	if err := l.rotateLocked(); err != nil {
		return 0, err
	}
	return l.active.firstLSN, nil
}

// Compact removes the longest fully-covered prefix of sealed
// segments: a segment goes when covered(stream, maxSeq, lastLSN) is
// true for every stream it holds records of, maxSeq being the
// stream's highest seq in the segment and lastLSN the segment's last
// LSN — so a caller can keep the segment that holds a record it
// still needs. Returns how many segments were removed.
func (l *Log) Compact(covered func(stream string, maxSeq int64, lastLSN uint64) bool) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, errClosed
	}
	removed := 0
	for len(l.sealed) > 0 {
		seg := l.sealed[0]
		ok := true
		for stream, r := range seg.streams {
			if !covered(stream, r.max, seg.lastLSN) {
				ok = false
				break
			}
		}
		if !ok {
			break
		}
		if err := os.Remove(seg.path); err != nil {
			return removed, err
		}
		l.sealed = l.sealed[1:]
		removed++
	}
	if removed > 0 {
		return removed, syncDir(l.opts.Dir)
	}
	return 0, nil
}

// replaySpan is one file's worth of replay work, captured under the
// lock so reads run without it.
type replaySpan struct {
	path  string
	limit int64
}

// Replay streams every record, oldest first, into fn. Payload bytes
// alias the read buffer — valid only during the callback. Replay
// runs concurrently with appends: it sees everything appended (and
// flushed) before the call. A sealed segment compacted away mid-read
// is skipped — its records were checkpoint-covered by definition.
func (l *Log) Replay(fn func(Record) error) error {
	return l.replay("", -1<<62, fn)
}

// ReplayStream is Replay filtered to one stream's records with
// seq > afterSeq; segments whose index shows nothing newer for the
// stream are skipped without being read.
func (l *Log) ReplayStream(stream string, afterSeq int64, fn func(Record) error) error {
	return l.replay(stream, afterSeq, fn)
}

func (l *Log) replay(stream string, afterSeq int64, fn func(Record) error) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return errClosed
	}
	if err := l.flushLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	want := func(seg *segment) bool {
		if stream == "" {
			return seg.records > 0
		}
		r, ok := seg.streams[stream]
		return ok && r.max > afterSeq
	}
	var spans []replaySpan
	for _, seg := range l.sealed {
		if want(seg) {
			spans = append(spans, replaySpan{seg.path, seg.size})
		}
	}
	if want(l.active) {
		spans = append(spans, replaySpan{l.active.path, l.active.size})
	}
	l.mu.Unlock()

	var names streamNames
	var sr segReader
	for _, sp := range spans {
		if err := l.replaySpan(&sr, sp, stream, afterSeq, &names, fn); err != nil {
			return err
		}
	}
	return nil
}

// replaySpan replays the records of one segment file (its first
// sp.limit bytes) through the window.
func (l *Log) replaySpan(sr *segReader, sp replaySpan, stream string, afterSeq int64, names *streamNames, fn func(Record) error) error {
	file, err := os.Open(sp.path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil // compacted under us: covered records
		}
		return err
	}
	defer file.Close()
	sr.reset(file, sp.limit)
	defer func() { l.readBytes.Add(sr.read) }()
	if err := sr.fill(headerSize); err != nil {
		return err
	}
	sr.r += headerSize
	sr.off = headerSize
	f := &sr.fr
	for {
		off, bad, err := sr.next()
		switch {
		case err != nil:
			return err
		case bad != "":
			// Only pre-validated bytes are read; reaching this means the
			// file changed underneath us.
			return fmt.Errorf("wal: replay %s at %d: %s", sp.path, off, bad)
		case sr.off == off:
			return nil
		}
		name := stream
		if stream == "" {
			name = names.ents[names.of(f.stream)].name
		} else if string(f.stream) != stream || f.Seq <= afterSeq {
			continue
		}
		if err := fn(Record{LSN: f.LSN, Off: off, Seq: f.Seq, Stream: name, Payload: f.Payload}); err != nil {
			return err
		}
	}
}

// ReadAt reads back the one record at p, a position Append returned or
// a Record carried, without scanning its segment. The payload is the
// caller's to keep. A position whose segment compaction has removed
// reports ErrNotRetained.
func (l *Log) ReadAt(p Pos) (Record, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return Record{}, errClosed
	}
	path := ""
	if p.LSN >= l.active.firstLSN {
		if err := l.flushLocked(); err != nil {
			l.mu.Unlock()
			return Record{}, err
		}
		path = l.active.path
	}
	for _, seg := range l.sealed {
		if seg.firstLSN <= p.LSN && p.LSN <= seg.lastLSN {
			path = seg.path
		}
	}
	l.mu.Unlock()
	if path == "" {
		return Record{}, fmt.Errorf("%w: lsn %d", ErrNotRetained, p.LSN)
	}
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return Record{}, fmt.Errorf("%w: lsn %d", ErrNotRetained, p.LSN)
	} else if err != nil {
		return Record{}, err
	}
	defer f.Close()
	var hdr [8]byte
	if _, err := f.ReadAt(hdr[:], p.Off); err != nil {
		return Record{}, fmt.Errorf("wal: no record at lsn %d offset %d of %s: %w", p.LSN, p.Off, path, err)
	}
	buf := make([]byte, 8+min(binary.LittleEndian.Uint32(hdr[:]), maxFrame))
	n, err := f.ReadAt(buf, p.Off)
	l.readBytes.Add(int64(n))
	var fr frame
	_, bad := parseFrame(&fr, buf[:n])
	if bad == "" && fr.LSN != p.LSN {
		bad = fmt.Sprintf("lsn %d", fr.LSN)
	}
	if bad != "" {
		return Record{}, fmt.Errorf("wal: no record at lsn %d offset %d of %s: %s (%v)", p.LSN, p.Off, path, bad, err)
	}
	return Record{LSN: fr.LSN, Off: p.Off, Seq: fr.Seq, Stream: string(fr.stream), Payload: fr.Payload}, nil
}

// Stats snapshots the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Segments:  len(l.sealed) + 1,
		Bytes:     l.bytes,
		Appends:   l.appends,
		Fsyncs:    l.fsyncs,
		ReadBytes: l.readBytes.Load(),
	}
}

// Close flushes (and, unless SyncOff, fsyncs) and closes the log.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	var err error
	if l.opts.Policy == SyncOff {
		err = l.flushLocked()
	} else {
		err = l.syncLocked()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.closed = true
	return err
}

// syncDir fsyncs a directory, making renames/creates/removes in it
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
