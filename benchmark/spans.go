package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// Span names. Spans are recorded from this package only, around the
// calls into each layer; nothing inside the program under test knows
// about them.
const (
	spanClientCall = iota
	spanRoundTrip
	spanHandler
	spanSet
	spanTaskgen
	spanPartition // + algorithm index
)

// span is one timed interval: name, the span that caused it, start
// and end in nanoseconds since the recorder's epoch. A span's id is
// its slot index plus one; parent 0 marks a root.
type span struct {
	name       int32
	parent     int32
	start, end int64
	class      int8 // op kind of the request, -1 when the span does not know it
}

// recorder keeps spans in memory preallocated before the traced pass
// and writes them out once the run has ended. begin/end are safe from
// any goroutine: a slot is claimed with one atomic add and then only
// touched by its owner.
type recorder struct {
	epoch   time.Time
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64
	names   []string
}

func newRecorder(capacity int, names []string) *recorder {
	r := &recorder{epoch: time.Now(), spans: make([]span, capacity), names: names}
	// Touch every page now: a fresh slice is mapped lazily, and the
	// first write to each page would otherwise fault inside a span.
	for i := 0; i < capacity; i += 64 {
		r.spans[i].class = -1
	}
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span and returns its id (0 when the buffer is full;
// end(0) is a no-op, and the drop is counted).
func (r *recorder) begin(name int, parent int32, class int8) int32 {
	i := r.next.Add(1) - 1
	if i >= int64(len(r.spans)) {
		r.dropped.Add(1)
		return 0
	}
	r.spans[i] = span{name: int32(name), parent: parent, class: class, start: r.now()}
	return int32(i + 1)
}

func (r *recorder) end(id int32) {
	if id > 0 {
		r.spans[id-1].end = r.now()
	}
}

// recorded returns the filled prefix of the buffer.
func (r *recorder) recorded() []span {
	n := r.next.Load()
	if n > int64(len(r.spans)) {
		n = int64(len(r.spans))
	}
	return r.spans[:n]
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover (children are clipped to the
// parent and overlapping children are counted once).
func selfTimes(spans []span) []int64 {
	type iv struct{ lo, hi int64 }
	kids := make(map[int32][]iv)
	for _, s := range spans {
		if s.parent > 0 && s.end > s.start {
			kids[s.parent] = append(kids[s.parent], iv{s.start, s.end})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		d := s.end - s.start
		if d < 0 {
			d = 0
		}
		ks := kids[int32(i+1)]
		sort.Slice(ks, func(a, b int) bool { return ks[a].lo < ks[b].lo })
		var covered, reach int64 = 0, s.start
		for _, k := range ks {
			lo, hi := k.lo, k.hi
			if lo < reach {
				lo = reach
			}
			if hi > s.end {
				hi = s.end
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = d - covered
	}
	return self
}

// writeJSONL writes one {name,id,parent,start_ns,end_ns} object per
// line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for i, s := range r.recorded() {
		fmt.Fprintf(w, "{\"name\":%q,\"id\":%d,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d}\n",
			r.names[s.name], i+1, s.parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close() //nolint:errcheck // already failing
		return fmt.Errorf("trace: writing %s: %w", path, err)
	}
	return f.Close()
}
