package admitd

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/api"
	"repro/internal/task"
	"repro/internal/wal"
)

// The SSE change feed is the daemon's first push surface: every
// committed mutation — and only committed ones — becomes one event
// carrying the snapshot sequence number that mutation published, so
// a subscriber can mirror session state with the same linearizable
// contract the read path gives. Events are staged on the actor
// during a drain and flushed after the drain's snapshot publish
// (Session.feedFlush from the actor loop): a subscriber never
// observes a sequence number before the snapshot carrying it is
// readable, and within one subscription sequence numbers are
// strictly increasing with no committed mutation skipped.
//
// Slow-consumer policy: every subscriber owns a bounded buffer
// (feedSubBuffer events). The actor never blocks on a subscriber —
// when a buffer is full the subscription is dropped: removed from
// the hub and its channel closed, which the handler reports to the
// client as a terminal "dropped" event. Reconnecting re-syncs via
// the hello event's sequence number and a state read.

// feedOp tags a change event.
type feedOp uint8

const (
	feedAdmit feedOp = iota
	feedSplit
	feedRemove
)

func (op feedOp) String() string {
	switch op {
	case feedSplit:
		return "split"
	case feedRemove:
		return "remove"
	default:
		return "admit"
	}
}

// feedEvent is one committed mutation, stamped with the sequence
// number its snapshot published.
type feedEvent struct {
	seq   int64
	task  int64
	core  int32 // -1 for splits and removes
	tasks int32 // committed task count after the mutation
	op    feedOp
}

// feedSubBuffer bounds one subscriber's event backlog; a feed that
// falls this far behind is dropped rather than ever back-pressuring
// the actor.
const feedSubBuffer = 256

// feedSub is one subscription: a buffered channel the actor sends
// into and the handler drains. after filters events already covered
// by the subscriber's hello sequence number.
type feedSub struct {
	ch    chan feedEvent
	after int64
}

// feedHub fans events out to a session's subscribers. The mutex
// guards the subscriber set only; it is taken once per drain that
// produced events (by the commit handoff for durable sessions, by the
// actor otherwise), and by subscribe/unsubscribe.
type feedHub struct {
	mu   sync.Mutex
	subs map[*feedSub]struct{}
}

// publish fans one drain's events out, applying the drop policy.
// Runs on the commit-handoff goroutine for durable sessions (in drain
// order — handoffs chain), on the actor otherwise.
func (h *feedHub) publish(events []feedEvent, m *serverMetrics) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for sub := range h.subs {
		if !sub.send(events) {
			// Buffer full: drop the subscription, never the actor's
			// latency. Closing the channel is the terminal signal
			// the handler relays as a "dropped" event.
			delete(h.subs, sub)
			close(sub.ch)
			if m != nil {
				m.feedDropped.Inc()
			}
		}
	}
}

// send enqueues the events newer than the subscription anchor,
// reporting false on overflow.
func (sub *feedSub) send(events []feedEvent) bool {
	for _, ev := range events {
		if ev.seq <= sub.after {
			continue
		}
		select {
		case sub.ch <- ev:
		default:
			return false
		}
	}
	return true
}

// feedNote stages one committed admission (whole task or split) for
// the drain's flush. Actor-only; a single nil check when no
// subscriber ever attached.
func (s *Session) feedNote(t *task.Task, sp *task.Split, core int) {
	if s.feed.Load() == nil {
		return
	}
	ev := feedEvent{seq: s.durableSeq(), tasks: int32(s.nTasks.Load()), core: int32(core)}
	if sp != nil {
		ev.op = feedSplit
		ev.task = int64(sp.Task.ID)
		ev.core = -1
	} else {
		ev.task = int64(t.ID)
	}
	s.feedPend = append(s.feedPend, ev)
}

// feedNoteRemove stages one committed removal. Actor-only.
func (s *Session) feedNoteRemove(id task.ID) {
	if s.feed.Load() == nil {
		return
	}
	s.feedPend = append(s.feedPend, feedEvent{
		seq: s.durableSeq(), op: feedRemove,
		task: int64(id), core: -1, tasks: int32(s.nTasks.Load()),
	})
}

// feedFlush hands the drain's staged events to the hub. Runs on the
// actor, after the drain's snapshot publish.
func (s *Session) feedFlush() {
	if len(s.feedPend) == 0 {
		return
	}
	if h := s.feed.Load(); h != nil {
		h.publish(s.feedPend, s.met)
		if m := s.met; m != nil {
			m.feedEvents.Add(int64(len(s.feedPend)))
		}
	}
	s.feedPend = s.feedPend[:0]
}

// feedSubscribe attaches a subscriber through the actor: the hub
// attach and the sequence-number capture are atomic with respect to
// mutations, so the stream is gapless from the returned sequence on.
func (s *Session) feedSubscribe() (*feedSub, int64, error) {
	sub := &feedSub{ch: make(chan feedEvent, feedSubBuffer)}
	err := s.call(func() {
		h := s.feed.Load()
		if h == nil {
			h = &feedHub{subs: make(map[*feedSub]struct{})}
			s.feed.Store(h)
		}
		// The anchor capture runs on the actor (atomic with respect to
		// mutations); the attach locks the hub because publishes run on
		// commit-handoff goroutines. A handoff still in flight carries
		// only events at or below the anchor — send filters those.
		h.mu.Lock()
		sub.after = s.durableSeq()
		h.subs[sub] = struct{}{}
		h.mu.Unlock()
	})
	if err != nil {
		return nil, 0, err
	}
	return sub, sub.after, nil
}

// feedReplay synthesizes the change events in (from, to] from the
// session's commit-log stream — every record carries the placement
// and the task count after the mutation, so no state rebuild is
// needed. Sequence numbers are dense, so the range is verified by
// counting: a shortfall means compaction already removed part of it
// (or durability is off), reported as seq_truncated.
func (s *Session) feedReplay(from, to int64) ([]feedEvent, error) {
	if from == to {
		return nil, nil
	}
	if s.wlog == nil {
		return nil, fmt.Errorf("%w: feed resume needs durability (start with -data-dir)", ErrSeqTruncated)
	}
	evs := make([]feedEvent, 0, to-from)
	err := s.wlog.ReplayStream(s.wstream, from, func(r wal.Record) error {
		if r.Seq > to {
			return errWalStop
		}
		rec, derr := walDecode(r.Payload)
		if derr != nil {
			return derr
		}
		ev := feedEvent{seq: r.Seq, tasks: rec.tasks, core: -1}
		switch rec.kind {
		case walKindAdmit:
			ev.op, ev.task, ev.core = feedAdmit, rec.task.ID, rec.core
		case walKindSplit:
			ev.op, ev.task = feedSplit, rec.split.Task.ID
		case walKindRemove:
			ev.op, ev.task = feedRemove, rec.id
		default:
			return nil // create, tombstone and checkpoint records are not feed events
		}
		evs = append(evs, ev)
		return nil
	})
	if err != nil && !errors.Is(err, errWalStop) {
		return nil, err
	}
	if int64(len(evs)) != to-from {
		return nil, fmt.Errorf("%w: events (%d, %d] are no longer fully retained", ErrSeqTruncated, from, to)
	}
	return evs, nil
}

// feedUnsubscribe detaches (client disconnect). Safe against a
// concurrent drop: the hub tolerates removing an absent subscriber.
func (s *Session) feedUnsubscribe(sub *feedSub) {
	h := s.feed.Load()
	if h == nil {
		return
	}
	h.mu.Lock()
	delete(h.subs, sub)
	h.mu.Unlock()
}

// --- HTTP ------------------------------------------------------------

// feedHeartbeat keeps intermediaries from timing out an idle stream.
const feedHeartbeat = 15 * time.Second

// errStreamingUnsupported is returned when the transport cannot
// flush incrementally (no http.Flusher).
var errStreamingUnsupported = fmt.Errorf("admitd: transport does not support streaming")

// handleFeed serves GET /v1/sessions/{name}/feed: an SSE stream of
// committed-mutation events. The hello event carries the sequence
// number the subscription is anchored at; every subsequent change
// event's seq is strictly increasing with no committed mutation
// missing.
//
// With durability on, ?from_seq=N resumes a broken subscription
// gaplessly: the subscription is anchored first (so nothing can slip
// between replay and live), then events (N, anchor] are synthesized
// from the commit log and written ahead of the live stream. The
// replayed range is verified dense by counting — a gap means
// compaction outran the resumer, reported as seq_truncated (410) so
// the client re-syncs via a fresh subscription plus a state read.
func (s *Server) handleFeed(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r)
	if sess == nil {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, errStreamingUnsupported)
		return
	}
	fromSeq := int64(-1)
	if v := r.URL.Query().Get(api.FeedFromSeqParam); v != "" {
		n, perr := strconv.ParseInt(v, 10, 64)
		if perr != nil || n < 0 {
			writeError(w, fmt.Errorf("bad %s %q: want a sequence number >= 0", api.FeedFromSeqParam, v))
			return
		}
		fromSeq = n
	}
	sub, seq, err := sess.feedSubscribe()
	if err != nil {
		writeError(w, err)
		return
	}
	defer sess.feedUnsubscribe(sub)
	var replayed []feedEvent
	if fromSeq >= 0 {
		if fromSeq > seq {
			writeError(w, fmt.Errorf("%s %d is ahead of the session (at seq %d)", api.FeedFromSeqParam, fromSeq, seq))
			return
		}
		if replayed, err = sess.feedReplay(fromSeq, seq); err != nil {
			writeError(w, err)
			return
		}
	}
	s.met.feedSubs.Inc()
	defer s.met.feedSubs.Dec()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	buf := make([]byte, 0, 256)
	buf = append(buf, "event: hello\ndata: "...)
	if fromSeq >= 0 {
		buf = appendFeedHelloResume(buf, sess.name, seq, sess.nTasks.Load(), fromSeq)
	} else {
		buf = appendFeedHello(buf, sess.name, seq, sess.nTasks.Load())
	}
	buf = append(buf, "\n\n"...)
	if _, err := w.Write(buf); err != nil {
		return
	}
	for _, ev := range replayed {
		buf = appendFeedFrame(buf[:0], ev)
		if _, err := w.Write(buf); err != nil {
			return
		}
	}
	flusher.Flush()

	hb := time.NewTicker(feedHeartbeat)
	defer hb.Stop()
	for {
		select {
		case ev, open := <-sub.ch:
			if !open {
				// Dropped by the slow-consumer policy.
				_, _ = w.Write([]byte("event: dropped\ndata: {}\n\n"))
				flusher.Flush()
				return
			}
			buf = appendFeedFrame(buf[:0], ev)
			if _, err := w.Write(buf); err != nil {
				return
			}
			flusher.Flush()
		case <-hb.C:
			if _, err := w.Write([]byte(": hb\n\n")); err != nil {
				return
			}
			flusher.Flush()
		case <-sess.done:
			_, _ = w.Write([]byte("event: closed\ndata: {}\n\n"))
			flusher.Flush()
			return
		case <-r.Context().Done():
			return
		}
	}
}

func appendFeedHello(b []byte, name string, seq, tasks int64) []byte {
	b = append(b, `{"name":`...)
	// Session names on the feed path came through the router; quote
	// defensively anyway.
	b = strconv.AppendQuote(b, name)
	b = append(b, `,"seq":`...)
	b = strconv.AppendInt(b, seq, 10)
	b = append(b, `,"tasks":`...)
	b = strconv.AppendInt(b, tasks, 10)
	return append(b, '}')
}

// appendFeedHelloResume is appendFeedHello plus the resume_from
// field: the client's from_seq, echoed so the subscriber knows the
// replayed range (resume_from, seq] precedes the live stream.
func appendFeedHelloResume(b []byte, name string, seq, tasks, from int64) []byte {
	b = appendFeedHello(b, name, seq, tasks)
	b = b[:len(b)-1] // reopen the object
	b = append(b, `,"resume_from":`...)
	b = strconv.AppendInt(b, from, 10)
	return append(b, '}')
}

// appendFeedFrame renders one change event as a full SSE frame (id,
// event type, data).
func appendFeedFrame(b []byte, ev feedEvent) []byte {
	b = append(b, "id: "...)
	b = strconv.AppendInt(b, ev.seq, 10)
	b = append(b, "\nevent: change\ndata: "...)
	b = appendFeedEvent(b, ev)
	return append(b, "\n\n"...)
}

func appendFeedEvent(b []byte, ev feedEvent) []byte {
	b = append(b, `{"seq":`...)
	b = strconv.AppendInt(b, ev.seq, 10)
	b = append(b, `,"op":"`...)
	b = append(b, ev.op.String()...)
	b = append(b, `","task":`...)
	b = strconv.AppendInt(b, ev.task, 10)
	b = append(b, `,"core":`...)
	b = strconv.AppendInt(b, int64(ev.core), 10)
	b = append(b, `,"tasks":`...)
	b = strconv.AppendInt(b, int64(ev.tasks), 10)
	return append(b, '}')
}
