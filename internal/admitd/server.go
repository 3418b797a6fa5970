package admitd

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"repro/api"
	"repro/internal/overhead"
	"repro/internal/task"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// Config parameterizes a Server.
type Config struct {
	// MaxSessions caps live sessions (LRU eviction beyond it); 0
	// means 1024.
	MaxSessions int
	// DataDir, when set, turns on the durability plane: every
	// committed session mutation is appended to a per-shard commit
	// log under DataDir/wal, checkpoints are records in the same log,
	// and restart replays acked writes back. Evicted sessions, and
	// everything live on Close, park in their checkpoints. Without it
	// nothing persists: an evicted session is gone.
	DataDir string
	// Fsync picks the commit-log sync policy: "group" (default: ack
	// at apply, background fsync each interval), "always" (fsync
	// covers every ack), or "off" (OS-cached).
	Fsync string
	// FsyncInterval is the group policy's background commit cadence
	// and therefore its crash loss window (0 or negative means 5ms).
	FsyncInterval time.Duration
	// CheckpointEvery is the snapshot-compaction period (0 means 30s,
	// negative disables the driver; Store.Checkpoint still works).
	CheckpointEvery time.Duration
	// Trace, when set, mints a trace ID for every request that did
	// not supply one via the Admitd-Trace-Id header. IDs supplied by
	// clients are always echoed on the response; generation is
	// opt-in because it costs two allocations per request, which the
	// default configuration keeps off the measured handler path.
	Trace bool
	// EventLog, when non-nil, receives one structured event per
	// request ("request": route, trace ID, latency), built by
	// telemetry.NewEventLog. Nil disables logging at the cost of one
	// branch per request.
	EventLog *slog.Logger
}

// Server is the admission-control transport: a thin HTTP layer that
// decodes api-package requests, runs them against the session Store,
// and encodes api-package responses. All wire types and error codes
// live in the api package; nothing here defines schema.
//
//	POST   /v1/sessions                    create a session
//	GET    /v1/sessions                    list live sessions
//	GET    /v1/sessions/{name}             committed state + schedulability
//	DELETE /v1/sessions/{name}             close and forget
//	POST   /v1/sessions/{name}/admit       probe + commit (first-fit or explicit core)
//	POST   /v1/sessions/{name}/try         probe only; "hold":true keeps it pending
//	POST   /v1/sessions/{name}/split       probe/admit a split task
//	POST   /v1/sessions/{name}/commit      keep the held probe
//	POST   /v1/sessions/{name}/rollback    drop the held probe
//	POST   /v1/sessions/{name}/remove      remove an admitted task
//	GET    /v1/sessions/{name}/stats       per-session admission stats
//	POST   /v1/sessions/{name}/batch       admit a whole set, streaming NDJSON verdicts
//	GET    /v1/stats                       server-wide counters
//	GET    /healthz                        liveness
type Server struct {
	store *Store
	mux   *http.ServeMux

	met   *serverMetrics
	elog  *slog.Logger
	trace bool

	requests atomic.Int64
}

// New builds a Server (and opens its data directory, when configured).
func New(cfg Config) (*Server, error) {
	policy, err := wal.ParseSyncPolicy(cfg.Fsync)
	if err != nil {
		return nil, err
	}
	store, err := NewStore(StoreConfig{
		MaxSessions:     cfg.MaxSessions,
		DataDir:         cfg.DataDir,
		Fsync:           policy,
		FsyncInterval:   cfg.FsyncInterval,
		CheckpointEvery: cfg.CheckpointEvery,
	})
	if err != nil {
		return nil, err
	}
	s := &Server{store: store, mux: http.NewServeMux(), elog: cfg.EventLog, trace: cfg.Trace}
	s.met = newServerMetrics(store)
	store.met = s.met
	s.handle("POST "+api.PathSessions, "create", classActor, s.handleCreate)
	s.handle("GET "+api.PathSessions, "list", classRead, s.handleList)
	s.handle("GET "+api.PathSessions+"/{name}", "state", classRead, s.handleState)
	s.handle("DELETE "+api.PathSessions+"/{name}", "delete", classActor, s.handleDelete)
	op := func(name string) string { return "POST " + api.PathSessions + "/{name}/" + name }
	s.handle(op(api.OpAdmit), api.OpAdmit, classActor, s.sessionVerdict(func(sess *Session, req api.AdmitRequest) (api.Verdict, error) {
		if req.Hold {
			return api.Verdict{}, fmt.Errorf("hold is only valid on try (admit commits immediately)")
		}
		return sess.admitLocked(req)
	}))
	s.handle(op(api.OpTry), api.OpTry, classRead, s.handleTry)
	s.handle(op(api.OpSplit), api.OpSplit, classActor, s.handleSplit)
	s.handle(op(api.OpCommit), api.OpCommit, classActor, s.handleResolve((*Session).commitLocked))
	s.handle(op(api.OpRollback), api.OpRollback, classActor, s.handleResolve((*Session).rollbackLocked))
	s.handle(op(api.OpRemove), api.OpRemove, classActor, s.handleRemove)
	s.handle("GET "+api.PathSessions+"/{name}/"+api.OpStats, "session_stats", classRead, s.handleSessionStats)
	s.handle(op(api.OpBatch), api.OpBatch, classActor, s.handleBatch)
	s.handle("GET "+api.PathSessions+"/{name}/"+api.OpAudit, api.OpAudit, classRead, s.handleAudit)
	s.handle("GET "+api.PathStats, "stats", classRead, s.handleStats)
	s.handle("GET "+api.PathHealth, "health", classRead, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, api.Health{Status: "ok"})
	})
	s.handle("GET "+api.PathMetrics, "metrics", classScrape, s.met.reg.ServeHTTP)
	return s, nil
}

// Path classes split the request latency histogram the way the
// architecture splits request handling: classRead is the lock-free
// snapshot path, classActor the serialized write path. The classScrape
// route (/metrics) is counted but excluded from the latency
// histograms: a scrape reads them, it is not admission work.
const (
	classRead = iota
	classActor
	classScrape
)

// handle registers one instrumented route: per-route request
// counter, path-class latency histogram, in-flight gauge, and the
// optional per-request event. The instruments are plain atomics —
// the wrapper adds no allocation to the handler path.
func (s *Server) handle(pattern, route string, class int, h http.HandlerFunc) {
	count := s.met.routeCounter(route)
	var lat *telemetry.Histogram
	switch class {
	case classRead:
		lat = s.met.latRead
	case classActor:
		lat = s.met.latActor
	}
	m := s.met
	elog := s.elog
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		m.inflight.Inc()
		start := time.Now()
		h(w, r)
		d := time.Since(start)
		if lat != nil {
			lat.Observe(d)
		}
		count.Inc()
		m.inflight.Dec()
		if elog != nil {
			elog.LogAttrs(r.Context(), slog.LevelInfo, "request",
				slog.String("route", route),
				slog.String("trace", r.Header.Get(api.TraceHeader)),
				slog.Int64("latency_us", d.Microseconds()))
		}
	})
}

// Metrics exposes the server's telemetry registry so embedders can
// mount the exposition elsewhere (the -pprof side listener does).
func (s *Server) Metrics() *telemetry.Registry { return s.met.reg }

// ServeHTTP implements http.Handler. Every response is stamped with
// the schema version so clients can detect what they talk to.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	w.Header().Set(api.VersionHeader, api.Version)
	// Trace correlation: a valid client-supplied ID is echoed (and
	// visible to the event log downstream); with Config.Trace set,
	// requests without one get a generated ID. The no-ID, no-Trace
	// path touches nothing — zero allocations.
	if id := r.Header.Get(api.TraceHeader); id != "" {
		if telemetry.ValidTraceID(id) {
			w.Header().Set(api.TraceHeader, id)
		} else {
			r.Header.Del(api.TraceHeader) // never log or echo garbage
		}
	} else if s.trace {
		id = telemetry.NewTraceID()
		r.Header.Set(api.TraceHeader, id)
		w.Header().Set(api.TraceHeader, id)
	}
	s.mux.ServeHTTP(w, r)
}

// Close checkpoints every live session (when durable) and stops the actors (graceful
// shutdown; call after the HTTP listener has drained).
func (s *Server) Close() {
	s.store.Close()
}

// Store exposes the session registry (tests, embedders).
func (s *Server) Store() *Store { return s.store }

// --- helpers ---------------------------------------------------------

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

// writeError renders the uniform error envelope with the status
// derived from its code.
func writeError(w http.ResponseWriter, err error) {
	ae := toAPIError(err)
	writeJSON(w, ae.HTTPStatus(), ae)
}

// decodeBody decodes a request body. Unknown fields are ignored —
// the schema's forward-compatibility rule: a newer client may send
// fields this server does not know yet. The body is bounded like the
// fast path's (maxBodyBytes).
func decodeBody(r *http.Request, v any) error {
	if err := json.NewDecoder(&boundedBody{r: r.Body, left: maxBodyBytes + 1}).Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// parseModel resolves the wire model: absent → paper, "paper"/"zero"
// by name, anything else an inline model object.
func parseModel(raw json.RawMessage) (*overhead.Model, error) {
	if len(raw) == 0 {
		return overhead.PaperModel(), nil
	}
	var name string
	if err := json.Unmarshal(raw, &name); err == nil {
		switch name {
		case "", "paper":
			return overhead.PaperModel(), nil
		case "zero":
			return overhead.Zero(), nil
		default:
			return nil, fmt.Errorf("unknown model %q (paper|zero|inline object)", name)
		}
	}
	m := &overhead.Model{}
	if err := json.Unmarshal(raw, m); err != nil {
		return nil, fmt.Errorf("bad inline model: %w", err)
	}
	return m, nil
}

// session resolves the path's session and stamps its LRU position.
func (s *Server) session(w http.ResponseWriter, r *http.Request) *Session {
	sess, err := s.store.Get(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return nil
	}
	return sess
}

// callSession runs f on the session's actor, mapping a closed session
// to its status code.
func callSession(w http.ResponseWriter, sess *Session, f func()) bool {
	if err := sess.call(f); err != nil {
		writeError(w, err)
		return false
	}
	return true
}

// --- session lifecycle -----------------------------------------------

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req api.CreateSessionRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	p, err := parsePolicy(req.Policy)
	if err != nil {
		writeError(w, err)
		return
	}
	model, err := parseModel(req.Model)
	if err != nil {
		writeError(w, err)
		return
	}
	if _, err := s.store.Create(req.Name, req.Cores, p, model); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, api.SessionCreated{
		Name: req.Name, Cores: req.Cores, Policy: policyName(p), Version: api.Version,
	})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	var names []string
	s.store.Range(func(sess *Session) { names = append(names, sess.name) })
	sort.Strings(names)
	writeJSON(w, http.StatusOK, api.SessionList{Sessions: names, Count: len(names)})
}

// handleState serves committed state from the published snapshot —
// the lock-free read path; it never enters the session actor.
func (s *Server) handleState(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r)
	if sess == nil {
		return
	}
	body, err := sess.stateReadBytes()
	if err != nil {
		writeError(w, err)
		return
	}
	writeRaw(w, body)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.store.Delete(r.PathValue("name")); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, api.SessionDeleted{Deleted: true})
}

// --- admission -------------------------------------------------------

// sessionVerdict adapts a session operation taking an AdmitRequest.
// The wire round trip runs on pooled scratch: fast decode into a
// stack request (core backing included), fast verdict encode out.
func (s *Server) sessionVerdict(op func(*Session, api.AdmitRequest) (api.Verdict, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sess := s.session(w, r)
		if sess == nil {
			return
		}
		ws := wirePool.Get().(*wireScratch)
		defer wirePool.Put(ws)
		body, err := ws.readBody(r)
		if err != nil {
			writeError(w, err)
			return
		}
		var req api.AdmitRequest
		core, corePresent, err := decodeAdmit(body, &req)
		if err != nil {
			writeError(w, err)
			return
		}
		if corePresent {
			req.Core = &core
		}
		var resp api.Verdict
		var opErr error
		if !callSession(w, sess, func() { resp, opErr = op(sess, req) }) {
			return
		}
		if opErr != nil {
			writeError(w, opErr)
			return
		}
		ws.writeVerdict(w, &resp)
	}
}

// handleTry routes admission queries: a non-holding try is a pure
// read, served concurrently from the published snapshot without
// entering the actor (a held probe elsewhere does not block it); a
// holding try probes the writer context and records the hold on the
// actor.
func (s *Server) handleTry(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r)
	if sess == nil {
		return
	}
	ws := wirePool.Get().(*wireScratch)
	defer wirePool.Put(ws)
	body, err := ws.readBody(r)
	if err != nil {
		writeError(w, err)
		return
	}
	var req api.AdmitRequest
	core, corePresent, err := decodeAdmit(body, &req)
	if err != nil {
		writeError(w, err)
		return
	}
	if req.Hold {
		// The actor closure captures its arguments; keeping the hold
		// branch in a separate function (which attaches its own core
		// backing) keeps this frame's request and core off the heap on
		// the lock-free non-holding path.
		s.tryHold(w, ws, sess, req, core, corePresent)
		return
	}
	if corePresent {
		req.Core = &core
	}
	resp, opErr := sess.tryRead(req)
	if opErr != nil {
		writeError(w, opErr)
		return
	}
	ws.writeVerdict(w, &resp)
}

// tryHold serves the holding try on the session actor.
func (s *Server) tryHold(w http.ResponseWriter, ws *wireScratch, sess *Session, req api.AdmitRequest, core int, corePresent bool) {
	if corePresent {
		req.Core = &core
	}
	var resp api.Verdict
	var opErr error
	if !callSession(w, sess, func() { resp, opErr = sess.holdLocked(req) }) {
		return
	}
	if opErr != nil {
		writeError(w, opErr)
		return
	}
	ws.writeVerdict(w, &resp)
}

func (s *Server) handleSplit(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r)
	if sess == nil {
		return
	}
	var req api.SplitRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	var resp api.Verdict
	var opErr error
	if !callSession(w, sess, func() { resp, opErr = sess.splitLocked(req) }) {
		return
	}
	if opErr != nil {
		writeError(w, opErr)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleResolve adapts commit/rollback.
func (s *Server) handleResolve(op func(*Session) (api.Verdict, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sess := s.session(w, r)
		if sess == nil {
			return
		}
		var resp api.Verdict
		var opErr error
		if !callSession(w, sess, func() { resp, opErr = op(sess) }) {
			return
		}
		if opErr != nil {
			writeError(w, opErr)
			return
		}
		ws := wirePool.Get().(*wireScratch)
		ws.writeVerdict(w, &resp)
		wirePool.Put(ws)
	}
}

func (s *Server) handleRemove(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r)
	if sess == nil {
		return
	}
	ws := wirePool.Get().(*wireScratch)
	defer wirePool.Put(ws)
	body, err := ws.readBody(r)
	if err != nil {
		writeError(w, err)
		return
	}
	var req api.RemoveRequest
	if err := decodeRemove(body, &req); err != nil {
		writeError(w, err)
		return
	}
	var opErr error
	if !callSession(w, sess, func() { opErr = sess.removeLocked(task.ID(req.ID)) }) {
		return
	}
	if opErr != nil {
		writeError(w, opErr)
		return
	}
	ws.writeRemoved(w, &api.Removed{Removed: true, ID: req.ID})
}

// --- stats -----------------------------------------------------------

// handleSessionStats serves session counters lock-free: every field
// is an atomic, the republished writer-side counters, or the read
// path's own collector — no actor round trip.
func (s *Server) handleSessionStats(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r)
	if sess == nil {
		return
	}
	admission, err := sess.statsRead()
	if err != nil {
		writeError(w, err)
		return
	}
	st := api.SessionStats{
		Name:             sess.name,
		Tasks:            int(sess.nTasks.Load()),
		Admitted:         sess.admitted.Load(),
		Rejected:         sess.rejected.Load(),
		Removed:          sess.removed.Load(),
		StateCacheHits:   sess.stateHits.Load(),
		StateCacheMisses: sess.stateMisses.Load(),
		Admission:        admission.Wire(),
	}
	ws := wirePool.Get().(*wireScratch)
	defer wirePool.Put(ws)
	if b, ok := api.AppendSessionStats(ws.out[:0], &st); ok {
		ws.out = append(b, '\n')
		writeRaw(w, ws.out)
		return
	}
	cold := st // keep st off the heap on the fast path; writeJSON boxes
	writeJSON(w, http.StatusOK, cold)
}

// handleAudit replays the commit log: rebuild the session's state as
// of just before durable sequence seq, re-run that mutation's probe
// with the collector on, and report what the analysis concluded.
func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	raw := r.URL.Query().Get(api.AuditSeqParam)
	seq, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		writeError(w, fmt.Errorf("audit: bad %s %q: want a positive integer", api.AuditSeqParam, raw))
		return
	}
	rep, err := s.store.Audit(r.PathValue("name"), seq)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.store
	writeJSON(w, http.StatusOK, api.ServerStats{
		Requests:         s.requests.Load(),
		SessionsLive:     st.count.Load(),
		SessionsCreated:  st.created.Load(),
		SessionsEvicted:  st.evicted.Load(),
		SessionsRestored: st.restored.Load(),
		SessionsDeleted:  st.deleted.Load(),
		// Admission totals flushed by closed/evicted sessions; live
		// session detail is at /v1/sessions/{name}/stats.
		AdmissionFlushed: st.coll.Snapshot().Wire(),
	})
}

// --- batch -----------------------------------------------------------

// handleBatch admits a whole set through the session's live context,
// streaming one NDJSON verdict per task and a final summary line. The
// request context cancels the remainder (client disconnect).
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r)
	if sess == nil {
		return
	}
	var req api.BatchRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	streaming := false
	// Verdict lines stream through one reused buffer — the fast
	// encoder never declines a Verdict, so bytes stay identical to
	// enc.Encode while the per-line Encoder round trip disappears.
	ws := wirePool.Get().(*wireScratch)
	defer wirePool.Put(ws)
	emit := func(v api.Verdict) {
		streaming = true
		ws.out = api.AppendVerdict(ws.out[:0], &v)
		ws.out = append(ws.out, '\n')
		_, _ = w.Write(ws.out) //nolint:errcheck // stream best-effort; summary still lands
		if flusher != nil {
			flusher.Flush()
		}
	}
	var sum api.BatchSummary
	var opErr error
	if req.TryOnly {
		// Read path: probes run in order against one snapshot;
		// nothing enters the actor, nothing commits.
		sum, opErr = sess.batchTryRead(r.Context(), req, emit)
	} else if !callSession(w, sess, func() {
		sum, opErr = sess.batchLocked(r.Context(), req, emit)
	}) {
		return
	}
	if opErr != nil {
		if !streaming {
			// Nothing emitted yet (a pre-flight rejection such as
			// probe_pending): the envelope can carry its real status.
			writeError(w, opErr)
			return
		}
		// Mid-stream failure: headers are sent; deliver the error
		// envelope as the final NDJSON line.
		_ = enc.Encode(toAPIError(opErr)) //nolint:errcheck
		return
	}
	_ = enc.Encode(sum) //nolint:errcheck
}
