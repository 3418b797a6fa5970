package client

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"

	"repro/api"
)

// Session is the typed handle of one named cluster session. Methods
// mirror the session-scoped routes one to one, taking and returning
// api-package types; the handle itself is stateless (safe for
// concurrent use — the server serializes per-session operations).
// Hot-path op routes are precomputed at construction so steady-state
// calls never rebuild (or re-escape) path strings.
type Session struct {
	c    *Client
	name string
	// fast is the client's in-process handler when the session's paths
	// can take that route (an escaped name cannot), nil otherwise.
	fast http.Handler

	pathSelf     string // GET state / DELETE
	pathAdmit    string
	pathTry      string
	pathCommit   string
	pathRollback string
	pathRemove   string
	pathStats    string
}

func newSession(c *Client, name string) *Session {
	s := &Session{
		c:            c,
		name:         name,
		pathSelf:     api.SessionPath(name),
		pathAdmit:    api.SessionOpPath(name, api.OpAdmit),
		pathTry:      api.SessionOpPath(name, api.OpTry),
		pathCommit:   api.SessionOpPath(name, api.OpCommit),
		pathRollback: api.SessionOpPath(name, api.OpRollback),
		pathRemove:   api.SessionOpPath(name, api.OpRemove),
		pathStats:    api.SessionOpPath(name, api.OpStats),
	}
	if !strings.ContainsAny(s.pathSelf, "%?#") {
		s.fast = c.fast
	}
	return s
}

// Name is the session's wire name.
func (s *Session) Name() string { return s.name }

func (s *Session) post(ctx context.Context, op string, in, out any) error {
	return s.c.do(ctx, s.fast, http.MethodPost, api.SessionOpPath(s.name, op), in, out)
}

// Admit probes and, on a fitting verdict, commits the task —
// first-fit over all cores when req.Core is nil. req.Hold is invalid
// here (admit commits immediately).
func (s *Session) Admit(ctx context.Context, req api.AdmitRequest) (api.Verdict, error) {
	return s.c.postVerdict(ctx, s.fast, s.pathAdmit, &req)
}

// Try answers the admission question without changing committed
// state — unless req.Hold keeps the probe pending for an explicit
// Commit or Rollback (the two-phase protocol).
func (s *Session) Try(ctx context.Context, req api.AdmitRequest) (api.Verdict, error) {
	return s.c.postVerdict(ctx, s.fast, s.pathTry, &req)
}

// Split probes (req.Hold) or admits a split task across its parts'
// cores.
func (s *Session) Split(ctx context.Context, req api.SplitRequest) (api.Verdict, error) {
	var v api.Verdict
	err := s.post(ctx, api.OpSplit, req, &v)
	return v, err
}

// Commit admits the held probe's task. Only an admitted probe may be
// committed (api.CodeProbeRejected otherwise).
func (s *Session) Commit(ctx context.Context) (api.Verdict, error) {
	return s.c.postVerdict(ctx, s.fast, s.pathCommit, nil)
}

// Rollback drops the held probe.
func (s *Session) Rollback(ctx context.Context) (api.Verdict, error) {
	return s.c.postVerdict(ctx, s.fast, s.pathRollback, nil)
}

// Remove deletes an admitted task by ID — the analysis layer's
// removal-invalidation path.
func (s *Session) Remove(ctx context.Context, id int64) (api.Removed, error) {
	return s.c.postRemove(ctx, s.fast, s.pathRemove, id)
}

// State reads the committed assignment and its schedulability.
func (s *Session) State(ctx context.Context) (api.State, error) {
	var out api.State
	err := s.StateInto(ctx, &out)
	return out, err
}

// StateInto is State decoding into caller-owned storage: slices and
// the Schedulable backing are reused across calls, so a polling
// reader holding one scratch State allocates only on growth.
func (s *Session) StateInto(ctx context.Context, out *api.State) error {
	ctx, cancel := s.c.withDeadline(ctx)
	defer cancel()
	os := opPool.Get().(*opScratch)
	defer opPool.Put(os)
	status, body, err := s.c.doRaw(ctx, os, s.fast, http.MethodGet, s.pathSelf, nil)
	if err != nil {
		return err
	}
	if status >= http.StatusBadRequest {
		return api.DecodeError(status, body)
	}
	if api.ParseState(body, out) {
		return nil
	}
	// The fast parser may leave partial results behind; reset before
	// handing the body to encoding/json.
	*out = api.State{}
	return json.Unmarshal(body, out)
}

// Stats reads the session's request and admission counters.
func (s *Session) Stats(ctx context.Context) (api.SessionStats, error) {
	ctx, cancel := s.c.withDeadline(ctx)
	defer cancel()
	os := opPool.Get().(*opScratch)
	defer opPool.Put(os)
	var out api.SessionStats
	status, body, err := s.c.doRaw(ctx, os, s.fast, http.MethodGet, s.pathStats, nil)
	if err != nil {
		return out, err
	}
	if status >= http.StatusBadRequest {
		return out, api.DecodeError(status, body)
	}
	if api.ParseSessionStats(body, &out) {
		return out, nil
	}
	out = api.SessionStats{}
	return out, json.Unmarshal(body, &out)
}

// Delete closes and forgets the session (snapshot included).
func (s *Session) Delete(ctx context.Context) error {
	var out api.SessionDeleted
	return s.c.do(ctx, s.fast, http.MethodDelete, s.pathSelf, nil, &out)
}

// Batch admits a whole task set task by task, returning the NDJSON
// verdict stream as an iterator. Canceling ctx aborts the remainder
// server-side.
func (s *Session) Batch(ctx context.Context, req api.BatchRequest) (*BatchStream, error) {
	body, done, err := s.c.stream(ctx, api.SessionOpPath(s.name, api.OpBatch), req)
	if err != nil {
		return nil, err
	}
	return newBatchStream(body, done), nil
}
