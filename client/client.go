// Package client is the typed Go SDK for the admission-control
// service: the api package's versioned wire schema behind a handle
// per session, over either a real HTTP connection (New) or an
// in-process dispatch straight into a server's handler mux
// (InProcess) — the identical API at function-call speed, with zero
// sockets, for tests, examples and embedders.
//
// Errors returned by every call are *api.Error whenever the server
// produced an error envelope, so callers branch on machine-readable
// codes (api.IsCode(err, api.CodeDuplicateTask)) rather than on
// strings or statuses.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/api"
)

// doer issues one HTTP request; *http.Client satisfies it.
type doer interface {
	Do(*http.Request) (*http.Response, error)
}

// Client speaks the v1 admission-control schema to one server.
type Client struct {
	baseURL string
	doer    doer
	timeout time.Duration
	retries int
	backoff time.Duration
	hook    func(*http.Request)
	// fast is the handler a request may be served into directly: set
	// for an InProcess client with no request hook, nil otherwise.
	fast http.Handler
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (pooling,
// TLS, proxies).
func WithHTTPClient(h *http.Client) Option { return func(c *Client) { c.doer = h } }

// WithTimeout bounds each request (streaming bodies included): a
// per-call deadline is added whenever the caller's context has none.
func WithTimeout(d time.Duration) Option { return func(c *Client) { c.timeout = d } }

// WithRetry retries idempotent requests (GET, DELETE) up to retries
// extra times on transport errors and 5xx responses, with
// exponential backoff starting at base. Mutating requests are never
// retried — an admit whose response was lost may still have
// committed.
func WithRetry(retries int, base time.Duration) Option {
	return func(c *Client) { c.retries, c.backoff = retries, base }
}

// WithRequestHook runs f on every outgoing request just before it is
// sent — the escape hatch for per-request auth (signed headers,
// rotating tokens).
func WithRequestHook(f func(*http.Request)) Option { return func(c *Client) { c.hook = f } }

// New builds a client for the server at baseURL
// (e.g. "http://host:7007").
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("client: bad base URL %q: %w", baseURL, err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("client: base URL %q needs scheme and host", baseURL)
	}
	c := &Client{
		baseURL: strings.TrimRight(baseURL, "/"),
		doer:    &http.Client{},
		backoff: 100 * time.Millisecond,
	}
	for _, opt := range opts {
		opt(c)
	}
	return c, nil
}

// InProcess builds a client that dispatches every request straight
// into h (an *admitd.Server, or any handler serving the schema) with
// no sockets — byte-identical to the HTTP path, at function-call
// speed.
func InProcess(h http.Handler, opts ...Option) *Client {
	c := &Client{
		baseURL: "http://admitd.inprocess",
		doer:    handlerDoer{h: h},
		backoff: 100 * time.Millisecond,
	}
	for _, opt := range opts {
		opt(c)
	}
	if hd, ok := c.doer.(handlerDoer); ok && c.hook == nil {
		c.fast = hd.h
	}
	return c
}

// handlerDoer adapts an http.Handler into a doer: it serves the request
// into an in-memory response (fast.go's memResponse, not the test
// framework's recorder) and hands back its buffered body.
type handlerDoer struct{ h http.Handler }

func (d handlerDoer) Do(req *http.Request) (*http.Response, error) {
	rec := memResponse{hdr: make(http.Header)}
	d.h.ServeHTTP(&rec, req)
	status := rec.status
	if status == 0 {
		status = http.StatusOK
	}
	return &http.Response{
		Status:        fmt.Sprintf("%03d %s", status, http.StatusText(status)),
		StatusCode:    status,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        rec.hdr,
		Body:          io.NopCloser(bytes.NewReader(rec.buf)),
		ContentLength: int64(len(rec.buf)),
		Request:       req,
	}, nil
}

// --- core request machinery ------------------------------------------

// withDeadline applies the client timeout when the caller set none.
func (c *Client) withDeadline(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.timeout <= 0 {
		return ctx, func() {}
	}
	if _, ok := ctx.Deadline(); ok {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, c.timeout)
}

// newRequest builds one outgoing request with the hook applied.
func (c *Client) newRequest(ctx context.Context, method, path string, payload []byte) (*http.Request, error) {
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.baseURL+path, body)
	if err != nil {
		return nil, err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.hook != nil {
		c.hook(req)
	}
	return req, nil
}

// do issues one request, retrying idempotent methods per WithRetry,
// and decodes the response into out (when non-nil). Error responses
// come back as *api.Error. fast is the handler the path may be served
// into directly, or nil (see roundTrip).
func (c *Client) do(ctx context.Context, fast http.Handler, method, path string, in, out any) error {
	ctx, cancel := c.withDeadline(ctx)
	defer cancel()
	var payload []byte
	if in != nil {
		var err error
		if payload, err = json.Marshal(in); err != nil {
			return err
		}
	}
	os := opPool.Get().(*opScratch)
	defer opPool.Put(os)
	status, body, err := c.doRaw(ctx, os, fast, method, path, payload)
	if err != nil {
		return err
	}
	if status >= http.StatusBadRequest {
		return api.DecodeError(status, body)
	}
	if out != nil {
		return json.Unmarshal(body, out)
	}
	return nil
}

// doRaw is the transport under do: one exchange through the pooled
// scratch, retrying idempotent methods per WithRetry on transport
// errors and 5xx responses. The returned body aliases os.
func (c *Client) doRaw(ctx context.Context, os *opScratch, fast http.Handler, method, path string, payload []byte) (int, []byte, error) {
	idempotent := method == http.MethodGet || method == http.MethodDelete
	attempts := 1
	if idempotent {
		attempts += c.retries
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return 0, nil, lastErr
			case <-time.After(c.backoff << (attempt - 1)):
			}
		}
		status, body, err := c.roundTrip(ctx, os, fast, method, path, payload)
		if err != nil {
			lastErr = err
			continue
		}
		if status >= http.StatusInternalServerError && attempt+1 < attempts {
			lastErr = api.DecodeError(status, body)
			continue
		}
		return status, body, nil
	}
	return 0, nil, lastErr
}

// stream POSTs a request and hands back the NDJSON response body.
// The returned closer also releases the per-call deadline, so it
// must be called exactly once. Streams are never retried.
func (c *Client) stream(ctx context.Context, path string, in any) (io.ReadCloser, func(), error) {
	ctx, cancel := c.withDeadline(ctx)
	payload, err := json.Marshal(in)
	if err != nil {
		cancel()
		return nil, nil, err
	}
	req, err := c.newRequest(ctx, http.MethodPost, path, payload)
	if err != nil {
		cancel()
		return nil, nil, err
	}
	resp, err := c.doer.Do(req)
	if err != nil {
		cancel()
		return nil, nil, err
	}
	if resp.StatusCode >= http.StatusBadRequest {
		body, _ := io.ReadAll(resp.Body) //nolint:errcheck // best-effort error body
		resp.Body.Close()                //nolint:errcheck // read-side close
		cancel()
		return nil, nil, api.DecodeError(resp.StatusCode, body)
	}
	return resp.Body, cancel, nil
}

// --- server-scoped calls ---------------------------------------------

// CreateSession opens a named cluster session and returns its
// handle.
func (c *Client) CreateSession(ctx context.Context, req api.CreateSessionRequest) (*Session, error) {
	var created api.SessionCreated
	if err := c.do(ctx, c.fast, http.MethodPost, api.PathSessions, req, &created); err != nil {
		return nil, err
	}
	return newSession(c, req.Name), nil
}

// Session is the handle of an existing session (no request is made;
// a missing name surfaces as api.CodeSessionNotFound on first use).
func (c *Client) Session(name string) *Session {
	return newSession(c, name)
}

// ListSessions names the live sessions.
func (c *Client) ListSessions(ctx context.Context) (api.SessionList, error) {
	var out api.SessionList
	err := c.do(ctx, c.fast, http.MethodGet, api.PathSessions, nil, &out)
	return out, err
}

// ServerStats reads the server-wide counters.
func (c *Client) ServerStats(ctx context.Context) (api.ServerStats, error) {
	var out api.ServerStats
	err := c.do(ctx, c.fast, http.MethodGet, api.PathStats, nil, &out)
	return out, err
}

// Metrics fetches the raw Prometheus text exposition from /metrics.
// The returned bytes are an independent copy, safe to keep.
func (c *Client) Metrics(ctx context.Context) ([]byte, error) {
	ctx, cancel := c.withDeadline(ctx)
	defer cancel()
	os := opPool.Get().(*opScratch)
	defer opPool.Put(os)
	status, body, err := c.doRaw(ctx, os, c.fast, http.MethodGet, api.PathMetrics, nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, api.DecodeError(status, body)
	}
	return append([]byte(nil), body...), nil
}

// Health checks liveness.
func (c *Client) Health(ctx context.Context) error {
	var out api.Health
	if err := c.do(ctx, c.fast, http.MethodGet, api.PathHealth, nil, &out); err != nil {
		return err
	}
	if out.Status != "ok" {
		return fmt.Errorf("client: health status %q", out.Status)
	}
	return nil
}

// --- session history -------------------------------------------------

// Audit replays the commit log: the server rebuilds the session's
// state as of just before durable sequence seq, re-runs that
// mutation's probe with the stats collector attached, and reports
// what the analysis concluded. Requires a server started with
// durability on (api.CodeSeqTruncated otherwise, also returned when
// seq predates the retained log).
func (s *Session) Audit(ctx context.Context, seq int64) (api.AuditReport, error) {
	var out api.AuditReport
	path := api.SessionOpPath(s.name, api.OpAudit) + "?" + api.AuditSeqParam + "=" + strconv.FormatInt(seq, 10)
	err := s.c.do(ctx, nil, http.MethodGet, path, nil, &out) // the query takes the generic route
	return out, err
}
