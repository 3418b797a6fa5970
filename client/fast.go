package client

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"

	"repro/api"
)

// The client half of the zero-alloc wire layer. Every unary call runs
// on one pooled opScratch: the request payload is appended by the api
// package's fast encoders, the round trip reuses a pooled
// http.Request + in-memory ResponseWriter (no httptest recorder, no
// Response allocation), and the response parses on the fast path with
// encoding/json as the fallback. The in-process shortcut only engages
// for a plain InProcess client — request hooks, custom headers, or
// paths needing escape handling take the generic transport, which
// still reuses the pooled read buffer.

const inprocHost = "admitd.inprocess"

// bodyReader is a pooled request body: a bytes.Reader that satisfies
// io.ReadCloser.
type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

// memResponse is a reusable in-memory http.ResponseWriter.
type memResponse struct {
	hdr    http.Header
	buf    []byte
	status int
}

func (m *memResponse) Header() http.Header { return m.hdr }

func (m *memResponse) Write(p []byte) (int, error) {
	if m.status == 0 {
		m.status = http.StatusOK
	}
	m.buf = append(m.buf, p...)
	return len(p), nil
}

func (m *memResponse) WriteHeader(code int) {
	if m.status == 0 {
		m.status = code
	}
}

// Flush satisfies http.Flusher so streaming handlers behave as they
// do over a socket; buffering is the flush.
func (m *memResponse) Flush() {}

func (m *memResponse) reset() {
	m.buf = m.buf[:0]
	m.status = 0
	clear(m.hdr)
}

// opScratch is one unary call's reusable state.
type opScratch struct {
	enc  []byte // fast-encoded request payload
	url  url.URL
	req  http.Request
	body bodyReader
	resp memResponse
}

var opPool = sync.Pool{
	New: func() any {
		return &opScratch{
			enc:  make([]byte, 0, 256),
			resp: memResponse{hdr: make(http.Header, 4), buf: make([]byte, 0, 512)},
		}
	},
}

// Shared read-only request headers; handlers never mutate incoming
// headers, so all fast-path requests alias these.
var (
	jsonReqHeader  = http.Header{"Content-Type": []string{"application/json"}}
	emptyReqHeader = http.Header{}
)

// fastHandler returns the in-process handler when the fast transport
// applies (no hook to run per request).
func (c *Client) fastHandler() (http.Handler, bool) {
	if c.hook != nil {
		return nil, false
	}
	hd, ok := c.doer.(handlerDoer)
	return hd.h, ok
}

// roundTrip performs one request/response exchange through the pooled
// scratch, returning the status and response body. The body aliases
// os and is valid until os is reused.
func (c *Client) roundTrip(ctx context.Context, os *opScratch, method, path string, payload []byte) (int, []byte, error) {
	if h, ok := c.fastHandler(); ok && !strings.ContainsAny(path, "%?#") {
		os.url = url.URL{Scheme: "http", Host: inprocHost, Path: path}
		hdr := emptyReqHeader
		var rc io.ReadCloser
		if payload != nil {
			os.body.Reset(payload)
			hdr, rc = jsonReqHeader, &os.body
		}
		os.req = http.Request{
			Method:        method,
			URL:           &os.url,
			Proto:         "HTTP/1.1",
			ProtoMajor:    1,
			ProtoMinor:    1,
			Header:        hdr,
			Body:          rc,
			ContentLength: int64(len(payload)),
			Host:          inprocHost,
			RemoteAddr:    "inprocess",
			RequestURI:    path,
		}
		req := &os.req
		if ctx != nil && ctx != context.Background() {
			req = req.WithContext(ctx)
		}
		os.resp.reset()
		h.ServeHTTP(&os.resp, req)
		status := os.resp.status
		if status == 0 {
			status = http.StatusOK
		}
		return status, os.resp.buf, nil
	}
	req, err := c.newRequest(ctx, method, path, payload)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.doer.Do(req)
	if err != nil {
		return 0, nil, err
	}
	body, err := readAllInto(os.resp.buf[:0], resp.Body)
	os.resp.buf = body
	resp.Body.Close() //nolint:errcheck // read-side close
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, body, nil
}

// readAllInto is io.ReadAll into a reused buffer.
func readAllInto(b []byte, r io.Reader) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// postVerdict is the hot-path POST returning a Verdict (admit, try,
// commit, rollback): fast-encoded request, pooled transport,
// fast-parsed response. req == nil posts an empty body.
func (c *Client) postVerdict(ctx context.Context, path string, req *api.AdmitRequest) (api.Verdict, error) {
	ctx, cancel := c.withDeadline(ctx)
	defer cancel()
	os := opPool.Get().(*opScratch)
	defer opPool.Put(os)
	var payload []byte
	if req != nil {
		var ok bool
		if payload, ok = api.AppendAdmitRequest(os.enc[:0], req); ok {
			os.enc = payload
		} else {
			var err error
			if payload, err = json.Marshal(req); err != nil {
				return api.Verdict{}, err
			}
		}
	}
	status, body, err := c.roundTrip(ctx, os, http.MethodPost, path, payload)
	if err != nil {
		return api.Verdict{}, err
	}
	if status >= http.StatusBadRequest {
		return api.Verdict{}, api.DecodeError(status, body)
	}
	var v api.Verdict
	if !api.ParseVerdict(body, &v) {
		// Unmarshal into a separate local: handing v itself to the
		// reflection path would make it escape and cost a heap
		// allocation on every fast-path call too.
		var cold api.Verdict
		if err := json.Unmarshal(body, &cold); err != nil {
			return api.Verdict{}, err
		}
		v = cold
	}
	return v, nil
}

// postRemove is postVerdict for the remove op.
func (c *Client) postRemove(ctx context.Context, path string, id int64) (api.Removed, error) {
	ctx, cancel := c.withDeadline(ctx)
	defer cancel()
	os := opPool.Get().(*opScratch)
	defer opPool.Put(os)
	os.enc = api.AppendRemoveRequest(os.enc[:0], &api.RemoveRequest{ID: id})
	status, body, err := c.roundTrip(ctx, os, http.MethodPost, path, os.enc)
	if err != nil {
		return api.Removed{}, err
	}
	if status >= http.StatusBadRequest {
		return api.Removed{}, api.DecodeError(status, body)
	}
	var rm api.Removed
	if !api.ParseRemoved(body, &rm) {
		var cold api.Removed // see postVerdict on the indirection
		if err := json.Unmarshal(body, &cold); err != nil {
			return api.Removed{}, err
		}
		rm = cold
	}
	return rm, nil
}
