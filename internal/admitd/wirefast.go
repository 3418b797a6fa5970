package admitd

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"

	"repro/api"
)

// The zero-alloc wire layer: pooled per-request scratch so the hot
// handlers (admit, try, commit, rollback, remove) touch encoding/json
// only as a fallback. Request bodies are read into a pooled slab and
// parsed by the api package's fast codecs; responses are appended into
// a pooled buffer by the fast encoders, byte-identical to what
// json.Encoder would have produced (HTML-safe, trailing newline).
// Anything the fast path declines — escaped strings, floats, overflow,
// exotic whitespace in numbers — falls back to encoding/json, so the
// accepted language and the produced bytes never change.

// wireScratch is one request's wire-layer scratch: the body slab and
// the response append buffer.
type wireScratch struct {
	body []byte
	out  []byte
}

var wirePool = sync.Pool{
	New: func() any {
		return &wireScratch{
			body: make([]byte, 0, 1024),
			out:  make([]byte, 0, 256),
		}
	},
}

// maxBodyBytes bounds every request body the server reads. A body may
// not declare its length (chunked encoding), so the bound is enforced
// while reading, not only on Content-Length.
const maxBodyBytes = 1 << 20

var errBodyTooLarge = fmt.Errorf("larger than %d bytes", maxBodyBytes)

// boundedBody reads at most maxBodyBytes from r: the byte after that
// fails the read with errBodyTooLarge. left starts at maxBodyBytes+1.
type boundedBody struct {
	r    io.Reader
	left int
}

func (b *boundedBody) Read(p []byte) (int, error) {
	n, err := b.r.Read(p[:min(len(p), b.left)])
	if b.left -= n; b.left == 0 {
		return n, errBodyTooLarge
	}
	return n, err
}

// readBody reads the whole request body into the pooled slab,
// pre-sizing from Content-Length when declared. A slab grown past
// maxBodyBytes is not kept: the pool holds what it held before.
func (ws *wireScratch) readBody(r *http.Request) ([]byte, error) {
	b := ws.body[:0]
	if c := r.ContentLength; c > maxBodyBytes {
		return nil, fmt.Errorf("bad request body: %w", errBodyTooLarge)
	} else if c > int64(cap(b)) {
		b = make([]byte, 0, c)
	}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Body.Read(b[len(b):min(cap(b), maxBodyBytes+1)])
		if b = b[:len(b)+n]; len(b) > maxBodyBytes {
			err = errBodyTooLarge
		}
		if err != nil {
			if cap(b) <= maxBodyBytes {
				ws.body = b
			}
			if err == io.EOF {
				return b, nil
			}
			return nil, fmt.Errorf("bad request body: %w", err)
		}
	}
}

// decodeAdmit parses an AdmitRequest from raw bytes: fast path first,
// encoding/json on decline. A "core" field is returned by value —
// when corePresent the caller attaches its own stack backing
// (req.Core = &core) so the fast path allocates nothing; the fallback
// leaves req.Core pointing at the unmarshal-allocated int and reports
// corePresent=false so the caller does not overwrite it.
func decodeAdmit(body []byte, req *api.AdmitRequest) (core int, corePresent bool, err error) {
	if c, present, ok := api.ParseAdmitRequest(body, req); ok {
		return c, present, nil
	}
	// The fallback unmarshals into a local that escapes into the
	// reflection machinery, then copies out. Passing req itself to
	// json.Unmarshal would mark the parameter as escaping and force
	// every caller's stack-declared request onto the heap — on the
	// fast path too.
	var cold api.AdmitRequest
	if err := json.Unmarshal(body, &cold); err != nil {
		return 0, false, fmt.Errorf("bad request body: %w", err)
	}
	*req = cold
	return 0, false, nil
}

// decodeRemove is decodeAdmit for RemoveRequest.
func decodeRemove(body []byte, req *api.RemoveRequest) error {
	if api.ParseRemoveRequest(body, req) {
		return nil
	}
	var cold api.RemoveRequest // see decodeAdmit on the indirection
	if err := json.Unmarshal(body, &cold); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	*req = cold
	return nil
}

// writeVerdict writes v through the pooled buffer (status 200).
func (ws *wireScratch) writeVerdict(w http.ResponseWriter, v *api.Verdict) {
	b := api.AppendVerdict(ws.out[:0], v)
	b = append(b, '\n')
	ws.out = b
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b) //nolint:errcheck // client gone; nothing to do
}

// writeRemoved writes r through the pooled buffer (status 200).
func (ws *wireScratch) writeRemoved(w http.ResponseWriter, r *api.Removed) {
	b := api.AppendRemoved(ws.out[:0], r)
	b = append(b, '\n')
	ws.out = b
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b) //nolint:errcheck
}

// writeRaw writes a prebuilt JSON body (status 200). Used by the
// state read path, whose bytes are cached per snapshot.
func writeRaw(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body) //nolint:errcheck
}
