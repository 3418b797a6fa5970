package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
)

// Code is a machine-readable error code — the stable part of the
// error contract. New codes may be added within a version; existing
// codes never change meaning.
type Code string

const (
	// CodeBadRequest rejects a malformed or semantically invalid
	// request (bad JSON, invalid task parameters, out-of-range core).
	CodeBadRequest Code = "bad_request"
	// CodeSessionNotFound: no live or checkpointed session by that name.
	CodeSessionNotFound Code = "session_not_found"
	// CodeSessionExists rejects creating a name that is already taken.
	CodeSessionExists Code = "session_exists"
	// CodeSessionClosed: the session's actor has exited (deleted or
	// evicted concurrently); retry resolves it when the server runs
	// with a data directory (the session is restored from it).
	CodeSessionClosed Code = "session_closed"
	// CodeProbePending rejects a mutation while a held probe awaits
	// commit/rollback.
	CodeProbePending Code = "probe_pending"
	// CodeNoProbePending rejects commit/rollback with nothing held.
	CodeNoProbePending Code = "no_probe_pending"
	// CodeProbeRejected refuses committing a held probe whose verdict
	// was negative.
	CodeProbeRejected Code = "probe_rejected"
	// CodeDuplicateTask rejects admitting an ID the session already
	// hosts.
	CodeDuplicateTask Code = "duplicate_task"
	// CodeUnknownTask: remove named an ID the session does not host.
	CodeUnknownTask Code = "unknown_task"
	// CodeSeqTruncated: the requested sequence range predates the
	// commit log's retained window (checkpoint compaction removed
	// it), or the session has no commit log at all. Seqs past the
	// compacted prefix still audit.
	CodeSeqTruncated Code = "seq_truncated"
	// CodeInternal is an unexpected server-side failure.
	CodeInternal Code = "internal"
)

// HTTPStatus derives the transport status from the code. Unknown
// codes (a newer peer) map to 400 — still an error, still decodable.
func (c Code) HTTPStatus() int {
	switch c {
	case CodeSessionNotFound, CodeUnknownTask:
		return http.StatusNotFound
	case CodeSessionExists, CodeProbePending, CodeNoProbePending,
		CodeProbeRejected, CodeDuplicateTask:
		return http.StatusConflict
	case CodeSessionClosed, CodeSeqTruncated:
		return http.StatusGone
	case CodeInternal:
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

// Error is the uniform error envelope: every non-2xx response body
// is exactly this object. It implements the error interface, so the
// client SDK returns it as-is.
type Error struct {
	Code    Code   `json:"code"`
	Message string `json:"message"`
}

// Error renders "code: message".
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

// HTTPStatus is the transport status derived from the code.
func (e *Error) HTTPStatus() int { return e.Code.HTTPStatus() }

// IsCode reports whether err is (or wraps) an *Error with the given
// code.
func IsCode(err error, code Code) bool {
	var ae *Error
	return errors.As(err, &ae) && ae.Code == code
}

// DecodeError parses an error-envelope body. A body that is not a
// valid envelope (a proxy's HTML error page, say) degrades to
// CodeInternal with the raw body as the message, so callers always
// get a typed *Error back.
func DecodeError(status int, body []byte) *Error {
	e := &Error{}
	if err := json.Unmarshal(body, e); err == nil && e.Code != "" {
		return e
	}
	code := CodeInternal
	if status < http.StatusInternalServerError {
		code = CodeBadRequest
	}
	return &Error{Code: code, Message: fmt.Sprintf("HTTP %d: %s", status, body)}
}
