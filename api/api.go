// Package api is the versioned wire schema of the admission-control
// service: every request, response and error envelope that crosses
// the admitd HTTP surface, as plain structs with fixed JSON tags and
// no dependency outside the standard library. It is the one contract
// shared by the server (internal/admitd), the typed Go client SDK
// (package client), the benchmark module, the examples, and any
// external embedder — if a field is not in this package, it is not
// on the wire.
//
// # Versioning
//
// Version names the schema generation and prefixes every route
// ("/v1/..."). Within a version the schema only grows: new optional
// fields may appear, existing fields never change name, type, or
// meaning. Decoders on both sides must therefore ignore unknown
// fields (the encoding/json default) — an older client against a
// newer server, or the reverse, keeps working on the fields it
// knows. Removing or redefining a field requires a new version
// prefix. A route can be withdrawn whole, and then answers 404.
// Servers stamp every response with the VersionHeader so clients can
// detect what they are talking to.
//
// # Errors
//
// Every non-2xx response carries the Error envelope — a stable
// machine-readable Code plus a human-readable Message. Code, not the
// HTTP status, is the contract: statuses are derived from codes (see
// Code.HTTPStatus) and exist for plain HTTP tooling.
package api

import "net/url"

// Version is the wire-schema generation. It prefixes every route.
const Version = "v1"

// VersionHeader is the response header the server stamps with
// Version on every reply.
const VersionHeader = "Admitd-Api-Version"

// Route roots. Session-scoped operations live under
// PathSessions/{name}/{op} — see SessionPath and SessionOpPath.
const (
	PathSessions = "/" + Version + "/sessions"
	PathStats    = "/" + Version + "/stats"
	PathHealth   = "/healthz"
	// PathMetrics is the Prometheus text-format exposition endpoint.
	// Unversioned by convention: scrapers expect the bare path, and
	// the exposition format carries its own compatibility contract.
	PathMetrics = "/metrics"
)

// TraceHeader carries the per-request trace ID: clients may supply
// one (echoed on the response and threaded into the server's event
// log); servers running with tracing enabled generate one otherwise.
const TraceHeader = "Admitd-Trace-Id"

// Session-scoped operation names (the {op} path segment).
const (
	OpAdmit    = "admit"
	OpTry      = "try"
	OpSplit    = "split"
	OpCommit   = "commit"
	OpRollback = "rollback"
	OpRemove   = "remove"
	OpStats    = "stats"
	OpBatch    = "batch"
	// OpAudit replays the commit log: GET with a seq query parameter
	// rebuilds the session at seq-1 and re-runs the logged mutation's
	// probe with the collector on. Requires durability (-data-dir).
	OpAudit = "audit"
)

// AuditSeqParam is OpAudit's query parameter: the sequence number of
// the logged mutation to audit.
const AuditSeqParam = "seq"

// SessionPath is the route of one named session (path-escaped, so
// any name is safe on the wire).
func SessionPath(name string) string {
	return PathSessions + "/" + url.PathEscape(name)
}

// SessionOpPath is the route of one session-scoped operation.
func SessionOpPath(name, op string) string {
	return SessionPath(name) + "/" + op
}
