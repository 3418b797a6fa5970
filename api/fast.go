package api

import (
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Fast wire codecs for the hot request/response shapes — admission
// verdicts and the requests that produce them. The service's edge
// cost is dominated by encoding/json's reflective round trips, so the
// shapes on the admission hot path get hand-rolled append-style
// encoders and a minimal scanner, both byte-compatible with
// encoding/json for every value they accept:
//
//   - Encoders produce exactly the bytes json.Marshal would (field
//     order, omitempty, no HTML-escapable characters) or report !ok,
//     in which case the caller falls back to encoding/json. They
//     append into a caller-owned buffer, so steady state allocates
//     nothing.
//   - Parsers accept a strict subset of JSON — no escape sequences in
//     strings they keep, no floats where the schema says integer, no
//     leading zeros — and report !ok on anything outside it, again
//     falling back to encoding/json. On success the result is exactly
//     what json.Unmarshal would produce (unknown fields skipped, last
//     duplicate wins, null pointer fields absent). On !ok the
//     destination is untouched.
//
// The golden and differential tests in fast_test.go pin both
// directions against encoding/json.

// --- encoders --------------------------------------------------------

// fastSafeString reports whether s encodes as itself under
// encoding/json (no escapes, no HTML escaping, ASCII only).
func fastSafeString(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// appendTaskJSON appends t; !ok when the name needs escaping.
func appendTaskJSON(b []byte, t *Task) ([]byte, bool) {
	b = append(b, `{"id":`...)
	b = strconv.AppendInt(b, t.ID, 10)
	if t.Name != "" {
		if !fastSafeString(t.Name) {
			return b, false
		}
		b = append(b, `,"name":"`...)
		b = append(b, t.Name...)
		b = append(b, '"')
	}
	b = append(b, `,"wcet_ns":`...)
	b = strconv.AppendInt(b, t.WCETNs, 10)
	b = append(b, `,"period_ns":`...)
	b = strconv.AppendInt(b, t.PeriodNs, 10)
	if t.DeadlineNs != 0 {
		b = append(b, `,"deadline_ns":`...)
		b = strconv.AppendInt(b, t.DeadlineNs, 10)
	}
	if t.Priority != 0 {
		b = append(b, `,"priority":`...)
		b = strconv.AppendInt(b, int64(t.Priority), 10)
	}
	if t.WSS != 0 {
		b = append(b, `,"wss":`...)
		b = strconv.AppendInt(b, t.WSS, 10)
	}
	if t.Core != 0 {
		b = append(b, `,"core":`...)
		b = strconv.AppendInt(b, int64(t.Core), 10)
	}
	return append(b, '}'), true
}

// AppendAdmitRequest appends r's JSON encoding; !ok (task name needs
// escaping) means fall back to json.Marshal — the buffer then holds
// partial output and must be discarded.
func AppendAdmitRequest(b []byte, r *AdmitRequest) ([]byte, bool) {
	b = append(b, `{"task":`...)
	b, ok := appendTaskJSON(b, &r.Task)
	if !ok {
		return b, false
	}
	if r.Core != nil {
		b = append(b, `,"core":`...)
		b = strconv.AppendInt(b, int64(*r.Core), 10)
	}
	if r.Hold {
		b = append(b, `,"hold":true`...)
	}
	return append(b, '}'), true
}

// AppendVerdict appends v's JSON encoding (never fails: a Verdict has
// no strings).
func AppendVerdict(b []byte, v *Verdict) []byte {
	b = append(b, `{"task_id":`...)
	b = strconv.AppendInt(b, v.TaskID, 10)
	b = append(b, `,"admitted":`...)
	b = strconv.AppendBool(b, v.Admitted)
	b = append(b, `,"core":`...)
	b = strconv.AppendInt(b, int64(v.Core), 10)
	if v.Pending {
		b = append(b, `,"pending":true`...)
	}
	b = append(b, `,"probes":`...)
	b = strconv.AppendInt(b, int64(v.Probes), 10)
	return append(b, '}')
}

// AppendRemoveRequest appends r's JSON encoding.
func AppendRemoveRequest(b []byte, r *RemoveRequest) []byte {
	b = append(b, `{"id":`...)
	b = strconv.AppendInt(b, r.ID, 10)
	return append(b, '}')
}

// AppendRemoved appends r's JSON encoding.
func AppendRemoved(b []byte, r *Removed) []byte {
	b = append(b, `{"removed":`...)
	b = strconv.AppendBool(b, r.Removed)
	b = append(b, `,"id":`...)
	b = strconv.AppendInt(b, r.ID, 10)
	return append(b, '}')
}

// --- scanner ---------------------------------------------------------

// fastScan walks one JSON document. Every method reports failure by
// returning false; the caller then abandons the fast path entirely,
// so a half-advanced scanner is never resumed.
type fastScan struct {
	b []byte
	i int
}

func (s *fastScan) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// delim consumes c (after whitespace).
func (s *fastScan) delim(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// str parses a string with no escapes, no control characters and no
// invalid UTF-8, returning the raw bytes between the quotes. Anything
// else fails — the fallback unescapes, and replaces invalid UTF-8 with
// U+FFFD.
func (s *fastScan) str() ([]byte, bool) {
	s.ws()
	if s.i >= len(s.b) || s.b[s.i] != '"' {
		return nil, false
	}
	s.i++
	start := s.i
	ascii := true
	for s.i < len(s.b) {
		c := s.b[s.i]
		if c == '"' {
			out := s.b[start:s.i]
			s.i++
			return out, ascii || utf8.Valid(out)
		}
		if c == '\\' || c < 0x20 {
			return nil, false
		}
		ascii = ascii && c < utf8.RuneSelf
		s.i++
	}
	return nil, false
}

// integer parses a JSON integer (no fraction, no exponent, no leading
// zeros, no overflow — anything else falls back).
func (s *fastScan) integer() (int64, bool) {
	s.ws()
	neg := false
	if s.i < len(s.b) && s.b[s.i] == '-' {
		neg = true
		s.i++
	}
	start := s.i
	var v uint64
	for s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9' {
		v = v*10 + uint64(s.b[s.i]-'0')
		s.i++
	}
	n := s.i - start
	// ≤18 digits cannot exceed MaxInt64; 19 digits cannot wrap uint64,
	// so one range check suffices (20+ digits and MinInt64 decline to
	// the stdlib fallback, as before).
	if n == 0 || (n > 1 && s.b[start] == '0') || n > 19 || (n == 19 && v > math.MaxInt64) {
		return 0, false
	}
	if s.i < len(s.b) {
		switch s.b[s.i] {
		case '.', 'e', 'E':
			return 0, false
		}
	}
	if neg {
		return -int64(v), true
	}
	return int64(v), true
}

// boolean parses true/false.
func (s *fastScan) boolean() (bool, bool) {
	s.ws()
	if s.lit("true") {
		return true, true
	}
	if s.lit("false") {
		return false, true
	}
	return false, false
}

// lit consumes the literal word (no leading whitespace handling).
func (s *fastScan) lit(w string) bool {
	if len(s.b)-s.i < len(w) || string(s.b[s.i:s.i+len(w)]) != w {
		return false
	}
	s.i += len(w)
	return true
}

// isNull consumes a null literal if present.
func (s *fastScan) isNull() bool {
	s.ws()
	return s.lit("null")
}

// maxSkipDepth bounds how deep a skipped value may nest. The wire
// shapes nest at most 3 deep, so an unknown field nested past it is
// declined, and encoding/json gives its canonical answer (past its own
// depth limit, an error) instead of this scanner recursing without
// bound.
const maxSkipDepth = 32

// skipValue skips one well-formed value of any type, d containers deep
// inside an unknown field's value (0: the field's value itself); it
// validates strictly enough that nothing json.Unmarshal would reject is
// silently accepted (malformed input fails and falls back, where the
// stdlib produces the canonical error).
func (s *fastScan) skipValue(d int) bool {
	s.ws()
	if s.i >= len(s.b) {
		return false
	}
	switch c := s.b[s.i]; {
	case c == '"':
		return s.skipString()
	case (c == '{' || c == '[') && d >= maxSkipDepth:
		return false
	case c == '{':
		s.i++
		if s.delim('}') {
			return true
		}
		for {
			if !s.skipStringAfterWS() || !s.delim(':') || !s.skipValue(d+1) {
				return false
			}
			if s.delim(',') {
				continue
			}
			return s.delim('}')
		}
	case c == '[':
		s.i++
		if s.delim(']') {
			return true
		}
		for {
			if !s.skipValue(d + 1) {
				return false
			}
			if s.delim(',') {
				continue
			}
			return s.delim(']')
		}
	case c == 't':
		return s.lit("true")
	case c == 'f':
		return s.lit("false")
	case c == 'n':
		return s.lit("null")
	default:
		return s.skipNumber()
	}
}

func (s *fastScan) skipStringAfterWS() bool {
	s.ws()
	return s.skipString()
}

// skipString validates and skips a string, escapes included.
func (s *fastScan) skipString() bool {
	if s.i >= len(s.b) || s.b[s.i] != '"' {
		return false
	}
	s.i++
	for s.i < len(s.b) {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return true
		case c == '\\':
			s.i++
			if s.i >= len(s.b) {
				return false
			}
			switch s.b[s.i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				s.i++
			case 'u':
				s.i++
				for k := 0; k < 4; k++ {
					if s.i >= len(s.b) || !isHex(s.b[s.i]) {
						return false
					}
					s.i++
				}
			default:
				return false
			}
		case c < 0x20:
			return false
		default:
			s.i++
		}
	}
	return false
}

func isHex(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

// skipNumber validates and skips a full JSON number.
func (s *fastScan) skipNumber() bool {
	if s.i < len(s.b) && s.b[s.i] == '-' {
		s.i++
	}
	start := s.i
	for s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9' {
		s.i++
	}
	n := s.i - start
	if n == 0 || (n > 1 && s.b[start] == '0') {
		return false
	}
	if s.i < len(s.b) && s.b[s.i] == '.' {
		s.i++
		d := 0
		for s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9' {
			s.i++
			d++
		}
		if d == 0 {
			return false
		}
	}
	if s.i < len(s.b) && (s.b[s.i] == 'e' || s.b[s.i] == 'E') {
		s.i++
		if s.i < len(s.b) && (s.b[s.i] == '+' || s.b[s.i] == '-') {
			s.i++
		}
		d := 0
		for s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9' {
			s.i++
			d++
		}
		if d == 0 {
			return false
		}
	}
	return true
}

// eof reports the document ended (only trailing whitespace).
func (s *fastScan) eof() bool {
	s.ws()
	return s.i == len(s.b)
}

// fields iterates an object's key/value pairs: f parses the value for
// a known key and reports success; unknown keys are skipped whole.
func (s *fastScan) fields(f func(key []byte) (handled, ok bool)) bool {
	if !s.delim('{') {
		return false
	}
	if s.delim('}') {
		return true
	}
	for {
		key, ok := s.str()
		if !ok || !s.delim(':') {
			return false
		}
		handled, ok := f(key)
		if !ok {
			return false
		}
		if !handled && !s.skipValue(0) {
			return false
		}
		if s.delim(',') {
			continue
		}
		return s.delim('}')
	}
}

// --- parsers ---------------------------------------------------------

// keyFolds reports whether an unknown key case-insensitively matches
// one of the shape's field names. encoding/json falls back to
// case-insensitive matching for keys with no exact field, so such
// keys can't be skipped — the parser declines and the stdlib fallback
// applies its matching rules.
func keyFolds(key []byte, names []string) bool {
	for _, n := range names {
		if len(key) == len(n) && strings.EqualFold(string(key), n) {
			return true
		}
	}
	return false
}

var (
	taskFieldNames    = []string{"id", "name", "wcet_ns", "period_ns", "deadline_ns", "priority", "wss", "core"}
	admitFieldNames   = []string{"task", "core", "hold"}
	removeFieldNames  = []string{"id"}
	verdictFieldNames = []string{"task_id", "admitted", "core", "pending", "probes"}
	removedFieldNames = []string{"removed", "id"}
)

// parseTaskInto parses a Task object in place (t starts zeroed by the
// callers).
func (s *fastScan) parseTaskInto(t *Task) bool {
	return s.fields(func(key []byte) (bool, bool) {
		var v int64
		var ok bool
		switch string(key) {
		case "id":
			v, ok = s.integer()
			t.ID = v
		case "name":
			raw, sok := s.str()
			if !sok {
				return true, false
			}
			t.Name = string(raw)
			return true, true
		case "wcet_ns":
			v, ok = s.integer()
			t.WCETNs = v
		case "period_ns":
			v, ok = s.integer()
			t.PeriodNs = v
		case "deadline_ns":
			v, ok = s.integer()
			t.DeadlineNs = v
		case "priority":
			v, ok = s.integer()
			t.Priority = int(v)
		case "wss":
			v, ok = s.integer()
			t.WSS = v
		case "core":
			v, ok = s.integer()
			t.Core = int(v)
		default:
			return false, !keyFolds(key, taskFieldNames)
		}
		return true, ok
	})
}

// ParseAdmitRequest parses data into dst on the fast path. A present
// "core" field is reported by value (core, corePresent) instead of
// being attached to dst: storing a caller-provided pointer into dst
// from inside this function would make escape analysis move both
// arguments to the heap in every caller, defeating the zero-alloc
// contract. On success dst.Core is nil and the caller attaches its
// own backing when corePresent. On !ok dst is untouched and the
// caller must fall back to encoding/json.
func ParseAdmitRequest(data []byte, dst *AdmitRequest) (core int, corePresent, ok bool) {
	s := fastScan{b: data}
	var req AdmitRequest
	var coreVal int64
	fieldsOK := s.fields(func(key []byte) (bool, bool) {
		switch string(key) {
		case "task":
			return true, s.parseTaskInto(&req.Task)
		case "core":
			if s.isNull() {
				corePresent = false // last key wins: null resets the pointer
				return true, true
			}
			v, ok := s.integer()
			if !ok || v != int64(int(v)) {
				return true, false
			}
			coreVal, corePresent = v, true
			return true, true
		case "hold":
			b, ok := s.boolean()
			req.Hold = b
			return true, ok
		}
		return false, !keyFolds(key, admitFieldNames)
	})
	if !fieldsOK || !s.eof() {
		return 0, false, false
	}
	*dst = req
	if corePresent {
		core = int(coreVal)
	}
	return core, corePresent, true
}

// ParseRemoveRequest parses data into dst on the fast path.
func ParseRemoveRequest(data []byte, dst *RemoveRequest) bool {
	s := fastScan{b: data}
	var req RemoveRequest
	ok := s.fields(func(key []byte) (bool, bool) {
		if string(key) == "id" {
			v, ok := s.integer()
			req.ID = v
			return true, ok
		}
		return false, !keyFolds(key, removeFieldNames)
	})
	if !ok || !s.eof() {
		return false
	}
	*dst = req
	return true
}

// ParseVerdict parses data into dst on the fast path.
func ParseVerdict(data []byte, dst *Verdict) bool {
	s := fastScan{b: data}
	var v Verdict
	ok := s.fields(func(key []byte) (bool, bool) {
		var ok bool
		switch string(key) {
		case "task_id":
			v.TaskID, ok = s.integer()
		case "admitted":
			v.Admitted, ok = s.boolean()
		case "core":
			var n int64
			n, ok = s.integer()
			v.Core = int(n)
		case "pending":
			v.Pending, ok = s.boolean()
		case "probes":
			var n int64
			n, ok = s.integer()
			v.Probes = int(n)
		default:
			return false, !keyFolds(key, verdictFieldNames)
		}
		return true, ok
	})
	if !ok || !s.eof() {
		return false
	}
	*dst = v
	return true
}

// ParseRemoved parses data into dst on the fast path.
func ParseRemoved(data []byte, dst *Removed) bool {
	s := fastScan{b: data}
	var r Removed
	ok := s.fields(func(key []byte) (bool, bool) {
		var ok bool
		switch string(key) {
		case "removed":
			r.Removed, ok = s.boolean()
		case "id":
			r.ID, ok = s.integer()
		default:
			return false, !keyFolds(key, removedFieldNames)
		}
		return true, ok
	})
	if !ok || !s.eof() {
		return false
	}
	*dst = r
	return true
}

// --- state & stats ---------------------------------------------------

// appendJSONFloat appends f exactly as encoding/json renders floats
// (shortest round-trip form, 'e' outside [1e-6, 1e21), exponent
// zero-trim); !ok for NaN/Inf, which json.Marshal rejects — the
// fallback then produces the canonical error.
func appendJSONFloat(b []byte, f float64) ([]byte, bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, false
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

// number parses one JSON number via strconv.ParseFloat — identical
// semantics to the stdlib's float64 path.
func (s *fastScan) number() (float64, bool) {
	s.ws()
	start := s.i
	if !s.skipNumber() {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(s.b[start:s.i]), 64)
	if err != nil {
		return 0, false
	}
	return f, true
}

// setString assigns raw to *dst without allocating when the value is
// unchanged (steady-state parses into reused destinations).
func setString(dst *string, raw []byte) {
	if *dst != string(raw) {
		*dst = string(raw)
	}
}

var stateFieldNames = []string{"name", "cores", "policy", "tasks", "splits", "core_utilization", "schedulable", "probe_pending"}

// ParseState parses data into dst on the fast path, reusing dst's
// slice capacity and Schedulable backing (steady-state reads into a
// scratch State allocate only on growth). States carrying splits
// decline — the nested shape is cold and stays on encoding/json. On
// !ok dst may hold partial results; the caller must zero it before
// falling back.
func ParseState(data []byte, dst *State) bool {
	s := fastScan{b: data}
	dst.Tasks = dst.Tasks[:0]
	dst.Splits = nil
	dst.CoreUtilization = dst.CoreUtilization[:0]
	dst.ProbePending = false
	sched, schedSet := false, false
	ok := s.fields(func(key []byte) (bool, bool) {
		switch string(key) {
		case "name":
			raw, ok := s.str()
			if !ok {
				return true, false
			}
			setString(&dst.Name, raw)
			return true, true
		case "cores":
			v, ok := s.integer()
			dst.Cores = int(v)
			return true, ok
		case "policy":
			raw, ok := s.str()
			if !ok {
				return true, false
			}
			setString(&dst.Policy, raw)
			return true, true
		case "tasks":
			if s.isNull() {
				dst.Tasks = dst.Tasks[:0]
				return true, true
			}
			if !s.delim('[') {
				return true, false
			}
			if s.delim(']') {
				return true, true
			}
			for {
				dst.Tasks = append(dst.Tasks, Task{})
				if !s.parseTaskInto(&dst.Tasks[len(dst.Tasks)-1]) {
					return true, false
				}
				if s.delim(',') {
					continue
				}
				return true, s.delim(']')
			}
		case "splits":
			if s.isNull() {
				return true, true
			}
			return true, false // nested split shape: fall back
		case "core_utilization":
			if s.isNull() {
				dst.CoreUtilization = dst.CoreUtilization[:0]
				return true, true
			}
			if !s.delim('[') {
				return true, false
			}
			if s.delim(']') {
				return true, true
			}
			for {
				f, ok := s.number()
				if !ok {
					return true, false
				}
				dst.CoreUtilization = append(dst.CoreUtilization, f)
				if s.delim(',') {
					continue
				}
				return true, s.delim(']')
			}
		case "schedulable":
			if s.isNull() {
				return true, true
			}
			v, ok := s.boolean()
			sched, schedSet = v, true
			return true, ok
		case "probe_pending":
			v, ok := s.boolean()
			dst.ProbePending = v
			return true, ok
		}
		return false, !keyFolds(key, stateFieldNames)
	})
	if !ok || !s.eof() {
		return false
	}
	if !schedSet {
		dst.Schedulable = nil
	} else if dst.Schedulable != nil {
		*dst.Schedulable = sched
	} else {
		v := sched
		dst.Schedulable = &v
	}
	if len(dst.Tasks) == 0 {
		dst.Tasks = nil
	}
	if len(dst.CoreUtilization) == 0 {
		dst.CoreUtilization = nil
	}
	return true
}

// AppendSessionStats appends s's JSON encoding; !ok (name needs
// escaping, NaN/Inf rate) means fall back — the buffer then holds
// partial output and must be discarded.
func AppendSessionStats(b []byte, s *SessionStats) ([]byte, bool) {
	if !fastSafeString(s.Name) {
		return b, false
	}
	b = append(b, `{"name":"`...)
	b = append(b, s.Name...)
	b = append(b, `","tasks":`...)
	b = strconv.AppendInt(b, int64(s.Tasks), 10)
	b = append(b, `,"admitted":`...)
	b = strconv.AppendInt(b, s.Admitted, 10)
	b = append(b, `,"rejected":`...)
	b = strconv.AppendInt(b, s.Rejected, 10)
	b = append(b, `,"removed":`...)
	b = strconv.AppendInt(b, s.Removed, 10)
	b = append(b, `,"state_cache_hits":`...)
	b = strconv.AppendInt(b, s.StateCacheHits, 10)
	b = append(b, `,"state_cache_misses":`...)
	b = strconv.AppendInt(b, s.StateCacheMisses, 10)
	b = append(b, `,"admission":`...)
	b, ok := appendAdmissionStats(b, &s.Admission)
	if !ok {
		return b, false
	}
	return append(b, '}'), true
}

func appendAdmissionStats(b []byte, a *AdmissionStats) ([]byte, bool) {
	b = append(b, `{"probes":`...)
	b = strconv.AppendInt(b, a.Probes, 10)
	b = append(b, `,"full_tests":`...)
	b = strconv.AppendInt(b, a.FullTests, 10)
	b = append(b, `,"core_tests":`...)
	b = strconv.AppendInt(b, a.CoreTests, 10)
	b = append(b, `,"verdict_hits":`...)
	b = strconv.AppendInt(b, a.VerdictHits, 10)
	b = append(b, `,"fp_solves":`...)
	b = strconv.AppendInt(b, a.FPSolves, 10)
	b = append(b, `,"fp_iterations":`...)
	b = strconv.AppendInt(b, a.FPIterations, 10)
	b = append(b, `,"warm_starts":`...)
	b = strconv.AppendInt(b, a.WarmStarts, 10)
	b = append(b, `,"cache_hit_rate":`...)
	b, ok := appendJSONFloat(b, a.CacheHitRate)
	if !ok {
		return b, false
	}
	b = append(b, `,"mean_fp_iterations":`...)
	if b, ok = appendJSONFloat(b, a.MeanFPIterations); !ok {
		return b, false
	}
	b = append(b, `,"warm_start_rate":`...)
	if b, ok = appendJSONFloat(b, a.WarmStartRate); !ok {
		return b, false
	}
	return append(b, '}'), true
}

var sessionStatsFieldNames = []string{"name", "tasks", "admitted", "rejected", "removed", "state_cache_hits", "state_cache_misses", "admission"}
var admissionFieldNames = []string{"probes", "full_tests", "core_tests", "verdict_hits", "fp_solves", "fp_iterations", "warm_starts", "cache_hit_rate", "mean_fp_iterations", "warm_start_rate"}

// ParseSessionStats parses data into dst on the fast path. On !ok dst
// may hold partial results; zero it before falling back.
func ParseSessionStats(data []byte, dst *SessionStats) bool {
	s := fastScan{b: data}
	ok := s.fields(func(key []byte) (bool, bool) {
		var ok bool
		switch string(key) {
		case "name":
			raw, sok := s.str()
			if !sok {
				return true, false
			}
			setString(&dst.Name, raw)
			return true, true
		case "tasks":
			var v int64
			v, ok = s.integer()
			dst.Tasks = int(v)
		case "admitted":
			dst.Admitted, ok = s.integer()
		case "rejected":
			dst.Rejected, ok = s.integer()
		case "removed":
			dst.Removed, ok = s.integer()
		case "state_cache_hits":
			dst.StateCacheHits, ok = s.integer()
		case "state_cache_misses":
			dst.StateCacheMisses, ok = s.integer()
		case "admission":
			return true, s.parseAdmissionInto(&dst.Admission)
		default:
			return false, !keyFolds(key, sessionStatsFieldNames)
		}
		return true, ok
	})
	return ok && s.eof()
}

func (s *fastScan) parseAdmissionInto(a *AdmissionStats) bool {
	return s.fields(func(key []byte) (bool, bool) {
		var ok bool
		switch string(key) {
		case "probes":
			a.Probes, ok = s.integer()
		case "full_tests":
			a.FullTests, ok = s.integer()
		case "core_tests":
			a.CoreTests, ok = s.integer()
		case "verdict_hits":
			a.VerdictHits, ok = s.integer()
		case "fp_solves":
			a.FPSolves, ok = s.integer()
		case "fp_iterations":
			a.FPIterations, ok = s.integer()
		case "warm_starts":
			a.WarmStarts, ok = s.integer()
		case "cache_hit_rate":
			a.CacheHitRate, ok = s.number()
		case "mean_fp_iterations":
			a.MeanFPIterations, ok = s.number()
		case "warm_start_rate":
			a.WarmStartRate, ok = s.number()
		default:
			return false, !keyFolds(key, admissionFieldNames)
		}
		return true, ok
	})
}
