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

// ws skips whitespace. Every byte above ' ' ends it at one compare:
// the encoders write none.
func (s *fastScan) ws() {
	for s.i < len(s.b) {
		switch c := s.b[s.i]; {
		case c > ' ':
			return
		case c == ' ', c == '\t', c == '\n', c == '\r':
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
// zeros, no overflow — anything else falls back). The digits run in a
// tight loop over locals, two at a time, which halves the chain of
// dependent multiplies.
func (s *fastScan) integer() (int64, bool) {
	if s.i < len(s.b) && s.b[s.i] <= ' ' {
		s.ws()
	}
	b, i := s.b, s.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var v uint64
	for ; i+1 < len(b); i += 2 {
		d0, d1 := b[i]-'0', b[i+1]-'0'
		if d0 > 9 || d1 > 9 {
			break
		}
		v = v*100 + uint64(d0)*10 + uint64(d1)
	}
	if i < len(b) {
		if d := b[i] - '0'; d <= 9 {
			v = v*10 + uint64(d)
			i++
		}
	}
	s.i = i
	n := i - start
	// ≤18 digits cannot exceed MaxInt64; 19 digits cannot wrap uint64,
	// so one range check suffices (20+ digits and MinInt64 decline to
	// the stdlib fallback, as before).
	if n == 0 || (n > 1 && b[start] == '0') || n > 19 || (n == 19 && v > math.MaxInt64) {
		return 0, false
	}
	if i < len(b) {
		switch b[i] {
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

// fieldTable is one shape's fields in the order its encoder writes
// them: the names, and each key as the encoder writes it, quotes and
// colon included, which is what fields compares first.
type fieldTable struct {
	names []string
	keys  []string
}

func newFieldTable(names ...string) *fieldTable {
	t := &fieldTable{names: names}
	for _, n := range names {
		t.keys = append(t.keys, `"`+n+`":`)
	}
	return t
}

// fields iterates an object's key/value pairs: f parses the value of
// field k (an index into t) and reports success. Unknown keys are
// skipped whole, and a key that folds onto a field name declines (see
// keyFolds).
//
// Before it scans a key, fields compares the input directly with the
// keys the encoder can write next — t's keys from the one after the
// last field seen on — so a body in encoder order costs one
// comparison per key, with no key scan and no name lookup. Any other
// key order, escapes or spacing takes the scan; the result is the
// same.
func (s *fastScan) fields(t *fieldTable, f func(k int) bool) bool {
	if !s.delim('{') {
		return false
	}
	if s.delim('}') {
		return true
	}
	next := 0
	for {
		s.ws()
		k := s.predictKey(t, next)
		if k < 0 {
			key, ok := s.str()
			if !ok {
				return false
			}
			if k = fieldIndex(t.names, key); k < 0 && keyFolds(key, t.names) {
				return false
			}
			if !s.delim(':') {
				return false
			}
		}
		if k >= 0 {
			if !f(k) {
				return false
			}
			next = k + 1
		} else if !s.skipValue(0) {
			return false
		}
		if s.delim(',') {
			continue
		}
		return s.delim('}')
	}
}

// predictKey consumes the key and colon at s.i when they are one of
// t.keys[next:] byte for byte, and returns its index; -1 (nothing
// consumed) otherwise.
func (s *fastScan) predictKey(t *fieldTable, next int) int {
	rest := s.b[s.i:]
	for k := next; k < len(t.keys); k++ {
		if key := t.keys[k]; len(rest) >= len(key) && string(rest[:len(key)]) == key {
			s.i += len(key)
			return k
		}
	}
	return -1
}

// fieldIndex is the index of key in names, -1 when absent.
func fieldIndex(names []string, key []byte) int {
	for k, n := range names {
		if string(key) == n {
			return k
		}
	}
	return -1
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

// Field tables, one per shape, each in its encoder's key order (the
// order fields predicts), with the indices the parsers switch on.
var (
	taskFields    = newFieldTable("id", "name", "wcet_ns", "period_ns", "deadline_ns", "priority", "wss", "core")
	admitFields   = newFieldTable("task", "core", "hold")
	removeFields  = newFieldTable("id")
	verdictFields = newFieldTable("task_id", "admitted", "core", "pending", "probes")
	removedFields = newFieldTable("removed", "id")
)

const (
	taskID = iota
	taskName
	taskWCET
	taskPeriod
	taskDeadline
	taskPriority
	taskWSS
	taskCore
)

const (
	admitTask = iota
	admitCore
	admitHold
)

const (
	verdictTaskID = iota
	verdictAdmitted
	verdictCore
	verdictPending
	verdictProbes
)

// parseTaskInto parses a Task object in place (t starts zeroed by the
// callers).
func (s *fastScan) parseTaskInto(t *Task) bool {
	return s.fields(taskFields, func(k int) bool {
		if k == taskName {
			raw, ok := s.str()
			if ok {
				t.Name = string(raw)
			}
			return ok
		}
		v, ok := s.integer()
		switch k {
		case taskID:
			t.ID = v
		case taskWCET:
			t.WCETNs = v
		case taskPeriod:
			t.PeriodNs = v
		case taskDeadline:
			t.DeadlineNs = v
		case taskPriority:
			t.Priority = int(v)
		case taskWSS:
			t.WSS = v
		case taskCore:
			t.Core = int(v)
		}
		return ok
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
	fieldsOK := s.fields(admitFields, func(k int) bool {
		switch k {
		case admitTask:
			return s.parseTaskInto(&req.Task)
		case admitCore:
			if s.isNull() {
				corePresent = false // last key wins: null resets the pointer
				return true
			}
			v, ok := s.integer()
			if !ok || v != int64(int(v)) {
				return false
			}
			coreVal, corePresent = v, true
			return true
		default:
			b, ok := s.boolean()
			req.Hold = b
			return ok
		}
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
	ok := s.fields(removeFields, func(int) bool {
		v, ok := s.integer()
		req.ID = v
		return ok
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
	ok := s.fields(verdictFields, func(k int) bool {
		var ok bool
		switch k {
		case verdictTaskID:
			v.TaskID, ok = s.integer()
		case verdictAdmitted:
			v.Admitted, ok = s.boolean()
		case verdictCore:
			var n int64
			n, ok = s.integer()
			v.Core = int(n)
		case verdictPending:
			v.Pending, ok = s.boolean()
		default:
			var n int64
			n, ok = s.integer()
			v.Probes = int(n)
		}
		return ok
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
	ok := s.fields(removedFields, func(k int) bool {
		var ok bool
		if k == 0 {
			r.Removed, ok = s.boolean()
		} else {
			r.ID, ok = s.integer()
		}
		return ok
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

// stateFields is State's field table, in the order AppendState writes
// the keys.
var stateFields = newFieldTable("name", "cores", "policy", "tasks", "splits", "core_utilization", "schedulable", "probe_pending")

const (
	stateName = iota
	stateCores
	statePolicy
	stateTasks
	stateSplits
	stateUtilization
	stateSchedulable
	stateProbePending
)

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
	ok := s.fields(stateFields, func(k int) bool {
		switch k {
		case stateName, statePolicy:
			raw, ok := s.str()
			if !ok {
				return false
			}
			if k == stateName {
				setString(&dst.Name, raw)
			} else {
				setString(&dst.Policy, raw)
			}
			return true
		case stateCores:
			v, ok := s.integer()
			dst.Cores = int(v)
			return ok
		case stateTasks:
			if s.isNull() {
				dst.Tasks = dst.Tasks[:0]
				return true
			}
			if !s.delim('[') {
				return false
			}
			if s.delim(']') {
				return true
			}
			for {
				dst.Tasks = append(dst.Tasks, Task{})
				if !s.parseTaskInto(&dst.Tasks[len(dst.Tasks)-1]) {
					return false
				}
				if s.delim(',') {
					continue
				}
				return s.delim(']')
			}
		case stateSplits:
			return s.isNull() // a nested split shape falls back
		case stateUtilization:
			if s.isNull() {
				dst.CoreUtilization = dst.CoreUtilization[:0]
				return true
			}
			if !s.delim('[') {
				return false
			}
			if s.delim(']') {
				return true
			}
			for {
				f, ok := s.number()
				if !ok {
					return false
				}
				dst.CoreUtilization = append(dst.CoreUtilization, f)
				if s.delim(',') {
					continue
				}
				return s.delim(']')
			}
		case stateSchedulable:
			if s.isNull() {
				return true
			}
			v, ok := s.boolean()
			sched, schedSet = v, true
			return ok
		default:
			v, ok := s.boolean()
			dst.ProbePending = v
			return ok
		}
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

// StateEncoder appends a State's encoding without a State: Head, then
// Task per task and Split per split in order, then Utilization. What
// it holds then is the encoding through "core_utilization", a prefix
// that AppendStateTail completes. A server encodes a state from its
// own model this way, into exactly the bytes AppendState (and so
// json.Marshal) writes for the equivalent State. Ok is false when
// the encoder declined: a string needing escaping or a NaN/Inf
// utilization. B then holds partial output.
type StateEncoder struct {
	B  []byte
	Ok bool

	tasksOpen     bool // "tasks" holds an array, not null
	tasks, splits int
}

// Head starts the encoding: name, cores, policy, and the tasks key.
func (e *StateEncoder) Head(name string, cores int, policy string) {
	e.Ok = fastSafeString(name) && fastSafeString(policy)
	if !e.Ok {
		return
	}
	e.B = append(e.B, `{"name":"`...)
	e.B = append(e.B, name...)
	e.B = append(e.B, `","cores":`...)
	e.B = strconv.AppendInt(e.B, int64(cores), 10)
	e.B = append(e.B, `,"policy":"`...)
	e.B = append(e.B, policy...)
	e.B = append(e.B, `","tasks":`...)
}

// openTasks makes "tasks" an array even if no Task follows (a
// non-nil, empty Tasks slice); with neither it encodes as null.
func (e *StateEncoder) openTasks() {
	if e.Ok && !e.tasksOpen {
		e.B = append(e.B, '[')
		e.tasksOpen = true
	}
}

// Task appends one element of "tasks".
func (e *StateEncoder) Task(t *Task) {
	if !e.Ok {
		return
	}
	if e.tasks > 0 {
		e.B = append(e.B, ',')
	} else {
		e.openTasks()
	}
	e.tasks++
	e.B, e.Ok = appendTaskJSON(e.B, t)
}

// closeTasks ends the "tasks" value before the next key.
func (e *StateEncoder) closeTasks() {
	if e.tasksOpen {
		e.B = append(e.B, ']')
	} else {
		e.B = append(e.B, "null"...)
	}
}

// Split appends one element of "splits" (omitted when none).
func (e *StateEncoder) Split(sp *Split) {
	if !e.Ok {
		return
	}
	if e.splits == 0 {
		e.closeTasks()
		e.B = append(e.B, `,"splits":[`...)
	} else {
		e.B = append(e.B, ',')
	}
	e.splits++
	e.B, e.Ok = appendSplitJSON(e.B, sp)
}

// Utilization closes what came before and appends
// "core_utilization"; u == nil encodes as null.
func (e *StateEncoder) Utilization(u []float64) {
	if !e.Ok {
		return
	}
	if e.splits == 0 {
		e.closeTasks()
	} else {
		e.B = append(e.B, ']')
	}
	e.B = append(e.B, `,"core_utilization":`...)
	if u == nil {
		e.B = append(e.B, "null"...)
		return
	}
	e.B = append(e.B, '[')
	for i, f := range u {
		if i > 0 {
			e.B = append(e.B, ',')
		}
		if e.B, e.Ok = appendJSONFloat(e.B, f); !e.Ok {
			return
		}
	}
	e.B = append(e.B, ']')
}

// AppendStateTail completes a StateEncoder prefix with the two
// optional trailing fields.
func AppendStateTail(b []byte, schedulable *bool, probePending bool) []byte {
	if schedulable != nil {
		b = append(b, `,"schedulable":`...)
		b = strconv.AppendBool(b, *schedulable)
	}
	if probePending {
		b = append(b, `,"probe_pending":true`...)
	}
	return append(b, '}')
}

// AppendState appends st's JSON encoding, byte-identical to
// json.Marshal; !ok (a string needing escaping, a NaN/Inf
// utilization) means fall back — the buffer then holds partial output
// and must be discarded.
func AppendState(b []byte, st *State) ([]byte, bool) {
	e := StateEncoder{B: b}
	e.Head(st.Name, st.Cores, st.Policy)
	if st.Tasks != nil {
		e.openTasks()
	}
	for i := range st.Tasks {
		e.Task(&st.Tasks[i])
	}
	for i := range st.Splits {
		e.Split(&st.Splits[i])
	}
	e.Utilization(st.CoreUtilization)
	if !e.Ok {
		return e.B, false
	}
	return AppendStateTail(e.B, st.Schedulable, st.ProbePending), true
}

// appendSplitJSON appends sp; !ok when the task's name needs escaping.
func appendSplitJSON(b []byte, sp *Split) ([]byte, bool) {
	b = append(b, `{"task":`...)
	b, ok := appendTaskJSON(b, &sp.Task)
	if !ok {
		return b, false
	}
	b = append(b, `,"parts":`...)
	if sp.Parts == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, p := range sp.Parts {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"core":`...)
			b = strconv.AppendInt(b, int64(p.Core), 10)
			b = append(b, `,"budget_ns":`...)
			b = strconv.AppendInt(b, p.BudgetNs, 10)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if len(sp.WindowsNs) > 0 {
		b = append(b, `,"windows_ns":[`...)
		for i, w := range sp.WindowsNs {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, w, 10)
		}
		b = append(b, ']')
	}
	return append(b, '}'), true
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

var (
	sessionStatsFields = newFieldTable("name", "tasks", "admitted", "rejected", "removed", "state_cache_hits", "state_cache_misses", "admission")
	admissionFields    = newFieldTable("probes", "full_tests", "core_tests", "verdict_hits", "fp_solves", "fp_iterations", "warm_starts", "cache_hit_rate", "mean_fp_iterations", "warm_start_rate")
)

const (
	statsName = iota
	statsTasks
	statsAdmitted
	statsRejected
	statsRemoved
	statsCacheHits
	statsCacheMisses
	statsAdmission
)

// ParseSessionStats parses data into dst on the fast path. On !ok dst
// may hold partial results; zero it before falling back.
func ParseSessionStats(data []byte, dst *SessionStats) bool {
	s := fastScan{b: data}
	ok := s.fields(sessionStatsFields, func(k int) bool {
		switch k {
		case statsName:
			raw, ok := s.str()
			if ok {
				setString(&dst.Name, raw)
			}
			return ok
		case statsAdmission:
			return s.parseAdmissionInto(&dst.Admission)
		}
		v, ok := s.integer()
		switch k {
		case statsTasks:
			dst.Tasks = int(v)
		case statsAdmitted:
			dst.Admitted = v
		case statsRejected:
			dst.Rejected = v
		case statsRemoved:
			dst.Removed = v
		case statsCacheHits:
			dst.StateCacheHits = v
		case statsCacheMisses:
			dst.StateCacheMisses = v
		}
		return ok
	})
	return ok && s.eof()
}

func (s *fastScan) parseAdmissionInto(a *AdmissionStats) bool {
	ints := [...]*int64{&a.Probes, &a.FullTests, &a.CoreTests, &a.VerdictHits, &a.FPSolves, &a.FPIterations, &a.WarmStarts}
	rates := [...]*float64{&a.CacheHitRate, &a.MeanFPIterations, &a.WarmStartRate}
	return s.fields(admissionFields, func(k int) bool {
		var ok bool
		if k < len(ints) {
			*ints[k], ok = s.integer()
		} else {
			*rates[k-len(ints)], ok = s.number()
		}
		return ok
	})
}
