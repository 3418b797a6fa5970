package api

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// randTask draws tasks across the encoding edge cases: zero fields
// (omitempty), negative values, extremes, and names both safe and
// escape-requiring.
func randTask(rng *rand.Rand) Task {
	names := []string{"", "t", "load-0001", "αβ", "a\"b", "x<y>&z", "tab\tname", "plain_name-42"}
	pick := func() int64 {
		switch rng.Intn(5) {
		case 0:
			return 0
		case 1:
			return -int64(rng.Intn(1000))
		case 2:
			return math.MaxInt64
		case 3:
			return math.MinInt64
		default:
			return int64(rng.Intn(1_000_000_000))
		}
	}
	return Task{
		ID:         pick(),
		Name:       names[rng.Intn(len(names))],
		WCETNs:     pick(),
		PeriodNs:   pick(),
		DeadlineNs: pick(),
		Priority:   int(pick() % 100_000),
		WSS:        pick(),
		Core:       int(pick() % 64),
	}
}

func randAdmit(rng *rand.Rand) AdmitRequest {
	r := AdmitRequest{Task: randTask(rng), Hold: rng.Intn(2) == 0}
	if rng.Intn(2) == 0 {
		c := rng.Intn(8) - 2
		r.Core = &c
	}
	return r
}

func randVerdict(rng *rand.Rand) Verdict {
	return Verdict{
		TaskID:   int64(rng.Intn(1 << 30)),
		Admitted: rng.Intn(2) == 0,
		Core:     rng.Intn(10) - 2,
		Pending:  rng.Intn(2) == 0,
		Probes:   rng.Intn(100),
	}
}

// TestFastEncodersMatchStdlib: whenever the fast encoder claims
// success its bytes must equal json.Marshal exactly; whenever a value
// needs escaping it must decline.
func TestFastEncodersMatchStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		ar := randAdmit(rng)
		want, err := json.Marshal(&ar)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := AppendAdmitRequest(nil, &ar)
		if ok {
			if !bytes.Equal(got, want) {
				t.Fatalf("AppendAdmitRequest mismatch\n got %s\nwant %s", got, want)
			}
		} else if fastSafeString(ar.Task.Name) {
			t.Fatalf("AppendAdmitRequest declined safe input %+v", ar)
		}

		v := randVerdict(rng)
		want, _ = json.Marshal(&v)
		if got := AppendVerdict(nil, &v); !bytes.Equal(got, want) {
			t.Fatalf("AppendVerdict mismatch\n got %s\nwant %s", got, want)
		}

		rr := RemoveRequest{ID: ar.Task.ID}
		want, _ = json.Marshal(&rr)
		if got := AppendRemoveRequest(nil, &rr); !bytes.Equal(got, want) {
			t.Fatalf("AppendRemoveRequest mismatch\n got %s\nwant %s", got, want)
		}

		rm := Removed{Removed: v.Admitted, ID: ar.Task.ID}
		want, _ = json.Marshal(&rm)
		if got := AppendRemoved(nil, &rm); !bytes.Equal(got, want) {
			t.Fatalf("AppendRemoved mismatch\n got %s\nwant %s", got, want)
		}
	}
}

// TestFastParsersRoundTrip: stdlib-marshaled values must parse back
// identically on the fast path (or decline, never mis-parse).
func TestFastParsersRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		ar := randAdmit(rng)
		data, _ := json.Marshal(&ar)
		var got AdmitRequest
		if core, corePresent, ok := ParseAdmitRequest(data, &got); ok {
			if got.Core != nil {
				t.Fatalf("fast path attached Core itself on %s", data)
			}
			if corePresent {
				got.Core = &core
			}
			var want AdmitRequest
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatal(err)
			}
			if !admitEqual(got, want) {
				t.Fatalf("ParseAdmitRequest mismatch on %s\n got %+v\nwant %+v", data, got, want)
			}
		} else if fastSafeString(ar.Task.Name) && !bytes.Contains(data, []byte("-9223372036854775808")) {
			// MinInt64 overflows the fast accumulator and legitimately
			// falls back; everything else in this corpus must parse.
			t.Fatalf("ParseAdmitRequest declined %s", data)
		}

		v := randVerdict(rng)
		data, _ = json.Marshal(&v)
		var gv Verdict
		if !ParseVerdict(data, &gv) || gv != v {
			t.Fatalf("ParseVerdict failed on %s: %+v", data, gv)
		}

		rr := RemoveRequest{ID: ar.Task.ID}
		data, _ = json.Marshal(&rr)
		var gr RemoveRequest
		if ok := ParseRemoveRequest(data, &gr); ok && gr != rr {
			t.Fatalf("ParseRemoveRequest mismatch on %s: %+v", data, gr)
		} else if !ok && rr.ID != math.MinInt64 {
			t.Fatalf("ParseRemoveRequest declined %s", data)
		}

		rm := Removed{Removed: v.Pending, ID: v.TaskID}
		data, _ = json.Marshal(&rm)
		var gm Removed
		if !ParseRemoved(data, &gm) || gm != rm {
			t.Fatalf("ParseRemoved failed on %s: %+v", data, gm)
		}
	}
}

func admitEqual(a, b AdmitRequest) bool {
	if a.Task != b.Task || a.Hold != b.Hold {
		return false
	}
	if (a.Core == nil) != (b.Core == nil) {
		return false
	}
	return a.Core == nil || *a.Core == *b.Core
}

// TestFastParseEdgeCases pins hand-picked wire corner cases: unknown
// fields, whitespace, null core, duplicate keys, and inputs that must
// decline to the stdlib fallback.
func TestFastParseEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"minimal", `{"task":{"id":1,"wcet_ns":2,"period_ns":3}}`},
		{"whitespace", " {\n\t\"task\" : { \"id\" : 1 , \"wcet_ns\" : 2 , \"period_ns\" : 3 } , \"hold\" : true }\r\n"},
		{"unknown_fields", `{"v":2,"task":{"id":1,"wcet_ns":2,"period_ns":3,"labels":["a","b"],"meta":{"x":1.5}},"extra":null}`},
		{"core_null", `{"task":{"id":1,"wcet_ns":2,"period_ns":3},"core":null}`},
		{"core_set", `{"task":{"id":1,"wcet_ns":2,"period_ns":3},"core":2}`},
		{"core_then_null", `{"task":{"id":1,"wcet_ns":2,"period_ns":3},"core":2,"core":null}`},
		{"null_then_core", `{"task":{"id":1,"wcet_ns":2,"period_ns":3},"core":null,"core":3}`},
		{"dup_task_merge", `{"task":{"id":1,"wcet_ns":2,"period_ns":3},"task":{"id":9}}`},
		{"negative", `{"task":{"id":-5,"wcet_ns":2,"period_ns":3,"priority":-1}}`},
		{"empty_obj_task", `{"task":{}}`},
	}
	for _, tc := range cases {
		var want AdmitRequest
		wantErr := json.Unmarshal([]byte(tc.in), &want) != nil
		var got AdmitRequest
		core, corePresent, ok := ParseAdmitRequest([]byte(tc.in), &got)
		if !ok {
			t.Fatalf("%s: fast path declined valid input", tc.name)
		}
		if wantErr {
			t.Fatalf("%s: fast path accepted input stdlib rejects", tc.name)
		}
		if got.Core != nil {
			t.Fatalf("%s: fast path attached Core itself", tc.name)
		}
		if corePresent {
			got.Core = &core
		}
		if !admitEqual(got, want) {
			t.Fatalf("%s: mismatch\n got %+v core=%v\nwant %+v", tc.name, got, got.Core, want)
		}
	}

	declined := []string{
		``,
		`{`,
		`[]`,
		`{"task":{"id":1.5,"wcet_ns":2,"period_ns":3}}`,                  // float
		`{"task":{"id":1e3,"wcet_ns":2,"period_ns":3}}`,                  // exponent
		`{"task":{"id":01,"wcet_ns":2,"period_ns":3}}`,                   // leading zero
		`{"task":{"id":1,"wcet_ns":2,"period_ns":3}} tail`,               // trailing data
		`{"task":{"name":"a\"b","id":1,"wcet_ns":2,"period_ns":3}}`,      // escape in kept string
		`{"task":{"id":99999999999999999999,"wcet_ns":2,"period_ns":3}}`, // overflow
		`{"task":{"id":1,"wcet_ns":2,"period_ns":3},"hold":1}`,           // wrong type
		`{"task":{"id":1,"wcet_ns":2,"period_ns":3},`,                    // truncated
	}
	for _, in := range declined {
		var got AdmitRequest
		if _, _, ok := ParseAdmitRequest([]byte(in), &got); ok {
			t.Fatalf("fast path accepted %q (must decline to fallback)", in)
		}
		if got != (AdmitRequest{}) {
			t.Fatalf("declined parse of %q left dst dirty: %+v", in, got)
		}
	}

	// Malformed input the fast path skips over must also decline, so
	// the stdlib fallback owns all error reporting.
	badSkips := []string{
		`{"x":1.2.3,"task":{"id":1,"wcet_ns":2,"period_ns":3}}`,
		`{"x":"\q","task":{"id":1,"wcet_ns":2,"period_ns":3}}`,
		`{"x":[1,],"task":{"id":1,"wcet_ns":2,"period_ns":3}}`,
		`{"x":{"a":},"task":{"id":1,"wcet_ns":2,"period_ns":3}}`,
		`{"x":truth,"task":{"id":1,"wcet_ns":2,"period_ns":3}}`,
	}
	for _, in := range badSkips {
		var got AdmitRequest
		if _, _, ok := ParseAdmitRequest([]byte(in), &got); ok {
			t.Fatalf("fast path accepted malformed skip %q", in)
		}
	}
}

// nested returns a JSON value of d nested arrays.
func nested(d int) string { return strings.Repeat("[", d) + strings.Repeat("]", d) }

// withUnknown returns the object doc with an unknown field x holding v
// put first.
func withUnknown(doc, v string) []byte { return []byte(`{"x":` + v + `,` + doc[1:]) }

// deepDepth nests an unknown field one level past encoding/json's
// depth limit (10 000).
const deepDepth = 10001

// TestFastParseDepthBound pins every parser's nesting bound: an
// unknown field nested maxSkipDepth deep is still skipped, one level
// deeper is declined (encoding/json decodes it), and one past
// encoding/json's own limit is declined where the stdlib rejects it.
func TestFastParseDepthBound(t *testing.T) {
	parsers := []struct {
		name, doc string
		parse     func([]byte) bool
		std       func([]byte) error
	}{
		{"ParseAdmitRequest", `{"task":{"id":1,"wcet_ns":2,"period_ns":3}}`,
			func(b []byte) bool { _, _, ok := ParseAdmitRequest(b, new(AdmitRequest)); return ok },
			func(b []byte) error { return json.Unmarshal(b, new(AdmitRequest)) }},
		{"ParseRemoveRequest", `{"id":1}`,
			func(b []byte) bool { return ParseRemoveRequest(b, new(RemoveRequest)) },
			func(b []byte) error { return json.Unmarshal(b, new(RemoveRequest)) }},
		{"ParseVerdict", `{"task_id":1,"admitted":true,"core":0,"probes":1}`,
			func(b []byte) bool { return ParseVerdict(b, new(Verdict)) },
			func(b []byte) error { return json.Unmarshal(b, new(Verdict)) }},
		{"ParseRemoved", `{"removed":true,"id":1}`,
			func(b []byte) bool { return ParseRemoved(b, new(Removed)) },
			func(b []byte) error { return json.Unmarshal(b, new(Removed)) }},
		{"ParseState", `{"name":"r","cores":1,"policy":"fp","tasks":[{"id":1,"wcet_ns":2,"period_ns":3}],"core_utilization":[0.5]}`,
			func(b []byte) bool { return ParseState(b, new(State)) },
			func(b []byte) error { return json.Unmarshal(b, new(State)) }},
		{"ParseSessionStats", `{"name":"r","tasks":1,"admission":{"probes":2}}`,
			func(b []byte) bool { return ParseSessionStats(b, new(SessionStats)) },
			func(b []byte) error { return json.Unmarshal(b, new(SessionStats)) }},
	}
	for _, p := range parsers {
		t.Run(p.name, func(t *testing.T) {
			if !p.parse([]byte(p.doc)) {
				t.Fatalf("fast path declined the plain document %s", p.doc)
			}
			if !p.parse(withUnknown(p.doc, nested(maxSkipDepth))) {
				t.Fatalf("fast path declined an unknown field %d deep", maxSkipDepth)
			}
			past := withUnknown(p.doc, nested(maxSkipDepth+1))
			if p.parse(past) {
				t.Fatalf("fast path accepted an unknown field %d deep", maxSkipDepth+1)
			}
			if err := p.std(past); err != nil {
				t.Fatalf("stdlib rejects %d deep: %v", maxSkipDepth+1, err)
			}
			deep := withUnknown(p.doc, nested(deepDepth))
			if p.parse(deep) {
				t.Fatalf("fast path accepted an unknown field %d deep", deepDepth)
			}
			if p.std(deep) == nil {
				t.Fatalf("stdlib accepts an unknown field %d deep", deepDepth)
			}
		})
	}
}

// FuzzFastParseAdmit cross-checks the fast parser against
// encoding/json on arbitrary bytes: whenever the fast path accepts,
// stdlib must accept with the same value.
func FuzzFastParseAdmit(f *testing.F) {
	f.Add([]byte(`{"task":{"id":1,"wcet_ns":2,"period_ns":3},"core":0,"hold":true}`))
	f.Add([]byte(`{"task":{"name":"n","id":1,"wcet_ns":2,"period_ns":3},"core":null}`))
	f.Add([]byte(`{"task":{"id":-1,"wss":65536,"priority":7,"wcet_ns":2,"period_ns":3,"deadline_ns":4,"core":1}}`))
	f.Add([]byte(`{"z":[{"a":1},"s",1.25e-3,null,true],"task":{}}`))
	f.Add(withUnknown(`{"task":{"id":1,"wcet_ns":2,"period_ns":3}}`, nested(deepDepth)))
	f.Add([]byte(`{"task":{"id":9223372036854775808,"wcet_ns":2,"period_ns":3}}`))
	f.Add([]byte(`{"task":{"id":-0,"wcet_ns":2,"period_ns":3},"core":-0}`))
	f.Add([]byte(`{"task":{"id":1e2,"wcet_ns":2,"period_ns":3}}`))
	f.Add([]byte(`{"x":1e400,"task":{"id":1,"wcet_ns":1e400,"period_ns":3}}`))
	f.Add([]byte("{\"task\":{\"name\":\"\xee\",\"id\":1,\"wcet_ns\":2,\"period_ns\":3}}"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var got AdmitRequest
		core, corePresent, ok := ParseAdmitRequest(data, &got)
		if !ok {
			return
		}
		if corePresent {
			got.Core = &core
		}
		var want AdmitRequest
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("fast path accepted %q but stdlib rejects: %v", data, err)
		}
		if !admitEqual(got, want) {
			t.Fatalf("divergence on %q\n got %+v\nwant %+v", data, got, want)
		}
	})
}

// FuzzFastParseVerdict does the same for the response side.
func FuzzFastParseVerdict(f *testing.F) {
	f.Add([]byte(`{"task_id":1,"admitted":true,"core":0,"probes":3}`))
	f.Add([]byte(`{"task_id":1,"admitted":false,"core":-1,"pending":true,"probes":0}`))
	f.Add(withUnknown(`{"task_id":1,"admitted":true}`, nested(deepDepth)))
	f.Add([]byte(`{"task_id":-9223372036854775809,"admitted":true}`))
	f.Add([]byte(`{"task_id":-0,"core":-0}`))
	f.Add([]byte(`{"task_id":1e2,"probes":1}`))
	f.Add([]byte(`{"x":1e400,"task_id":1e400}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var got Verdict
		if !ParseVerdict(data, &got) {
			return
		}
		var want Verdict
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("fast path accepted %q but stdlib rejects: %v", data, err)
		}
		if got != want {
			t.Fatalf("divergence on %q: got %+v want %+v", data, got, want)
		}
	})
}

// TestAppendJSONFloatMatchesStdlib pins the float encoder to
// encoding/json's exact rendering — shortest round-trip form, 'e'
// notation outside [1e-6, 1e21), exponent zero-trim — over the
// boundary corpus and a large random sweep. NaN/Inf must decline
// (json.Marshal errors there; the fallback produces that error).
func TestAppendJSONFloatMatchesStdlib(t *testing.T) {
	corpus := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, -0.5, 0.1, 1.0 / 3.0,
		1e-6, 9.999999e-7, 1e-7, 2e-6,
		1e21, 9.99999e20, 1.0000001e21, 1e22, 5e-324,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		1e-100, 1e100, 123456789.123456789, 0.30000000000000004,
		42, -42, 1.25e-3, 2.5e308 / 2,
	}
	check := func(f float64) {
		t.Helper()
		got, ok := appendJSONFloat(nil, f)
		want, err := json.Marshal(f)
		if err != nil {
			if ok {
				t.Fatalf("appendJSONFloat(%v) ok, but json.Marshal errors: %v", f, err)
			}
			return
		}
		if !ok {
			t.Fatalf("appendJSONFloat(%v) declined, but json.Marshal renders %s", f, want)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("appendJSONFloat(%v) = %s, json.Marshal = %s", f, got, want)
		}
	}
	for _, f := range corpus {
		check(f)
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, ok := appendJSONFloat(nil, f); ok {
			t.Fatalf("appendJSONFloat(%v) must decline", f)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		switch rng.Intn(4) {
		case 0:
			check(rng.Float64())
		case 1:
			check((rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(44)-22)))
		case 2:
			check(math.Float64frombits(rng.Uint64())) // covers NaN/Inf bit patterns too
		default:
			check(float64(rng.Int63n(1<<53)) * math.Pow(10, float64(rng.Intn(10)-5)))
		}
	}
}

func randState(rng *rand.Rand) State {
	st := State{
		Name:   []string{"", "rack1", "s-99", "αβ", "a\"b"}[rng.Intn(5)],
		Cores:  rng.Intn(9),
		Policy: []string{"fp", "edf", ""}[rng.Intn(3)],
	}
	for i, n := 0, rng.Intn(5); i < n; i++ {
		st.Tasks = append(st.Tasks, randTask(rng))
	}
	for i, n := 0, rng.Intn(5); i < n; i++ {
		st.CoreUtilization = append(st.CoreUtilization, rng.Float64()*1.5)
	}
	if rng.Intn(2) == 0 {
		v := rng.Intn(2) == 0
		st.Schedulable = &v
	}
	st.ProbePending = rng.Intn(4) == 0
	return st
}

// parseSafe reports whether json.Marshal renders s with no escape
// sequences — the fast scanner's str() declines on '\\', so only
// escape-free strings stay on the fast parse path (non-ASCII is fine:
// stdlib emits raw UTF-8 for it).
func parseSafe(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// stateEqual compares semantically: ParseState normalizes empty
// slices to nil (capacity reuse), so nilness of length-0 slices is
// not significant; Schedulable compares by presence + value.
func stateEqual(a, b State) bool {
	if a.Name != b.Name || a.Cores != b.Cores || a.Policy != b.Policy || a.ProbePending != b.ProbePending {
		return false
	}
	if len(a.Tasks) != len(b.Tasks) || len(a.Splits) != len(b.Splits) || len(a.CoreUtilization) != len(b.CoreUtilization) {
		return false
	}
	for i := range a.Tasks {
		if a.Tasks[i] != b.Tasks[i] {
			return false
		}
	}
	for i := range a.CoreUtilization {
		if a.CoreUtilization[i] != b.CoreUtilization[i] {
			return false
		}
	}
	if (a.Schedulable == nil) != (b.Schedulable == nil) {
		return false
	}
	return a.Schedulable == nil || *a.Schedulable == *b.Schedulable
}

// TestStateFastParseDifferential round-trips random States through
// json.Marshal and the fast parser, comparing against json.Unmarshal.
// The same dst is reused across iterations to exercise the
// capacity-reuse path (stale Tasks/Schedulable backing must not leak
// into the next parse). States carrying splits must decline.
func TestStateFastParseDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var got State // reused on purpose: capacity-reuse path
	for i := 0; i < 500; i++ {
		st := randState(rng)
		data, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		// The fast path may decline on escape-carrying strings and on
		// MinInt64 fields (integer() declines it to avoid the uint64
		// wrap check) — both fall back to stdlib, neither is a bug.
		mayDecline := !parseSafe(st.Name) || !parseSafe(st.Policy)
		for _, tk := range st.Tasks {
			mayDecline = mayDecline || !parseSafe(tk.Name) ||
				tk.ID == math.MinInt64 || tk.WCETNs == math.MinInt64 ||
				tk.PeriodNs == math.MinInt64 || tk.DeadlineNs == math.MinInt64 ||
				tk.WSS == math.MinInt64
		}
		if !ParseState(data, &got) {
			if !mayDecline {
				t.Fatalf("fast path declined parsable stdlib output %s", data)
			}
			got = State{} // contract: zero dst before falling back
			continue
		}
		var want State
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
		if !stateEqual(got, want) {
			t.Fatalf("divergence on %s\n got %+v\nwant %+v", data, got, want)
		}
	}

	// Splits are the cold nested shape: always fall back.
	withSplits := State{Name: "s", Cores: 2, Splits: []Split{{Task: Task{ID: 1}, Parts: nil}}}
	data, err := json.Marshal(withSplits)
	if err != nil {
		t.Fatal(err)
	}
	var dst State
	if ParseState(data, &dst) {
		t.Fatalf("fast path must decline states carrying splits: %s", data)
	}
	// But an explicit null splits key is fine.
	if !ParseState([]byte(`{"name":"s","cores":1,"policy":"fp","tasks":null,"splits":null,"core_utilization":null}`), &dst) {
		t.Fatal("fast path declined null splits")
	}
}

// FuzzFastParseState cross-checks ParseState against encoding/json on
// arbitrary bytes: whenever the fast path accepts, stdlib must accept
// with the same value.
func FuzzFastParseState(f *testing.F) {
	f.Add([]byte(`{"name":"r","cores":4,"policy":"fp","tasks":[{"id":1,"wcet_ns":2,"period_ns":3}],"core_utilization":[0.25,0],"schedulable":true}`))
	f.Add([]byte(`{"name":"","cores":0,"policy":"edf","tasks":[],"core_utilization":[1e-7],"probe_pending":true}`))
	f.Add([]byte(`{"name":"r","cores":1,"policy":"fp","tasks":null,"core_utilization":null,"schedulable":null}`))
	f.Add(withUnknown(`{"name":"r","cores":1,"policy":"fp"}`, nested(deepDepth)))
	f.Add([]byte(`{"name":"r","cores":9223372036854775808,"policy":"fp"}`))
	f.Add([]byte(`{"name":"r","cores":-0,"policy":"fp","tasks":[{"id":-0,"wcet_ns":2,"period_ns":3}]}`))
	f.Add([]byte(`{"name":"r","cores":1e2,"policy":"fp"}`))
	f.Add([]byte(`{"name":"r","cores":1,"policy":"fp","core_utilization":[1e400]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var got State
		if !ParseState(data, &got) {
			return
		}
		var want State
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("fast path accepted %q but stdlib rejects: %v", data, err)
		}
		if !stateEqual(got, want) {
			t.Fatalf("divergence on %q\n got %+v\nwant %+v", data, got, want)
		}
	})
}

func randSessionStats(rng *rand.Rand) SessionStats {
	i64 := func() int64 { return int64(rng.Intn(1 << 20)) }
	rate := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return rng.Float64()
		case 2:
			return rng.Float64() * 1e-7 // forces 'e' notation
		default:
			return float64(rng.Intn(100)) / 7.0
		}
	}
	return SessionStats{
		Name:     []string{"rack1", "s", "", "a\"b", "αβ"}[rng.Intn(5)],
		Tasks:    rng.Intn(100),
		Admitted: i64(), Rejected: i64(), Removed: i64(),
		StateCacheHits: i64(), StateCacheMisses: i64(),
		Admission: AdmissionStats{
			Probes: i64(), FullTests: i64(), CoreTests: i64(),
			VerdictHits: i64(), FPSolves: i64(), FPIterations: i64(),
			WarmStarts: i64(), CacheHitRate: rate(),
			MeanFPIterations: rate(), WarmStartRate: rate(),
		},
	}
}

// TestSessionStatsCodecDifferential pins both directions of the stats
// codec: AppendSessionStats must be byte-identical to json.Marshal
// whenever it accepts (declining exactly the escape-requiring names),
// and ParseSessionStats must agree with json.Unmarshal, including
// reused-destination parses.
func TestSessionStatsCodecDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var got SessionStats // reused on purpose
	for i := 0; i < 500; i++ {
		s := randSessionStats(rng)
		want, err := json.Marshal(&s)
		if err != nil {
			t.Fatal(err)
		}
		enc, ok := AppendSessionStats(nil, &s)
		if safe := fastSafeString(s.Name); ok != safe {
			t.Fatalf("AppendSessionStats ok=%v for name %q (fastSafeString=%v)", ok, s.Name, safe)
		}
		if ok && !bytes.Equal(enc, want) {
			t.Fatalf("encoder divergence\n got %s\nwant %s", enc, want)
		}
		if !ParseSessionStats(want, &got) {
			if parseSafe(s.Name) {
				t.Fatalf("fast path declined escape-free stdlib output %s", want)
			}
			got = SessionStats{} // contract: zero dst before falling back
			continue
		}
		if got != s {
			t.Fatalf("parse divergence on %s\n got %+v\nwant %+v", want, got, s)
		}
	}
	// NaN rate: encoder declines (json.Marshal would error).
	bad := SessionStats{Name: "s", Admission: AdmissionStats{CacheHitRate: math.NaN()}}
	if _, ok := AppendSessionStats(nil, &bad); ok {
		t.Fatal("AppendSessionStats must decline NaN rates")
	}
}
