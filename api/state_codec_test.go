package api

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// state20 is a committed state as the daemon serves it: 20 tasks of
// generated magnitudes (periods 10–600 ms, working sets up to 2 MiB)
// on 4 cores, one utilization per core.
func state20() State {
	rng := rand.New(rand.NewSource(1))
	st := State{Name: "bench-3", Cores: 4, Policy: "fp"}
	util := make([]float64, 4)
	for i := 0; i < 20; i++ {
		period := 10_000_000 + rng.Int63n(590_000_000)
		wcet := 1 + rng.Int63n(period/4)
		core := i % 4
		st.Tasks = append(st.Tasks, Task{
			ID:       int64(i + 1),
			WCETNs:   wcet,
			PeriodNs: period,
			Priority: i + 1,
			WSS:      rng.Int63n(2 << 20),
			Core:     core,
		})
		util[core] += float64(wcet) / float64(period)
	}
	st.CoreUtilization = util
	sched := true
	st.Schedulable = &sched
	return st
}

// BenchmarkParseState20 prices ParseState on the served 20-task body,
// parsed into one reused destination as client.StateInto does.
func BenchmarkParseState20(b *testing.B) {
	st := state20()
	data, err := json.Marshal(&st)
	if err != nil {
		b.Fatal(err)
	}
	var dst State
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !ParseState(data, &dst) {
			b.Fatal("ParseState declined the served body")
		}
	}
}

// BenchmarkAppendState20 prices AppendState on the same state.
func BenchmarkAppendState20(b *testing.B) {
	st := state20()
	buf := make([]byte, 0, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var ok bool
		if buf, ok = AppendState(buf[:0], &st); !ok {
			b.Fatal("AppendState declined")
		}
	}
	b.SetBytes(int64(len(buf)))
}

// fuzzReader hands out a fuzz input's bytes as choices; past the end
// every choice is zero.
type fuzzReader []byte

func (r *fuzzReader) byte() byte {
	if len(*r) == 0 {
		return 0
	}
	c := (*r)[0]
	*r = (*r)[1:]
	return c
}

func (r *fuzzReader) u64() uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(r.byte()) << (8 * i)
	}
	return v
}

// int picks zero, a small value, a full 64-bit value or a 32-bit one.
func (r *fuzzReader) int() int64 {
	switch r.byte() % 4 {
	case 0:
		return 0
	case 1:
		return int64(int8(r.byte()))
	case 2:
		return int64(r.u64())
	default:
		return int64(int32(r.u64()))
	}
}

// str picks a plain name, one that needs escaping, or up to 7 raw
// bytes.
func (r *fuzzReader) str() string {
	c := r.byte()
	if c&0x80 != 0 {
		b := make([]byte, int(c&7))
		for i := range b {
			b[i] = r.byte()
		}
		return string(b)
	}
	names := []string{"", "bench-3", "fp", "edf", "a/b c", "αβ", `q"t`, "x<y>&z", "tab\tname", " "}
	return names[int(c)%len(names)]
}

// float picks an arbitrary bit pattern (NaN, Inf, subnormals), a
// utilization, or a value json.Marshal writes in e-form.
func (r *fuzzReader) float() float64 {
	switch r.byte() % 3 {
	case 0:
		return math.Float64frombits(r.u64())
	case 1:
		return float64(r.byte()) / 97
	default:
		return float64(int8(r.byte())) * 1e-9
	}
}

func (r *fuzzReader) task() Task {
	return Task{ID: r.int(), Name: r.str(), WCETNs: r.int(), PeriodNs: r.int(), DeadlineNs: r.int(),
		Priority: int(int32(r.int())), WSS: r.int(), Core: int(int32(r.int()))}
}

// state decodes one State. Tasks, parts and utilizations may each be
// nil, empty or filled; splits are absent or filled.
func (r *fuzzReader) state() State {
	st := State{Name: r.str(), Cores: int(int8(r.byte())), Policy: r.str()}
	if c := r.byte(); c%4 == 1 {
		st.Tasks = []Task{}
	} else if c%4 > 1 {
		for n := int(c>>2) % 6; n > 0; n-- {
			st.Tasks = append(st.Tasks, r.task())
		}
	}
	for n := int(r.byte()) % 3; n > 0; n-- {
		sp := Split{Task: r.task()}
		if c := r.byte(); c%3 == 1 {
			sp.Parts = []Part{}
		} else if c%3 == 2 {
			for k := int(c>>2)%3 + 1; k > 0; k-- {
				sp.Parts = append(sp.Parts, Part{Core: int(int8(r.byte())), BudgetNs: r.int()})
			}
		}
		for k := int(r.byte()) % 3; k > 0; k-- {
			sp.WindowsNs = append(sp.WindowsNs, r.int())
		}
		st.Splits = append(st.Splits, sp)
	}
	if c := r.byte(); c%3 == 1 {
		st.CoreUtilization = []float64{}
	} else if c%3 == 2 {
		for n := int(c>>2)%5 + 1; n > 0; n-- {
			st.CoreUtilization = append(st.CoreUtilization, r.float())
		}
	}
	switch r.byte() % 3 {
	case 1:
		v := true
		st.Schedulable = &v
	case 2:
		v := false
		st.Schedulable = &v
	}
	st.ProbePending = r.byte()%2 == 1
	return st
}

// declineReason names why AppendState may decline st: a string that
// fastSafeString refuses or a utilization json.Marshal cannot encode.
func declineReason(st *State) string {
	strs := []string{st.Name, st.Policy}
	for _, t := range st.Tasks {
		strs = append(strs, t.Name)
	}
	for _, sp := range st.Splits {
		strs = append(strs, sp.Task.Name)
	}
	for _, s := range strs {
		if !fastSafeString(s) {
			return "name needs escaping"
		}
	}
	for _, f := range st.CoreUtilization {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return "NaN/Inf utilization"
		}
	}
	return ""
}

// FuzzAppendState checks AppendState against json.Marshal on decoded
// states: equal bytes, or a decline for one of the stated reasons.
// The committed corpus covers nil and empty tasks, a split-only
// state, names that need escaping, e-form floats and NaN.
func FuzzAppendState(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r := fuzzReader(data)
		st := r.state()
		want, err := json.Marshal(&st)
		got, ok := AppendState(nil, &st)
		reason := declineReason(&st)
		switch {
		case ok && err != nil:
			t.Fatalf("AppendState encoded %+v, which json.Marshal refuses: %v", st, err)
		case ok && !bytes.Equal(got, want):
			t.Fatalf("AppendState diverges on %+v\n got %s\nwant %s", st, got, want)
		case ok && reason != "":
			t.Fatalf("AppendState encoded %+v though %s", st, reason)
		case !ok && reason == "":
			t.Fatalf("AppendState declined %+v for no stated reason", st)
		}
		// Its output parses back on the fast path whenever the state has
		// no splits and nothing the parser leaves to the fallback.
		if ok && len(st.Splits) == 0 {
			var back State
			if ParseState(got, &back) && !stateEqual(back, st) {
				t.Fatalf("ParseState(AppendState(%+v)) = %+v", st, back)
			}
		}
	})
}
