package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// metricDef declares one metric: its unit and which way is better.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd lists the end-to-end metrics every workload reports (the
// same list BENCHMARK.json declares, in the same order). An "op" is a
// request on the serve workloads and a task set on the sweep.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"op_p50_us", "us", "lower"},
	{"op_p90_us", "us", "lower"},
	{"cpu_us_per_op", "us", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// extras are end-to-end figures only some workloads have; they are
// printed beside the others and carried in the -trace 1 output under
// a layer-style name (see README "Where the issue's twelve went").
var extras = []metricDef{
	{"op_p99_us", "us", "lower"},
	{"read_p50_us", "us", "lower"},
	{"read_p99_us", "us", "lower"},
	{"write_p50_us", "us", "lower"},
	{"write_p99_us", "us", "lower"},
	{"max_rate_ok_per_s", "1/s", "higher"},
}

type tableRow struct {
	label string
	ns    float64
}

// result is everything one workload run produced.
type result struct {
	Workload string
	E2E      map[string]stat
	Extra    map[string]stat
	Layer    map[string]float64
	Table    []tableRow
	TableOp  string // what one op of the table is

	Attempted, Failed int64
	Msgs              []string
	Notes             []string
	Digest            string
}

func newResult(workload string) *result {
	return &result{
		Workload: workload, TableOp: "request",
		E2E: map[string]stat{}, Extra: map[string]stat{}, Layer: map[string]float64{},
	}
}

// note counts a pass's or step's requests and keeps its first error.
func (r *result) note(requests, failed int64, err error) {
	r.Attempted += requests
	r.Failed += failed
	if err != nil && len(r.Msgs) < 8 {
		r.Msgs = append(r.Msgs, err.Error())
	}
}

// takePeakRSS reads the memory high-water mark. A workload calls it
// when its measurement ends and before its correctness checks, whose
// stateless re-computations allocate on the benchmark's account, not
// the program's.
func (r *result) takePeakRSS() {
	r.E2E["peak_rss_mb"] = summarize([]float64{peakRSSMB()}, 0)
}

// finish folds the checker and the verdict digest in.
func (r *result) finish(chk *checker, models []*sessModel) {
	r.Attempted += chk.attempted
	r.Failed += chk.failed
	r.Msgs = append(r.Msgs, chk.msgs...)
	if models != nil {
		r.Digest = fmt.Sprintf("%016x", combineDigests(models))
		var tries, sampled int64
		for _, m := range models {
			tries += m.tries
			sampled += m.sampled
		}
		r.Notes = append(r.Notes, fmt.Sprintf("checks: %d run, %d failed; %d of %d try verdicts replayed statelessly; %d of %d sessions end with a committed state that fails the full test",
			chk.attempted, chk.failed, sampled, tries, chk.unschedulable, len(models)))
	}
}

func (r *result) failFrac() float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

func (r *result) correct() bool { return r.Failed == 0 && r.Attempted > 0 }

// print writes the human-readable report.
func (r *result) print(w io.Writer, trace bool) {
	fmt.Fprintf(w, "\n== %s ==\n", r.Workload)
	row := func(d metricDef, s stat) {
		iqr := ""
		if s.N > 1 {
			iqr = fmt.Sprintf("IQR %.4g..%.4g (%.1f%%) over %d passes", s.Q1, s.Q3, 100*ratio(s.Q3-s.Q1, s.Median), s.N)
		}
		n := ""
		if s.Samples > 0 {
			n = fmt.Sprintf("n=%d/pass", s.Samples)
		}
		fmt.Fprintf(w, "  %-20s %12.4f %-4s  %-8s %-14s %s\n", d.Name, s.Median, d.Unit, d.Better, n, iqr)
	}
	for _, d := range endToEnd {
		if s, ok := r.E2E[d.Name]; ok {
			row(d, s)
		}
	}
	for _, d := range extras {
		if s, ok := r.Extra[d.Name]; ok && s.N > 0 {
			row(d, s)
		}
	}
	fmt.Fprintf(w, "  %-20s %12.6f       lower    failed=%d attempted=%d\n", "fail_frac", r.failFrac(), r.Failed, r.Attempted)
	if r.Digest != "" {
		fmt.Fprintf(w, "  verdict digest %s\n", r.Digest)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	for _, m := range r.Msgs {
		fmt.Fprintf(w, "  FAILED: %s\n", m)
	}
	if !trace {
		return
	}
	if len(r.Table) > 0 {
		fmt.Fprintf(w, "  layer table (ns per %s):\n", r.TableOp)
		for _, t := range r.Table {
			fmt.Fprintf(w, "    %-46s %12.0f\n", t.label, t.ns)
		}
	}
	fmt.Fprintf(w, "  per-layer metrics:\n")
	for _, k := range sortedKeys(r.Layer) {
		if !strings.HasPrefix(k, "est.") {
			fmt.Fprintf(w, "    %-38s %14.4f %s\n", k, r.Layer[k], layerUnit(k))
		}
	}
}

// --- the driver's result line --------------------------------------------

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// resultLine renders the one-line JSON object the driver reads: the
// end-to-end metrics of an untraced run, or every per-layer metric of
// a traced one (0 where a layer does not take part in the workload).
func (r *result) resultLine(trace bool) string {
	out := jsonResult{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]jsonMetric{}}
	if trace {
		for _, d := range perLayer {
			out.Metrics[d.Name] = jsonMetric{Value: r.Layer[d.Name], Unit: d.Unit}
		}
	} else {
		for _, d := range endToEnd {
			out.Metrics[d.Name] = jsonMetric{Value: r.E2E[d.Name].Median, Unit: d.Unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return `{"correct":false,"attempted":1,"failed":1,"metrics":{}}`
	}
	return string(b)
}

// jsonLine marshals v the way the server writes a body: JSON plus a
// newline.
func jsonLine(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
