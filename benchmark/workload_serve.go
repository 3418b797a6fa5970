package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/api"
	"repro/client"
)

// runOpts are the knobs of one run. Only seed, seconds and trace come
// from the command line; short is the tests' size divisor.
type runOpts struct {
	seed     int64
	seconds  int
	trace    bool
	short    int
	nclient  int
	traceOut string
}

// shrunk divides a size by the tests' divisor, down to floor.
func (o runOpts) shrunk(n, floor int) int {
	return max(n/o.short, floor)
}

// scaled shrinks a request or call count.
func (o runOpts) scaled(n int) int { return o.shrunk(n, 200) }

// timedSetup builds the workload's environment spec.setupBuilds times,
// keeps the last and reports every build's wall time. Set-up is
// milliseconds, so one build's time is noisy (1.5–5 ms on
// read_light_inproc; the median of 15 still moved by a quarter from
// run to run and the median of 50 by a fifth), and every build starts
// from a collected heap.
func timedSetup(spec *serveSpec, o runOpts) (*serveEnv, []float64, error) {
	var env *serveEnv
	var times []float64
	for i := 0; i < o.shrunk(spec.setupBuilds, 3); i++ {
		if env != nil {
			env.close()
		}
		runtime.GC() // where a collection lands is most of a build's jitter
		t0 := time.Now()
		e, err := buildServe(spec, o.seed, o.nclient)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		env = e
	}
	return env, times, nil
}

// latencyAcc reduces each pass to the quantiles the report needs as
// soon as the pass ends, so a run never holds more than one pass's
// samples (twelve passes of 300 000 would otherwise be most of
// peak_rss_mb).
type latencyAcc struct {
	q       map[string][]float64 // per-pass values, µs
	n       map[string]int       // samples per pass
	tailQ   float64
	tailVal []float64
}

func (a *latencyAcc) add(p *passResult) {
	if a.q == nil {
		a.q, a.n = map[string][]float64{}, map[string]int{}
	}
	put := func(name string, s []int64, q float64) {
		if len(s) > 0 {
			a.q[name] = append(a.q[name], float64(percentile(s, q))/1e3)
			a.n[name] = len(s)
		}
	}
	put("op_p50_us", p.all, 0.50)
	put("op_p90_us", p.all, 0.90)
	put("op_p99_us", p.all, 0.99)
	put("read_p50_us", p.reads, 0.50)
	put("read_p99_us", p.reads, 0.99)
	put("write_p50_us", p.writes, 0.50)
	put("write_p99_us", p.writes, 0.99)
	if len(p.all) > 0 {
		a.tailQ, _ = tailQuantile(len(p.all))
		a.tailVal = append(a.tailVal, float64(percentile(p.all, a.tailQ))/1e3)
	}
}

// fill stores the merged and per-class latency figures.
func (a *latencyAcc) fill(res *result) {
	for name, v := range a.q {
		dst := res.Extra
		if name == "op_p50_us" || name == "op_p90_us" {
			dst = res.E2E
		}
		dst[name] = summarize(v, a.n[name])
	}
	if len(a.tailVal) > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("highest percentile with ten samples beyond it: p%g = %.1f µs (median of %d passes, n=%d/pass)",
			100*a.tailQ, median(a.tailVal), len(a.tailVal), a.n["op_p50_us"]))
	}
}

// timedPasses runs the untraced closed-loop passes of a run and stores
// the bounded figures: throughput and CPU per op as medians of the
// passes, latency percentiles per pass and then the median.
func timedPasses(res *result, clients []*clientCtx, n, passes int) {
	var lat latencyAcc
	var rate, cpu []float64
	for i := 0; i < passes; i++ {
		p := closedPass(clients, n)
		res.note(p.requests, p.failed, p.firstErr)
		lat.add(&p)
		rate = append(rate, p.reqPerSec())
		cpu = append(cpu, p.cpuUsPerReq())
	}
	res.E2E["ops_per_s"] = summarize(rate, n)
	res.E2E["cpu_us_per_op"] = summarize(cpu, n)
	lat.fill(res)
}

// runClosed runs one closed-loop in-process workload end to end.
func runClosed(spec *serveSpec, o runOpts) (*result, error) {
	res := newResult(spec.name)
	chk := &checker{}
	env, setups, err := timedSetup(spec, o)
	if err != nil {
		return nil, err
	}
	defer env.close()
	res.E2E["setup_s"] = summarize(setups, 0)
	clients, err := env.newClients(o.nclient, nil)
	if err != nil {
		return nil, err
	}
	n := o.scaled(spec.passRequests)
	warm := closedPass(clients, n)
	res.note(warm.requests, warm.failed, warm.firstErr)

	if o.trace {
		if err := traceClosed(res, env, clients, n, o); err != nil {
			return nil, err
		}
	} else {
		timedPasses(res, clients, n, numPasses(o.seconds, spec.nominalPassSec))
	}

	res.takePeakRSS()
	checkSessions(chk, client.InProcess(env.srv), env.models)
	res.finish(chk, env.models)
	return res, nil
}

// --- traced run (closed loops) -----------------------------------------

var serveSpanNames = []string{"client.call", "nethttp.roundtrip", "admitd.handler"}

// tracePairs is how many untraced/traced pass pairs the traced run
// alternates: the host's speed drifts by several percent between two
// passes, so one pair would report the drift as tracing overhead.
const tracePairs = 3

// traceClosed is the -trace 1 body of a closed-loop workload:
// untraced reference passes alternating with the same pass recorded
// in spans (the first reference pass bracketed by /metrics scrapes,
// for exact counts), one pass at a single client for the scaling
// ratio, and the direct layer timings.
func traceClosed(res *result, env *serveEnv, clients []*clientCtx, n int, o runOpts) error {
	rec := newRecorder(tracePairs*3*n+16, serveSpanNames) // call ⊃ roundtrip ⊃ handler per request
	traced, err := env.newClients(o.nclient, rec)
	if err != nil {
		return err
	}
	kind := env.spec.tableKind
	var refRate, tracedRate, refP50 []float64
	for i := 0; i < tracePairs; i++ {
		before := scrape(env.srv)
		ref := closedPass(clients, n)
		if i == 0 {
			countMetrics(res.Layer, before, scrape(env.srv), ref.wall.Seconds())
			res.Layer["proc.allocs_per_req"] = float64(ref.mallocs) / float64(ref.requests)
			res.Layer["proc.gc_cycles"] = float64(ref.gcCycles)
			res.Layer["proc.gc_pause_ms"] = float64(ref.gcPause) / 1e6
			fillClientLayer(res.Layer, &ref)
		}
		if env.tap != nil {
			env.tap.rec.Store(rec)
		}
		tp := closedPass(traced, n)
		if env.tap != nil {
			env.tap.rec.Store(nil)
		}
		res.note(ref.requests, ref.failed, ref.firstErr)
		res.note(tp.requests, tp.failed, tp.firstErr)
		refRate = append(refRate, ref.reqPerSec())
		tracedRate = append(tracedRate, tp.reqPerSec())
		refP50 = append(refP50, float64(percentile(ref.kind[kind], 0.5)))
	}
	res.Layer["trace.overhead_frac"] = 1 - median(tracedRate)/median(refRate)
	res.Layer["trace.spans_dropped"] = float64(rec.dropped.Load())
	var refused, admitted float64
	for _, m := range env.models {
		refused += float64(m.refused)
		admitted += float64(m.admitted)
	}
	res.Layer["admitd.reject_ratio"] = ratio(refused, refused+admitted)

	// One client drives every session for the scaling base.
	solo, err := env.newClients(1, nil)
	if err != nil {
		return err
	}
	sp := closedPass(solo, n/2)
	res.note(sp.requests, sp.failed, sp.firstErr)
	res.Layer["admitd.scaling_1_to_n"] = ratio(median(refRate), sp.reqPerSec())

	if err := directLayers(res.Layer, env, o); err != nil {
		return err
	}
	sum := summarizeSpans(rec.recorded(), kind)
	sum.fill(res.Layer)
	res.TableOp = opNames[kind] + " request, closed loop"
	res.Table = layerTable(res.Layer, sum, median(refP50), 0, env.spec)
	return writeSpans(rec, o, env.spec.name, res)
}

// fillClientLayer records the per-class and tail latencies of the
// untraced reference pass.
func fillClientLayer(out map[string]float64, p *passResult) {
	if len(p.reads) > 0 {
		out["client.read_p50_us"] = float64(percentile(p.reads, 0.50)) / 1e3
		out["client.read_p99_us"] = float64(percentile(p.reads, 0.99)) / 1e3
	}
	if len(p.writes) > 0 {
		out["client.write_p50_us"] = float64(percentile(p.writes, 0.50)) / 1e3
		out["client.write_p99_us"] = float64(percentile(p.writes, 0.99)) / 1e3
	}
	out["client.p99_us"] = float64(percentile(p.all, 0.99)) / 1e3
	out["client.p999_us"] = float64(percentile(p.all, 0.999)) / 1e3
}

// directLayers runs the direct layer timings on the workload's own
// inputs, weighted by the op mix of a sample of its stream.
func directLayers(out map[string]float64, env *serveEnv, o runOpts) error {
	ops, share := sampleStream(env.spec, o.seed, o.scaled(4096))
	ctx := context.Background()
	c := client.InProcess(env.srv)
	st, err := c.Session(env.names[0]).State(ctx)
	if err != nil {
		return err
	}
	stateBody, err := jsonLine(st)
	if err != nil {
		return err
	}
	ss, err := c.Session(env.names[0]).Stats(ctx)
	if err != nil {
		return err
	}
	statsBody, _ := api.AppendSessionStats(nil, &ss)
	measureAPI(out, ops, share, stateBody, statsBody)
	measureAnalysis(out, &st, ops)
	measureTelemetry(out, o.scaled(200_000))
	measureStore(out, env.srv, env.names, o.scaled(100_000))
	measureScrape(out, env.srv)
	if env.spec.durable {
		payload := int(out["wal.payload_bytes_mean"] + 0.5)
		if err := measureWAL(out, payload, o.scaled(20_000)); err != nil {
			return err
		}
	}
	return nil
}

// writeSpans writes the traced pass's spans as JSONL.
func writeSpans(rec *recorder, o runOpts, workload string, res *result) error {
	if err := os.MkdirAll(o.traceOut, 0o755); err != nil {
		return err
	}
	path := filepath.Join(o.traceOut, fmt.Sprintf("%s-seed%d.jsonl", workload, o.seed))
	if err := rec.writeJSONL(path); err != nil {
		return err
	}
	res.Notes = append(res.Notes, fmt.Sprintf("trace: %d spans written to %s", len(rec.recorded()), path))
	return nil
}

// --- span reduction ------------------------------------------------------

// spanSummary is the traced pass reduced to medians (ns): the call,
// round-trip and handler spans of one op kind, and the handler spans
// of every request by class.
type spanSummary struct {
	call, callSelf            float64
	rtSelf                    float64
	handler                   float64
	handlerRead, handlerWrite float64
}

func medianInt(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	return float64(percentile(xs, 0.5))
}

func summarizeSpans(spans []span, kind opKind) spanSummary {
	self := selfTimes(spans)
	var call, callSelf, rtSelf, handler, hRead, hWrite []int64
	for i, s := range spans {
		if s.end <= s.start {
			continue
		}
		// The server side of a socket does not know the op; its root does.
		class := s.class
		for p := s.parent; class < 0 && p > 0; p = spans[p-1].parent {
			class = spans[p-1].class
		}
		if class < 0 {
			continue
		}
		mine := opKind(class) == kind
		switch s.name {
		case spanClientCall:
			if mine {
				call = append(call, s.end-s.start)
				callSelf = append(callSelf, self[i])
			}
		case spanRoundTrip:
			if mine {
				rtSelf = append(rtSelf, self[i])
			}
		case spanHandler:
			d := s.end - s.start
			if mine {
				handler = append(handler, d)
			}
			if opKind(class).isRead() {
				hRead = append(hRead, d)
			} else {
				hWrite = append(hWrite, d)
			}
		}
	}
	return spanSummary{
		call: medianInt(call), callSelf: medianInt(callSelf),
		rtSelf: medianInt(rtSelf), handler: medianInt(handler),
		handlerRead: medianInt(hRead), handlerWrite: medianInt(hWrite),
	}
}

func (s spanSummary) fill(out map[string]float64) {
	out["client.self_ns"] = s.callSelf
	out["nethttp.roundtrip_self_ns"] = s.rtSelf
	out["admitd.handler_read_ns"] = s.handlerRead
	out["admitd.handler_write_ns"] = s.handlerWrite
}

// layerTable lays the traced medians of the workload's table op out
// as rows that add up to its client-observed median: the handler row
// split by the direct layer estimates (ns/call × calls per request of
// that kind), with what they do not explain as its own row. On the
// open loop the end-to-end figure runs from the due time, so how late
// the generator sent is a row too.
func layerTable(out map[string]float64, s spanSummary, untracedP50, lateness float64, spec *serveSpec) []tableRow {
	analysisNs, walNs := out["est.analysis_try_ns"], 0.0
	if spec.tableKind == opAdmit {
		analysisNs = out["est.analysis_admit_ns"]
		walNs = out["wal.appends_per_write"] * out["wal.append_ns"]
	}
	estimated := out["est.api_server_ns"] + analysisNs + walNs + out["telemetry.observe_ns"] + out["admitd.store_get_ns"]
	out["admitd.handler_unattributed_ns"] = s.handler - estimated
	var rows []tableRow
	if lateness > 0 {
		rows = append(rows, tableRow{"generator: sent late (median, untraced)", lateness})
	}
	rows = append(rows,
		tableRow{"client.self (SDK, pooled transport)", s.callSelf - out["est.api_client_ns"]},
		tableRow{"  api codecs, client side (est.)", out["est.api_client_ns"]},
	)
	if spec.tcp {
		rows = append(rows, tableRow{"nethttp.roundtrip self (stdlib + sockets)", s.rtSelf})
	}
	rows = append(rows,
		tableRow{"admitd.handler: api codecs (est.)", out["est.api_server_ns"]},
		tableRow{"admitd.handler: analysis (est.)", analysisNs},
		tableRow{"admitd.handler: wal (est.)", walNs},
		tableRow{"admitd.handler: telemetry (est.)", out["telemetry.observe_ns"]},
		tableRow{"admitd.handler: store lookup (est.)", out["admitd.store_get_ns"]},
		tableRow{"admitd.handler: unattributed", out["admitd.handler_unattributed_ns"]},
	)
	var total float64
	for _, r := range rows {
		total += r.ns
	}
	rows = append(rows,
		tableRow{"= sum of rows", total},
		tableRow{"end to end, untraced median", untracedP50},
		tableRow{"end to end, traced median", s.call},
	)
	out["trace.table_gap_frac"] = ratio(total-untracedP50, untracedP50)
	return rows
}
