package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/api"
	"repro/internal/admitd"
	"repro/internal/analysis"
	"repro/internal/overhead"
	"repro/internal/task"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// Direct layer timings: each layer's exported functions called on the
// workload's own inputs, from outside. They are estimates of what the
// layer costs inside a request (ns/call × calls/request), which the
// layer table sets against the measured handler span; what they fail
// to explain is printed as handler_unattributed, never hidden.

// timeCalls returns the median ns per call over five batches of n
// calls of f(i). i runs on from batch to batch (0 … 5n−1), so a
// caller with 5n distinct inputs never repeats one — which matters
// wherever the callee memoizes on its input.
func timeCalls(n int, f func(i int)) float64 {
	if n <= 0 {
		return 0
	}
	batches := make([]float64, timeBatches)
	for b := range batches {
		t0 := time.Now()
		for i := b * n; i < (b+1)*n; i++ {
			f(i)
		}
		batches[b] = float64(time.Since(t0)) / float64(n)
	}
	return median(batches)
}

const timeBatches = 5

// mixShare is the measured share of each op kind in a sample of the
// workload's op stream.
type mixShare [5]float64

// sampleStream replays the workload's generator on private models
// (same seed, so the same catalog and parameter distribution) and
// returns n ops and their mix. Writes are acknowledged as admitted so
// the resident window cycles as it does live.
func sampleStream(spec *serveSpec, seed int64, n int) ([]op, mixShare) {
	models := make([]*sessModel, spec.sessions)
	for i := range models {
		models[i] = newSessModel(seed, i, sessName(i), spec.mix)
	}
	ops := make([]op, 0, n)
	var share mixShare
	for i := 0; i < n; i++ {
		m := models[i%len(models)]
		o := m.next()
		switch o.kind {
		case opAdmit:
			m.extras = append(m.extras, o.task.ID)
		case opRemove:
			m.extras = m.extras[1:]
		}
		ops = append(ops, o)
		share[o.kind]++
	}
	for k := range share {
		share[k] /= float64(n)
	}
	return ops, share
}

// measureAPI times the wire codecs on the sampled requests, the
// verdicts they would carry and a real state body.
func measureAPI(out map[string]float64, ops []op, share mixShare, stateBody, statsBody []byte) {
	var reqs []api.AdmitRequest
	var bodies [][]byte
	var declined, calls float64
	for i := range ops {
		if ops[i].kind != opTry && ops[i].kind != opAdmit {
			continue
		}
		r := api.AdmitRequest{Task: ops[i].task}
		b, ok := api.AppendAdmitRequest(nil, &r)
		calls++
		if !ok {
			declined++
			b, _ = json.Marshal(r) //nolint:errcheck // plain struct
		}
		reqs = append(reqs, r)
		bodies = append(bodies, b)
	}
	if len(reqs) == 0 {
		return
	}
	buf := make([]byte, 0, 512)
	out["api.append_admit_ns"] = timeCalls(len(reqs), func(i int) { buf, _ = api.AppendAdmitRequest(buf[:0], &reqs[i%len(reqs)]) })
	var dst api.AdmitRequest
	for _, b := range bodies {
		calls++
		if _, _, ok := api.ParseAdmitRequest(b, &dst); !ok {
			declined++
		}
	}
	out["api.parse_admit_ns"] = timeCalls(len(bodies), func(i int) { api.ParseAdmitRequest(bodies[i%len(bodies)], &dst) })

	verdicts := make([]api.Verdict, len(reqs))
	vbodies := make([][]byte, len(reqs))
	for i := range reqs {
		verdicts[i] = api.Verdict{TaskID: reqs[i].Task.ID, Admitted: i%8 != 0, Core: i % 4, Probes: 1 + i%4}
		vbodies[i] = api.AppendVerdict(nil, &verdicts[i])
	}
	out["api.append_verdict_ns"] = timeCalls(len(verdicts), func(i int) { buf = api.AppendVerdict(buf[:0], &verdicts[i%len(verdicts)]) })
	var v api.Verdict
	for _, b := range vbodies {
		calls++
		if !api.ParseVerdict(b, &v) {
			declined++
		}
	}
	out["api.parse_verdict_ns"] = timeCalls(len(vbodies), func(i int) { api.ParseVerdict(vbodies[i%len(vbodies)], &v) })

	var st api.State
	calls++
	if !api.ParseState(stateBody, &st) {
		declined++
	}
	out["api.parse_state_ns"] = timeCalls(2000, func(int) { api.ParseState(stateBody, &st) })

	verdictOps := share[opTry] + share[opAdmit]
	var reqBytes, respBytes float64
	for i := range bodies {
		reqBytes += float64(len(bodies[i]))
		respBytes += float64(len(vbodies[i]))
	}
	reqBytes /= float64(len(bodies))
	respBytes /= float64(len(bodies))
	rmBody := api.AppendRemoveRequest(nil, &api.RemoveRequest{ID: extraBase + 7})
	rmdBody := api.AppendRemoved(nil, &api.Removed{Removed: true, ID: extraBase + 7})
	out["api.req_bytes_mean"] = verdictOps*reqBytes + share[opRemove]*float64(len(rmBody))
	out["api.resp_bytes_mean"] = verdictOps*respBytes + share[opRemove]*float64(len(rmdBody)) +
		share[opState]*float64(len(stateBody)) + share[opStats]*float64(len(statsBody))
	out["api.fast_decline_ratio"] = declined / calls
	// What one try or admit spends in codecs on each side of the wire.
	out["est.api_server_ns"] = out["api.parse_admit_ns"] + out["api.append_verdict_ns"]
	out["est.api_client_ns"] = out["api.append_admit_ns"] + out["api.parse_verdict_ns"]
}

// measureAnalysis times the probe kernel both ways the system uses
// it, on a mirror of one session's committed state: the immutable
// snapshot the read path probes (first-fit with a pinned prober, as
// tryRead does) and the writer context (probe+rollback,
// probe+commit+publish, remove).
func measureAnalysis(out map[string]float64, st *api.State, ops []op) {
	var tasks []*task.Task
	for i := range ops {
		if ops[i].kind == opTry || ops[i].kind == opAdmit {
			tasks = append(tasks, toTask(ops[i].task))
		}
	}
	if len(tasks) < timeBatches {
		return
	}
	model := overhead.PaperModel()
	a := rebuild(st)
	ctx := analysis.ForPolicy(a.Policy).NewContext(a, model)
	// The live context converged its fixed points as the tasks were
	// admitted; a full test brings the mirror's warm values to the
	// same state before the snapshot captures them.
	ctx.Schedulable()
	snap := ctx.Fork()
	cores := snap.NumCores()

	var probes int
	firstFit := func(i int) {
		pr := snap.Prober()
		for c := 0; c < cores; c++ {
			probes++
			if pr.TryPlace(tasks[i%len(tasks)], c) {
				break
			}
		}
		pr.Close()
	}
	// Each batch probes its own fifth of the sample: on a workload
	// whose tasks are unique per request a repeated task would hit the
	// snapshot's verdict memo and time the memo, not the kernel.
	chunk := len(tasks) / timeBatches
	perReq := timeCalls(chunk, firstFit)
	perReqProbes := float64(probes) / float64(timeBatches*chunk)
	out["analysis.snap_probe_ns"] = perReq / perReqProbes

	out["analysis.ctx_probe_ns"] = timeCalls(chunk, func(i int) {
		ctx.TryPlace(tasks[i%len(tasks)], i%cores)
		ctx.Rollback()
	})
	// Commit and remove alternate so the mirror stays the size of the
	// live session; each is timed on its own clock.
	var commitNs, removeNs []float64
	for b := 0; b < timeBatches; b++ {
		var cn, rn time.Duration
		n := 0
		for i, t := range tasks[b*chunk : (b+1)*chunk] {
			cp := *t
			cp.ID = task.ID(tryBase*2 + int64(b*chunk+i))
			t0 := time.Now()
			placed := false
			for c := 0; c < cores && !placed; c++ {
				if placed = ctx.TryPlace(&cp, c); placed {
					ctx.Commit()
					ctx.Fork() // the snapshot publish every committed write pays
				} else {
					ctx.Rollback()
				}
			}
			t1 := time.Now()
			if placed {
				ctx.Remove(cp.ID)
				rn += time.Since(t1)
				cn += t1.Sub(t0)
				n++
			}
		}
		if n > 0 {
			commitNs = append(commitNs, float64(cn)/float64(n))
			removeNs = append(removeNs, float64(rn)/float64(n))
		}
	}
	out["analysis.ctx_commit_ns"] = median(commitNs)
	// What one try (snapshot first-fit) and one admit (writer-context
	// first-fit, commit and publish) spend in the kernel.
	out["est.analysis_try_ns"] = perReq
	out["est.analysis_admit_ns"] = median(commitNs)
}

// measureWAL appends records of the workload's mean payload size to a
// scratch log under the daemon's own policy: buffered append plus a
// flush per commit boundary, with a background fsync each interval.
func measureWAL(out map[string]float64, payloadBytes, n int) error {
	root := filepath.Join(scratchRoot, "data")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(root, "wal-scratch-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir) //nolint:errcheck // bench scratch
	l, _, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncGroup})
	if err != nil {
		return err
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(fsyncInterval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				_ = l.Sync() //nolint:errcheck // surfaced by the append error below
			}
		}
	}()
	payload := bytes.Repeat([]byte{0x5a}, payloadBytes)
	var seq int64
	var aerr error
	out["wal.append_ns"] = timeCalls(n, func(int) {
		seq++
		if _, err := l.Append("bench/1", seq, payload); err != nil && aerr == nil {
			aerr = err
		}
		if err := l.Flush(); err != nil && aerr == nil {
			aerr = err
		}
	})
	close(stop)
	wg.Wait()
	if cerr := l.Close(); aerr == nil {
		aerr = cerr
	}
	return aerr
}

// measureTelemetry times the instrument updates the transport makes
// per request (in-flight gauge up and down, one latency observe, the
// route counter, the fork counter) on a private registry.
func measureTelemetry(out map[string]float64, n int) {
	reg := telemetry.NewRegistry()
	g := reg.NewGauge("bench_inflight", "x")
	h := reg.NewHistogram("bench_latency_seconds", "x", telemetry.UnitSeconds, 8, 31)
	c1 := reg.NewCounter("bench_requests_total", "x")
	c2 := reg.NewCounter("bench_forks_total", "x")
	out["telemetry.observe_ns"] = timeCalls(n, func(i int) {
		g.Inc()
		h.ObserveInt(int64(4000 + i&1023))
		c1.Inc()
		g.Dec()
		c2.Inc()
	})
}

// measureStore times the session lookup on the live store.
func measureStore(out map[string]float64, srv *admitd.Server, names []string, n int) {
	st := srv.Store()
	out["admitd.store_get_ns"] = timeCalls(n, func(i int) {
		_, _ = st.Get(names[i%len(names)]) //nolint:errcheck // names are live
	})
}

// measureScrape times one /metrics render with the workload's
// sessions live.
func measureScrape(out map[string]float64, srv *admitd.Server) {
	reg := srv.Metrics()
	buf := make([]byte, 0, 64<<10)
	out["telemetry.scrape_ns"] = timeCalls(20, func(int) { buf = reg.WritePrometheus(buf[:0]) })
	out["telemetry.scrape_bytes"] = float64(len(buf))
}

// --- /metrics counts ---------------------------------------------------

// expo is one parsed /metrics scrape: sample name (with its label
// body, if any) → value.
type expo struct {
	raw    []byte
	values map[string]float64
}

func parseExpo(raw []byte) expo {
	e := expo{raw: raw, values: make(map[string]float64)}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[sp+1:], 64); err == nil {
			e.values[line[:sp]] = v
		}
	}
	return e
}

// scrape renders the server's registry directly — used immediately
// before and after a quiesced window, so count ratios are taken where
// the work happens.
func scrape(srv *admitd.Server) expo {
	return parseExpo(srv.Metrics().WritePrometheus(nil))
}

// since returns how much a counter grew between two scrapes.
func (e expo) since(before expo, key string) float64 { return e.values[key] - before.values[key] }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// sinceRoutes sums the request counters of the given routes.
func (e expo) sinceRoutes(before expo, routes ...string) float64 {
	var n float64
	for _, r := range routes {
		n += e.since(before, `admitd_http_requests_total{route="`+r+`"}`)
	}
	return n
}

// countMetrics derives the exact count ratios of a window from the
// two scrapes that bracket it.
func countMetrics(out map[string]float64, a, b expo, seconds float64) {
	tries := b.sinceRoutes(a, "try")
	admits := b.sinceRoutes(a, "admit")
	removes := b.sinceRoutes(a, "remove")
	states := b.sinceRoutes(a, "state")
	requests := tries + admits + removes + states + b.sinceRoutes(a, "session_stats")
	writes := admits + removes
	probes := b.since(a, "admitd_admission_probes_total")
	coreTests := b.since(a, "admitd_admission_core_tests_total")
	solves := b.since(a, "admitd_admission_fp_solves_total")
	out["analysis.probes_per_req"] = ratio(probes, requests)
	out["analysis.core_tests_per_probe"] = ratio(coreTests, probes)
	out["analysis.verdict_hit_ratio"] = ratio(b.since(a, "admitd_admission_verdict_hits_total"), coreTests)
	out["analysis.fp_iters_per_solve"] = ratio(b.since(a, "admitd_admission_fp_iterations_total"), solves)
	out["analysis.warm_start_ratio"] = ratio(b.since(a, "admitd_admission_warm_starts_total"), solves)
	out["admitd.drain_size_mean"] = ratio(b.since(a, "admitd_group_commit_drain_size_sum"), b.since(a, "admitd_group_commit_drain_size_count"))
	out["admitd.publishes_per_write"] = ratio(b.since(a, "admitd_snapshot_publishes_total"), writes)
	hits, misses := b.since(a, "admitd_state_cache_hits_total"), b.since(a, "admitd_state_cache_misses_total")
	out["admitd.state_cache_hit_ratio"] = ratio(hits, hits+misses)
	out["admitd.resident_tasks_mean"] = ratio(b.values["admitd_session_tasks"], b.values["admitd_sessions_live"])

	appends := b.since(a, "admitd_wal_appends_total")
	out["wal.appends_per_write"] = ratio(appends, writes)
	out["wal.payload_bytes_mean"] = ratio(b.since(a, "admitd_wal_payload_bytes_total"), appends)
	out["wal.disk_bytes_per_write"] = ratio(b.since(a, "admitd_wal_bytes"), writes)
	out["wal.records_per_drain_mean"] = ratio(b.since(a, "admitd_wal_records_per_drain_sum"), b.since(a, "admitd_wal_records_per_drain_count"))
	out["wal.fsyncs_per_s"] = ratio(b.since(a, "admitd_wal_fsyncs_total"), seconds)
	out["wal.checkpoints"] = b.values["admitd_wal_checkpoints_total"]
	out["wal.errors"] = b.values["admitd_wal_errors_total"]
	if h := telemetry.ExtractHistogram(b.raw, "admitd_wal_fsync_duration_seconds", ""); h != nil && h.Count > 0 {
		out["wal.fsync_p50_us"] = h.Quantile(0.50) * 1e6
		out["wal.fsync_p99_us"] = h.Quantile(0.99) * 1e6
	}
}

// tornScrape reports whether a lint complaint is the known scrape
// tear (ROADMAP "Blocking": a histogram's +Inf bucket and _count are
// separate atomics, so a scrape concurrent with observes can read
// them one apart). It is counted, not failed: it is the program's
// open defect, not a malformed exposition.
func tornScrape(problem string) bool {
	return strings.Contains(problem, "+Inf bucket") && strings.Contains(problem, "!= count")
}

// sortedKeys lists a metric map's names in order.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
