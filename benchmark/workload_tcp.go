package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"repro/client"
	"repro/internal/telemetry"
)

// The open loop. Independent schedulers do not wait for each other's
// verdicts, so arrivals follow a schedule whatever the daemon does:
// each connection sends at a constant rate, a request that cannot be
// sent on time (its connection is still busy) waits, and that wait is
// charged to the request by timing it from the instant it was due.

// Fixed offered rates (total, req/s), 2× apart. On the reference
// host closed-loop capacity over two connections is ≈ 30 000 req/s,
// so 12 000 is well inside it, 24 000 is near it and 48 000 is beyond
// it: the ladder always ends in a step that fails.
var openRates = []int{1500, 3000, 6000, 12000, 24000, 48000}

const (
	headlineRate    = 3000                 // latency is quoted at this rate
	headlineSlices  = 3                    // the headline step runs as this many back-to-back slices
	latencyLimit    = 5 * time.Millisecond // on p99, from due time
	lateAbort       = time.Second          // a step aborts once a send is this late
	lateLimit       = latencyLimit         // headline-rate send lateness p99 beyond this voids the run
	completionFloor = 0.99                 // share of scheduled requests a passing step completes
	capacityN       = 10000                // requests per closed-loop pass
	capacityNominal = 0.75                 // seconds per closed-loop pass slot: a third of a second on the reference host, so the passes take under half the budget
)

// stepShare is each step's share of the open loop's half of the
// -seconds budget.
var stepShare = map[int]float64{1500: 0.08, 3000: 0.48, 6000: 0.10, 12000: 0.12, 24000: 0.14, 48000: 0.08}

// clock is the scheduler's view of time; tests substitute a fake.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// SleepUntil sleeps with nanosleep directly: Go's own timers go
// through the netpoller, which on this kind of small virtualized host
// wakes a full millisecond late (the reason internal/wal calls
// nanosleep too); nanosleep wakes about 85 µs late at the median.
// Spinning the remainder would remove that, but two spinning
// generators on two shared CPUs get the whole process throttled for
// milliseconds at a time, so the generator sleeps, and reports how
// late it ran (client.sched_late_p99_us).
func (wallClock) SleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	for {
		var rem syscall.Timespec
		// Preemption signals interrupt nanosleep; resume with the rest.
		if err := syscall.Nanosleep(&ts, &rem); err != syscall.EINTR {
			return
		}
		ts = rem
	}
}

// openSchedule is one connection's arrival schedule: request k is due
// at start + k·interval.
type openSchedule struct {
	start    time.Time
	interval time.Duration
	count    int
}

// openSample is one request's timing: how late it was sent and how
// long it took from its due time (send lateness included).
type openSample struct {
	late, fromDue time.Duration
	ok            bool
}

// runSchedule drives one connection through its schedule. send issues
// request k and reports success. It returns the samples of the
// requests it sent and whether it aborted because a send was lateAbort
// behind schedule; the requests never sent count as missed.
func runSchedule(clk clock, s openSchedule, send func(k int) bool, each func(k int, smp openSample)) (aborted bool) {
	for k := 0; k < s.count; k++ {
		due := s.start.Add(time.Duration(k) * s.interval)
		clk.SleepUntil(due)
		sent := clk.Now()
		late := sent.Sub(due)
		if late < 0 {
			late = 0
		}
		if late > lateAbort {
			return true
		}
		ok := send(k)
		each(k, openSample{late: late, fromDue: clk.Now().Sub(due), ok: ok})
	}
	return false
}

// stepResult is one open-loop step.
type stepResult struct {
	scheduled, completed int64
	failed               int64
	aborted              bool
	cpu                  time.Duration
	kind                 [numKinds][]int64
	reads, writes, all   []int64 // from due time, sorted
	late                 []int64 // sorted
	firstErr             error
}

func (s *stepResult) p99() time.Duration { return time.Duration(percentile(s.all, 0.99)) }

// passes reports whether the step met the latency limit without a
// growing backlog: no abort, nearly everything scheduled completed,
// nothing failed, p99 from due time within the limit.
func (s *stepResult) passes() bool {
	return !s.aborted && s.failed == 0 &&
		float64(s.completed) >= completionFloor*float64(s.scheduled) &&
		s.p99() <= latencyLimit
}

// openStep offers rate req/s for dur, split evenly over the clients'
// connections with their phases staggered.
func openStep(clients []*clientCtx, rate int, dur time.Duration) stepResult {
	nc := len(clients)
	interval := time.Duration(float64(time.Second) * float64(nc) / float64(rate))
	count := int(dur / interval)
	if count < 1 {
		count = 1
	}
	res := stepResult{scheduled: int64(count * nc)}
	for _, cc := range clients {
		cc.reset(count)
	}
	lates := make([][]int64, nc)
	aborted := make([]bool, nc)
	runtime.GC()
	ctx := context.Background()
	var wg sync.WaitGroup
	start := time.Now().Add(5 * time.Millisecond)
	cpu0 := cpuTime()
	for i, cc := range clients {
		wg.Add(1)
		go func(i int, cc *clientCtx) {
			defer wg.Done()
			lates[i] = make([]int64, 0, count)
			sched := openSchedule{start: start.Add(time.Duration(i) * interval / time.Duration(nc)), interval: interval, count: count}
			var kind opKind
			aborted[i] = runSchedule(wallClock{}, sched,
				func(int) bool {
					m, sess, o := cc.nextOp()
					kind = o.kind
					cc.attempted++
					cc.tr.beginCall(o.kind)
					err := cc.issue(ctx, m, sess, &o)
					cc.tr.endCall()
					if err != nil {
						cc.fail(fmt.Errorf("%s %s: %w", m.name, opNames[o.kind], err))
					}
					return err == nil
				},
				func(_ int, smp openSample) {
					lates[i] = append(lates[i], int64(smp.late))
					if smp.ok {
						cc.record(kind, smp.fromDue)
					}
				})
		}(i, cc)
	}
	wg.Wait()
	res.cpu = cpuTime() - cpu0
	for i, cc := range clients {
		res.completed += cc.attempted - cc.failed
		res.failed += cc.failed
		res.aborted = res.aborted || aborted[i]
		if res.firstErr == nil {
			res.firstErr = cc.firstErr
		}
		for k := range cc.lat {
			res.kind[k] = append(res.kind[k], cc.lat[k]...)
			if opKind(k).isRead() {
				res.reads = append(res.reads, cc.lat[k]...)
			} else {
				res.writes = append(res.writes, cc.lat[k]...)
			}
		}
		res.late = append(res.late, lates[i]...)
	}
	res.all = append(append([]int64(nil), res.reads...), res.writes...)
	for _, s := range append(res.kind[:], res.reads, res.writes, res.all, res.late) {
		slices.Sort(s)
	}
	return res
}

// scraper polls /metrics once a second over the same transport, as a
// production Prometheus would, and lints every exposition.
type scraper struct {
	stop            chan struct{}
	done            chan struct{}
	scrapes, torn   int64
	problems        []string
	transportErrors int64
}

func startScraper(env *serveEnv) (*scraper, error) {
	c, err := client.New(env.baseURL, client.WithHTTPClient(&http.Client{Transport: env.transport}))
	if err != nil {
		return nil, err
	}
	s := &scraper{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				body, err := c.Metrics(context.Background())
				s.scrapes++
				if err != nil {
					s.transportErrors++
					continue
				}
				for _, p := range telemetry.Lint(body) {
					if tornScrape(p) {
						s.torn++
					} else if len(s.problems) < 4 {
						s.problems = append(s.problems, p)
					}
				}
			}
		}
	}()
	return s, nil
}

func (s *scraper) finish(chk *checker, out map[string]float64) {
	close(s.stop)
	<-s.done
	chk.ok(s.transportErrors == 0, "metrics scraper: %d failed scrapes", s.transportErrors)
	chk.ok(len(s.problems) == 0, "metrics scrape fails lint: %v", s.problems)
	out["telemetry.scrapes"] = float64(s.scrapes)
	out["telemetry.scrape_torn"] = float64(s.torn)
}

// runTCP runs mixed_tcp_open: closed-loop passes over the loopback
// connections, then the fixed-rate open-loop ladder with the headline
// rate in slices.
func runTCP(spec *serveSpec, o runOpts) (*result, error) {
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
	scr, err := startScraper(env)
	if err != nil {
		return nil, err
	}
	capN := o.scaled(capacityN)
	warm := closedPass(clients, capN/2)
	res.note(warm.requests, warm.failed, warm.firstErr)

	if o.trace {
		if err := traceClosed(res, env, clients, capN, o); err != nil {
			return nil, err
		}
	} else {
		// The bounded figures come from closed-loop passes over the
		// same connections (see README "Why mixed_tcp_open's bounded
		// metrics are closed-loop").
		timedPasses(res, clients, capN, numPasses(o.seconds, capacityNominal))
	}

	// The open-loop ladder takes the other half.
	budget := time.Duration(o.seconds) * time.Second / time.Duration(2*o.short)
	maxOK := 0
	for _, r := range openRates {
		slices := 1
		if r == headlineRate {
			slices = headlineSlices
		}
		dur := time.Duration(float64(budget) * stepShare[r] / float64(slices))
		ok := true
		var steps []stepResult
		for i := 0; i < slices; i++ {
			st := openStep(clients, r, dur)
			// Requests never sent (an aborted step) are failures of the
			// step, not of the program's correctness: they decide
			// max_rate_ok_per_s. Errors are failures of both.
			res.note(st.completed+st.failed, st.failed, st.firstErr)
			ok = ok && st.passes()
			steps = append(steps, st)
		}
		if ok && r > maxOK {
			maxOK = r
		}
		res.Layer[fmt.Sprintf("client.p99_us_at_%d", r)] = float64(steps[0].p99()) / 1e3
		res.Notes = append(res.Notes, fmt.Sprintf("open loop %5d req/s × %v: p99 %v from due time, lateness p99 %v, %d/%d completed, aborted=%v → %s",
			r, (dur*time.Duration(slices)).Round(time.Millisecond), steps[0].p99().Round(time.Microsecond),
			time.Duration(percentile(steps[0].late, 0.99)).Round(time.Microsecond), steps[0].completed, steps[0].scheduled, steps[0].aborted, passWord(ok)))
		if r == headlineRate {
			fillHeadline(res, steps)
			if o.trace {
				if err := traceOpen(res, env, steps, dur, o); err != nil {
					return nil, err
				}
			}
		}
	}
	res.Extra["max_rate_ok_per_s"] = summarize([]float64{float64(maxOK)}, 0)
	res.Layer["client.max_rate_ok_per_s"] = float64(maxOK)
	res.Layer["nethttp.conns_opened"] = float64(env.connsOpened.Load())
	// One connection per client plus the scraper's; more means the
	// transport dropped and redialed keep-alive connections.
	chk.ok(env.connsOpened.Load() <= int64(o.nclient)+1, "nethttp: %d connections opened for %d clients and a scraper", env.connsOpened.Load(), o.nclient)

	scr.finish(chk, res.Layer)
	res.takePeakRSS()
	checkSessions(chk, client.InProcess(env.srv), env.models)
	res.finish(chk, env.models)
	return res, nil
}

// traceOpen records one more slice of the headline rate in spans and
// rebuilds the workload's layer table from it: on the open loop the
// CPUs idle between requests, so a request pays the wake-ups the
// closed loop never sees, and that is the request production serves.
func traceOpen(res *result, env *serveEnv, untraced []stepResult, dur time.Duration, o runOpts) error {
	count := int(float64(headlineRate) * dur.Seconds())
	rec := newRecorder(3*count+64, serveSpanNames)
	traced, err := env.newClients(o.nclient, rec)
	if err != nil {
		return err
	}
	env.tap.rec.Store(rec)
	st := openStep(traced, headlineRate, dur)
	env.tap.rec.Store(nil)
	res.note(st.completed+st.failed, st.failed, st.firstErr)
	kind := env.spec.tableKind
	var p50, late []float64
	for i := range untraced {
		p50 = append(p50, float64(percentile(untraced[i].kind[kind], 0.5)))
		late = append(late, float64(percentile(untraced[i].late, 0.5)))
	}
	sum := summarizeSpans(rec.recorded(), kind)
	sum.fill(res.Layer)
	res.TableOp = fmt.Sprintf("%s request, open loop at %d req/s, from due time", opNames[kind], headlineRate)
	res.Table = layerTable(res.Layer, sum, median(p50), median(late), env.spec)
	res.Layer["trace.spans_dropped"] += float64(rec.dropped.Load())
	return writeSpans(rec, o, env.spec.name+"-open", res)
}

func passWord(ok bool) string {
	if ok {
		return "meets the limit"
	}
	return "misses the limit"
}

// fillHeadline records the headline-rate step (medians over its
// slices) and whether the generator kept its schedule there.
func fillHeadline(res *result, steps []stepResult) {
	var p50, p90, p99, r50, r99, w50, w99, cpu, late50, late99 []float64
	for i := range steps {
		s := &steps[i]
		p50 = append(p50, float64(percentile(s.all, 0.5))/1e3)
		p90 = append(p90, float64(percentile(s.all, 0.9))/1e3)
		p99 = append(p99, float64(percentile(s.all, 0.99))/1e3)
		r50 = append(r50, float64(percentile(s.reads, 0.5))/1e3)
		r99 = append(r99, float64(percentile(s.reads, 0.99))/1e3)
		w50 = append(w50, float64(percentile(s.writes, 0.5))/1e3)
		w99 = append(w99, float64(percentile(s.writes, 0.99))/1e3)
		cpu = append(cpu, float64(s.cpu.Microseconds())/float64(s.completed))
		late50 = append(late50, float64(percentile(s.late, 0.50))/1e3)
		late99 = append(late99, float64(percentile(s.late, 0.99))/1e3)
	}
	out := res.Layer
	out["client.open_p50_us"], out["client.open_p90_us"], out["client.open_p99_us"] = median(p50), median(p90), median(p99)
	out["client.open_read_p50_us"], out["client.open_read_p99_us"] = median(r50), median(r99)
	out["client.open_write_p50_us"], out["client.open_write_p99_us"] = median(w50), median(w99)
	out["client.open_cpu_us_per_op"] = median(cpu)
	// Median over the slices: one host stall of tens of milliseconds
	// backs a whole slice's schedule up without saying anything about
	// the generator.
	lateP99 := median(late99)
	out["client.sched_late_p50_us"] = median(late50)
	out["client.sched_late_p99_us"] = lateP99
	res.Notes = append(res.Notes, fmt.Sprintf("open loop at %d req/s, from due time, median of %d slices: p50 %.0f µs, p90 %.0f µs, p99 %.0f µs; reads p50 %.0f / p99 %.0f µs (n=%d per slice), writes p50 %.0f / p99 %.0f µs (n=%d); %.0f µs CPU per request",
		headlineRate, len(steps), median(p50), median(p90), median(p99), median(r50), median(r99), len(steps[0].reads), median(w50), median(w99), len(steps[0].writes), median(cpu)))
	// Validity: a generator that runs late measures itself. Once send
	// lateness at the headline rate reaches lateLimit the open-loop
	// figures of this run are void and flagged so. The run itself is
	// not failed: its bounded metrics come from the closed-loop passes,
	// and on a shared host a stall of tens of milliseconds that backs
	// two of three slices up is weather, not a defect of the program.
	if lateP99 > float64(lateLimit.Microseconds()) {
		out["client.open_void"] = 1
		res.Notes = append(res.Notes, fmt.Sprintf("OPEN LOOP VOID: generator lateness p99 %.0f µs exceeds %v at %d req/s; ignore the open-loop figures of this run", lateP99, lateLimit, headlineRate))
	}
}
