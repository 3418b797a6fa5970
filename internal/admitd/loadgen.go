package admitd

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/api"
	"repro/client"
	"repro/internal/telemetry"
)

// The load generator drives the server exclusively through the
// typed client SDK — it declares no wire types of its own, so a
// schema change breaks it at compile time, not at run time. The
// client's two transports (HTTP and in-process) make the same code
// serve as a remote load tool and a zero-socket smoke test.

// LoadConfig parameterizes a load run.
type LoadConfig struct {
	// Sessions is the number of concurrent cluster sessions.
	Sessions int
	// Requests is the total number of admission requests to issue
	// (seeding requests not counted).
	Requests int
	// Workers bounds client concurrency; 0 means 2×Sessions capped
	// at 64.
	Workers int
	// Cores per session (default 4); TasksPerSession seeds each
	// session's resident set via the server-side generator (default
	// 12).
	Cores           int
	TasksPerSession int
	// Policy is "fp" (default) or "edf".
	Policy string
	// Seed makes the generated workload deterministic.
	Seed int64
	// Mix is the read/write split as "R/W" percentages, e.g. "90/10":
	// R percent of requests are reads (try/state/stats — the server's
	// lock-free snapshot path), W percent writes (admit/remove — the
	// serialized actor path). Empty means "60/40", matching the
	// historical mix. Within reads: 70% try, 20% state, 10% stats;
	// within writes: admit and remove alternate by availability.
	Mix string
}

// parseMix validates "R/W" (strictly — no trailing input) and
// returns the read percentage.
func parseMix(mix string) (int, error) {
	if mix == "" {
		return 60, nil
	}
	rs, ws, ok := strings.Cut(mix, "/")
	if !ok {
		return 0, fmt.Errorf("loadgen: bad mix %q (want \"R/W\", e.g. 90/10)", mix)
	}
	r, err1 := strconv.Atoi(rs)
	w, err2 := strconv.Atoi(ws)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("loadgen: bad mix %q (want \"R/W\", e.g. 90/10)", mix)
	}
	if r < 0 || w < 0 || r+w != 100 {
		return 0, fmt.Errorf("loadgen: mix %q must be nonnegative and sum to 100", mix)
	}
	return r, nil
}

// LatencySummary is one op class's latency distribution.
type LatencySummary struct {
	N             int
	P50, P95, P99 time.Duration
}

// String renders "n=… p50=… p95=… p99=…".
func (l LatencySummary) String() string {
	if l.N == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d p50=%v p95=%v p99=%v",
		l.N, l.P50.Round(time.Microsecond), l.P95.Round(time.Microsecond), l.P99.Round(time.Microsecond))
}

// summarize computes percentiles over a latency sample (sorts in
// place).
func summarize(lat []time.Duration) LatencySummary {
	if len(lat) == 0 {
		return LatencySummary{}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	pick := func(p float64) time.Duration {
		i := int(p * float64(len(lat)-1))
		return lat[i]
	}
	return LatencySummary{N: len(lat), P50: pick(0.50), P95: pick(0.95), P99: pick(0.99)}
}

// LoadStats summarizes a load run (a local report, not a wire type —
// nothing in this file defines schema).
type LoadStats struct {
	Requests int64
	Errors   int64
	Admitted int64
	Rejected int64
	Tries    int64
	Removes  int64
	Elapsed  time.Duration
	// AllocsPerOp is the process-wide heap allocations per request
	// over the timed window (runtime mallocs delta / requests). With
	// the in-process transport it covers client and server both — the
	// number the allocation-free read path is accountable to; over
	// HTTP it only sees the client side.
	AllocsPerOp float64
	// Per-op-class latency percentiles: reads ride the lock-free
	// snapshot path, writes the session actor.
	ReadLatency  LatencySummary
	WriteLatency LatencySummary
}

// Throughput is requests per second.
func (ls *LoadStats) Throughput() float64 {
	if ls.Elapsed <= 0 {
		return 0
	}
	return float64(ls.Requests) / ls.Elapsed.Seconds()
}

// String renders the run for CLI output.
func (ls *LoadStats) String() string {
	return fmt.Sprintf("%d requests in %v (%.0f req/s, %.1f allocs/op): %d admitted, %d rejected, %d tries, %d removes, %d errors\n  reads  (snapshot path): %v\n  writes (actor path):    %v",
		ls.Requests, ls.Elapsed.Round(time.Millisecond), ls.Throughput(), ls.AllocsPerOp,
		ls.Admitted, ls.Rejected, ls.Tries, ls.Removes, ls.Errors,
		ls.ReadLatency, ls.WriteLatency)
}

// CrossCheckMetrics compares the client-observed latency
// percentiles of a finished load run against the server's scraped
// histograms (admitd_http_request_duration_seconds, path="read" and
// "actor"). The two views measure different spans — the client adds
// transport, the server buckets at powers of two — so agreement is
// asserted only to bucket resolution: the client percentile must lie
// within [bound/4, bound*4] of the server's bucketed quantile.
// Divergence is a warning (one message per failed percentile), not
// an error: it flags a broken instrument or a pathological
// transport, both worth a human look and neither worth failing a
// load run over.
func CrossCheckMetrics(expo []byte, st *LoadStats) []string {
	var warns []string
	check := func(path string, sum LatencySummary) {
		if sum.N == 0 {
			return
		}
		h := telemetry.ExtractHistogram(expo, "admitd_http_request_duration_seconds", `path="`+path+`"`)
		if h == nil {
			warns = append(warns, fmt.Sprintf("metrics cross-check: no %s-path histogram in scrape", path))
			return
		}
		if h.Count == 0 {
			warns = append(warns, fmt.Sprintf("metrics cross-check: %s-path histogram empty (client saw %d ops)", path, sum.N))
			return
		}
		for _, pc := range []struct {
			q      float64
			name   string
			client time.Duration
		}{{0.50, "p50", sum.P50}, {0.95, "p95", sum.P95}, {0.99, "p99", sum.P99}} {
			bound := h.Quantile(pc.q) // seconds, bucket upper bound
			cs := pc.client.Seconds()
			if cs > bound*4 || cs < bound/16 {
				warns = append(warns, fmt.Sprintf(
					"metrics cross-check: %s-path %s diverges: client %v vs server bucket ≤%.3gs",
					path, pc.name, pc.client, bound))
			}
		}
	}
	check("read", st.ReadLatency)
	check("actor", st.WriteLatency)
	return warns
}

// RunLoad drives a mixed admission workload — admit, try, remove,
// state, stats — across many sessions concurrently, through the
// typed client (remote or in-process). Sessions are created and
// seeded first (server-side generated batches), then Workers
// goroutines issue the request mix; several workers share each
// session, so the server's cross-goroutine session access is
// exercised, not just its throughput.
func RunLoad(ctx context.Context, c *client.Client, cfg LoadConfig) (*LoadStats, error) {
	if cfg.Sessions <= 0 {
		cfg.Sessions = 8
	}
	if cfg.Requests <= 0 {
		cfg.Requests = 1000
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2 * cfg.Sessions
		if cfg.Workers > 64 {
			cfg.Workers = 64
		}
	}
	if cfg.Cores <= 0 {
		cfg.Cores = 4
	}
	if cfg.TasksPerSession <= 0 {
		cfg.TasksPerSession = 12
	}
	readPct, err := parseMix(cfg.Mix)
	if err != nil {
		return nil, err
	}
	lg := &loadGen{cfg: cfg, c: c, readPct: readPct}
	if err := lg.seed(ctx); err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	per := cfg.Requests / cfg.Workers
	extra := cfg.Requests % cfg.Workers
	// Per-worker latency samples (contention-free; merged at the end).
	// Every buffer is sized up front — a worker issues at most n
	// requests — so the timed window never grows a sample slice: the
	// reported allocs/op charges the admission paths, not the
	// measurement harness.
	readLat := make([][]time.Duration, cfg.Workers)
	writeLat := make([][]time.Duration, cfg.Workers)
	for wi := 0; wi < cfg.Workers; wi++ {
		n := per
		if wi < extra {
			n++
		}
		readLat[wi] = make([]time.Duration, 0, n)
		writeLat[wi] = make([]time.Duration, 0, n)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for wi := 0; wi < cfg.Workers; wi++ {
		n := per
		if wi < extra {
			n++
		}
		wg.Add(1)
		go func(wi, n int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(wi)*7919))
			// Worker-owned state scratch: StateInto reuses its slices
			// across polls, keeping the read mix allocation-free.
			var st api.State
			for i := 0; i < n && ctx.Err() == nil; i++ {
				t0 := time.Now()
				isRead := lg.one(ctx, rng, &st)
				d := time.Since(t0)
				if isRead {
					readLat[wi] = append(readLat[wi], d)
				} else {
					writeLat[wi] = append(writeLat[wi], d)
				}
			}
		}(wi, n)
	}
	wg.Wait()
	lg.stats.Elapsed = time.Since(start)
	runtime.ReadMemStats(&m1)
	allR := make([]time.Duration, 0, cfg.Requests)
	allW := make([]time.Duration, 0, cfg.Requests)
	for wi := range readLat {
		allR = append(allR, readLat[wi]...)
		allW = append(allW, writeLat[wi]...)
	}
	lg.stats.ReadLatency = summarize(allR)
	lg.stats.WriteLatency = summarize(allW)
	lg.stats.Requests = lg.requests.Load()
	if lg.stats.Requests > 0 {
		lg.stats.AllocsPerOp = float64(m1.Mallocs-m0.Mallocs) / float64(lg.stats.Requests)
	}
	lg.stats.Errors = lg.errors.Load()
	lg.stats.Admitted = lg.admitted.Load()
	lg.stats.Rejected = lg.rejected.Load()
	lg.stats.Tries = lg.tries.Load()
	lg.stats.Removes = lg.removes.Load()
	if err := ctx.Err(); err != nil {
		return &lg.stats, err
	}
	return &lg.stats, nil
}

type loadGen struct {
	cfg     LoadConfig
	c       *client.Client
	readPct int // percentage of requests that are reads

	// sessions holds one shared handle per seeded session; nextID[s]
	// hands out unique task IDs, and a rolling window of recent IDs
	// feeds the remove mix.
	sessions []*client.Session
	nextID   []atomic.Int64

	requests, errors                   atomic.Int64
	admitted, rejected, tries, removes atomic.Int64
	stats                              LoadStats
}

// seed creates and populates the sessions.
func (lg *loadGen) seed(ctx context.Context) error {
	lg.sessions = make([]*client.Session, lg.cfg.Sessions)
	lg.nextID = make([]atomic.Int64, lg.cfg.Sessions)
	for i := 0; i < lg.cfg.Sessions; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		name := fmt.Sprintf("load-%04d", i)
		sess, err := lg.c.CreateSession(ctx, api.CreateSessionRequest{
			Name: name, Cores: lg.cfg.Cores, Policy: lg.cfg.Policy,
		})
		if api.IsCode(err, api.CodeSessionExists) {
			sess = lg.c.Session(name)
		} else if err != nil {
			return fmt.Errorf("loadgen: creating %s: %w", name, err)
		}
		// Seed the resident set with a server-side generated batch at
		// modest utilization so later probes mostly succeed.
		stream, err := sess.Batch(ctx, api.BatchRequest{Generate: &api.TaskGen{
			N:                lg.cfg.TasksPerSession,
			TotalUtilization: 0.5 * float64(lg.cfg.Cores),
			Seed:             lg.cfg.Seed + int64(i),
		}})
		if err != nil {
			return fmt.Errorf("loadgen: seeding %s: %w", name, err)
		}
		for stream.Next() {
		}
		_, err = stream.Summary()
		stream.Close() //nolint:errcheck // read-side close
		if err != nil {
			return fmt.Errorf("loadgen: seeding %s: %w", name, err)
		}
		lg.sessions[i] = sess
		// Generated IDs start above the resident set; leave headroom.
		lg.nextID[i].Store(int64(lg.cfg.TasksPerSession) + 1000)
	}
	return nil
}

// one issues a single request from the mix; reports whether it was a
// read (snapshot path) or a write (actor path).
func (lg *loadGen) one(ctx context.Context, rng *rand.Rand, st *api.State) bool {
	si := rng.Intn(lg.cfg.Sessions)
	sess := lg.sessions[si]
	var err error
	isRead := rng.Intn(100) < lg.readPct
	if isRead {
		switch kind := rng.Intn(10); {
		case kind < 7: // try (probe-only): the snapshot-path hot loop
			id := int64(1 << 40) // never admitted, so never a duplicate
			_, err = sess.Try(ctx, api.AdmitRequest{Task: lg.smallTask(id, rng)})
			lg.tries.Add(1)
		case kind < 9: // state
			err = sess.StateInto(ctx, st)
		default: // stats
			_, err = sess.Stats(ctx)
		}
	} else {
		// Writes alternate: admit a fresh small task, or remove one of
		// the recently admitted (an expected miss is not an error).
		lo := int64(lg.cfg.TasksPerSession) + 1000
		hi := lg.nextID[si].Load()
		if rng.Intn(2) == 0 || hi <= lo {
			id := lg.nextID[si].Add(1)
			var v api.Verdict
			v, err = sess.Admit(ctx, api.AdmitRequest{Task: lg.smallTask(id, rng)})
			if err == nil {
				if v.Admitted {
					lg.admitted.Add(1)
				} else {
					lg.rejected.Add(1)
				}
			}
		} else {
			id := lo + 1 + rng.Int63n(hi-lo)
			_, err = sess.Remove(ctx, id)
			if api.IsCode(err, api.CodeUnknownTask) {
				err = nil // already removed / never admitted: an expected miss
			}
			lg.removes.Add(1)
		}
	}
	lg.requests.Add(1)
	if err != nil {
		lg.errors.Add(1)
	}
	return isRead
}

// smallTask draws a light task (≤2% core utilization) from a finite
// catalog of task classes — discrete periods, budgets and priority
// bands, the shape of real admission traffic (task *types*, not
// unique tasks). Sessions stay schedulable while the mix churns.
func (lg *loadGen) smallTask(id int64, rng *rand.Rand) api.Task {
	periodMs := int64(20 * (1 + rng.Intn(10))) // 20ms..200ms in 20ms steps
	period := periodMs * int64(time.Millisecond)
	wcet := period / int64(50+10*rng.Intn(5))
	if wcet < 1000 {
		wcet = 1000
	}
	return api.Task{
		ID: id, WCETNs: wcet, PeriodNs: period,
		Priority: int(1000 + id%16), WSS: 64 << 10,
	}
}
