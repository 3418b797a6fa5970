package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/api"
	"repro/client"
	"repro/internal/admitd"
)

// maxClients caps the load generator's goroutines/connections:
// clients = min(nproc, maxClients).
const maxClients = 4

// serveSpec is one serve workload: the sessions it seeds, the mix it
// drives, and how much work one pass is. Sizes are constants, not
// flags — a figure from this benchmark is comparable with every other
// figure of the same workload name.
type serveSpec struct {
	name            string
	sessions        int
	cores           int
	seedTasks       int
	seedUtilPerCore float64
	mix             mixSpec
	// passRequests sizes a pass by request count, never by seconds,
	// so a faster program does the same work in less time.
	passRequests int
	// nominalPassSec is what a pass took on the reference host; it
	// only converts the -seconds budget into a number of passes.
	nominalPassSec float64
	durable        bool
	tcp            bool
	// setupBuilds is how many times a run builds the system to time
	// set-up (the median is setup_s): enough of them to settle the
	// median, few enough to take a second or two.
	setupBuilds int
	// tableKind is the op kind the layer table decomposes: the
	// workload's most frequent one.
	tableKind opKind
}

// The traffic catalog. Light sessions (4 cores × 12 seeded tasks)
// keep the probe kernel small; heavy ones (8 × 96 at ΣU = 0.75·m)
// make it dominate. There are 32 heavy sessions, not the issue's 8:
// the seed draws the resident sets and what a probe costs hangs on the
// set it lands in (fixed-point iterations per solve, an exact count,
// ran from 2.66 to 3.63 over ten seeds with 8 sessions and from 2.53
// to 3.04 with 32; alternated over twelve seeds on a steady host,
// ops_per_s spread by 11.8 % with 8 and 6.8 % with 32 at the same
// median).
var (
	specReadLight = serveSpec{
		name: "read_light_inproc", sessions: 16, cores: 4, seedTasks: 12, seedUtilPerCore: 0.5,
		mix:          mixSpec{readPct: 90, window: 8},
		passRequests: 300_000, nominalPassSec: 1.25, setupBuilds: 150,
	}
	specProbeHeavy = serveSpec{
		name: "probe_heavy_inproc", sessions: 32, cores: 8, seedTasks: 96, seedUtilPerCore: 0.75,
		mix:          mixSpec{readPct: 95, tryOnly: true, window: 1, unique: true},
		passRequests: 40_000, nominalPassSec: 1.25, setupBuilds: 30,
	}
	specWriteDurable = serveSpec{
		name: "write_durable_inproc", sessions: 16, cores: 4, seedTasks: 12, seedUtilPerCore: 0.5,
		mix:          mixSpec{readPct: 10, window: 8},
		passRequests: 150_000, nominalPassSec: 1.0, durable: true, tableKind: opAdmit, setupBuilds: 150,
	}
	// recover_durable's pass is the replay tail: what a restart replays.
	specRecover = serveSpec{
		name: "recover_durable", sessions: 16, cores: 4, seedTasks: 12, seedUtilPerCore: 0.5,
		mix:          mixSpec{readPct: 10, window: 8},
		passRequests: 15_000, durable: true, setupBuilds: 150,
	}
	specMixedTCP = serveSpec{
		name: "mixed_tcp_open", sessions: 16, cores: 4, seedTasks: 12, seedUtilPerCore: 0.5,
		mix: mixSpec{readPct: 60, window: 8},
		tcp: true, setupBuilds: 150,
	}
)

// Durability settings of write_durable_inproc: the default group
// policy and interval, and a checkpoint period short enough that
// several checkpoint+compaction cycles land in every run.
const (
	fsyncPolicy     = "group"
	fsyncInterval   = 5 * time.Millisecond
	checkpointEvery = 2 * time.Second
)

// scratchRoot is where WAL directories and trace files go: inside the
// working directory, so a run reads and writes only its checkout.
const scratchRoot = ".bench_build"

// serveEnv is one built system under test: a server, its seeded
// sessions and the driver's models of them.
type serveEnv struct {
	spec    *serveSpec
	nclient int

	srv     *admitd.Server
	dataDir string
	models  []*sessModel
	names   []string

	// TCP transport (spec.tcp only).
	hs          *http.Server
	hsDone      chan struct{}
	transport   *http.Transport
	baseURL     string
	connsOpened atomic.Int64
	tap         *serverTap
}

// sessName is the wire name of session i.
func sessName(i int) string { return "bench-" + strconv.Itoa(i) }

// buildServe builds a fresh server and seeds the workload's sessions
// through the typed client: server-side generated batches, as an
// operator would seed a cluster. Everything it does is set-up time.
func buildServe(spec *serveSpec, seed int64, nclient int) (*serveEnv, error) {
	env := &serveEnv{spec: spec, nclient: nclient}
	cfg := admitd.Config{MaxSessions: 4 * spec.sessions}
	if spec.durable {
		root := filepath.Join(scratchRoot, "data")
		if err := os.MkdirAll(root, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(root, spec.name+"-*")
		if err != nil {
			return nil, err
		}
		env.dataDir = dir
		cfg = durableConfig(spec, dir)
	}
	srv, err := admitd.New(cfg)
	if err != nil {
		env.close()
		return nil, err
	}
	env.srv = srv
	ctx := context.Background()
	c := client.InProcess(srv)
	for i := 0; i < spec.sessions; i++ {
		name := sessName(i)
		m := newSessModel(seed, i, name, spec.mix)
		sess, err := c.CreateSession(ctx, api.CreateSessionRequest{Name: name, Cores: spec.cores, Policy: "fp"})
		if err != nil {
			env.close()
			return nil, fmt.Errorf("creating %s: %w", name, err)
		}
		stream, err := sess.Batch(ctx, api.BatchRequest{Generate: &api.TaskGen{
			N:                spec.seedTasks,
			TotalUtilization: spec.seedUtilPerCore * float64(spec.cores),
			// Indices past the op streams' own, so a session's resident
			// set and its request stream come from unrelated seeds.
			Seed: sessionSeed(seed, spec.sessions+i),
		}})
		if err != nil {
			env.close()
			return nil, fmt.Errorf("seeding %s: %w", name, err)
		}
		for stream.Next() {
			if v := stream.Verdict(); v.Admitted {
				m.seeded = append(m.seeded, v.TaskID)
			}
		}
		_, err = stream.Summary()
		stream.Close() //nolint:errcheck // read-side close
		if err != nil {
			env.close()
			return nil, fmt.Errorf("seeding %s: %w", name, err)
		}
		env.models = append(env.models, m)
		env.names = append(env.names, name)
	}
	if spec.tcp {
		if err := env.listen(); err != nil {
			env.close()
			return nil, err
		}
	}
	return env, nil
}

// listen puts the server behind a real loopback TCP listener with a
// keep-alive transport capped at one connection per client.
func (env *serveEnv) listen() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	env.tap = &serverTap{next: env.srv}
	env.hs = &http.Server{
		Handler: env.tap,
		ConnState: func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				env.connsOpened.Add(1)
			}
		},
	}
	env.hsDone = make(chan struct{})
	go func() {
		defer close(env.hsDone)
		_ = env.hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed at shutdown
	}()
	env.transport = &http.Transport{
		MaxConnsPerHost:     env.nclient + 1, // the clients plus the 1 Hz scraper
		MaxIdleConnsPerHost: env.nclient + 1,
		IdleConnTimeout:     time.Minute,
	}
	env.baseURL = "http://" + ln.Addr().String()
	return nil
}

// close tears the environment down and waits for what it started.
func (env *serveEnv) close() {
	if env.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = env.hs.Shutdown(ctx) //nolint:errcheck // best-effort drain
		cancel()
		<-env.hsDone
		env.transport.CloseIdleConnections()
		env.hs = nil
	}
	if env.srv != nil {
		env.srv.Close()
		env.srv = nil
	}
	if env.dataDir != "" {
		os.RemoveAll(env.dataDir) //nolint:errcheck,gosec // bench scratch
		env.dataDir = ""
	}
}

// --- clients ---------------------------------------------------------

// clientCtx is one load-generator goroutine: its SDK client, the
// sessions it owns (a disjoint set, so every session sees a
// deterministic op sequence) and its preallocated sample buffers.
type clientCtx struct {
	c      *client.Client
	sess   []*client.Session
	models []*sessModel
	cursor int
	st     api.State // reused state scratch
	tr     *tracer   // nil on untraced passes

	lat               [numKinds][]int64 // latency samples by op kind
	attempted, failed int64
	firstErr          error
}

// newClients builds the per-goroutine clients. Session i belongs to
// client i mod nclient. With rec set, every call is traced.
func (env *serveEnv) newClients(nclient int, rec *recorder) ([]*clientCtx, error) {
	out := make([]*clientCtx, nclient)
	for ci := range out {
		cc := &clientCtx{}
		if rec != nil {
			cc.tr = &tracer{rec: rec}
		}
		switch {
		case env.spec.tcp:
			var rt http.RoundTripper = env.transport
			opts := []client.Option{}
			if cc.tr != nil {
				rt = &tracedRoundTripper{base: env.transport, tr: cc.tr}
				opts = append(opts, client.WithRequestHook(cc.tr.stampRequest))
			}
			opts = append(opts, client.WithHTTPClient(&http.Client{Transport: rt}))
			c, err := client.New(env.baseURL, opts...)
			if err != nil {
				return nil, err
			}
			cc.c = c
		case cc.tr != nil:
			cc.c = client.InProcess(&tracedHandler{next: env.srv, tr: cc.tr})
		default:
			cc.c = client.InProcess(env.srv)
		}
		for si := ci; si < len(env.models); si += nclient {
			cc.sess = append(cc.sess, cc.c.Session(env.names[si]))
			cc.models = append(cc.models, env.models[si])
		}
		out[ci] = cc
	}
	return out, nil
}

// nextOp advances the client's round-robin over its sessions.
func (cc *clientCtx) nextOp() (*sessModel, *client.Session, op) {
	i := cc.cursor % len(cc.sess)
	cc.cursor++
	m := cc.models[i]
	return m, cc.sess[i], m.next()
}

// issue sends one op through the SDK and applies the reply to the
// model. Any error is a failure: the driver never issues a request
// the server may refuse.
func (cc *clientCtx) issue(ctx context.Context, m *sessModel, sess *client.Session, o *op) error {
	switch o.kind {
	case opTry:
		v, err := sess.Try(ctx, api.AdmitRequest{Task: o.task})
		if err != nil {
			return err
		}
		m.ackVerdict(o, v)
	case opAdmit:
		v, err := sess.Admit(ctx, api.AdmitRequest{Task: o.task})
		if err != nil {
			return err
		}
		m.ackVerdict(o, v)
	case opRemove:
		if _, err := sess.Remove(ctx, o.id); err != nil {
			return err
		}
		m.ackRemove(o)
	case opState:
		if err := sess.StateInto(ctx, &cc.st); err != nil {
			return err
		}
		m.ackState(&cc.st)
	case opStats:
		if _, err := sess.Stats(ctx); err != nil {
			return err
		}
	}
	return nil
}

func (cc *clientCtx) fail(err error) {
	cc.failed++
	if cc.firstErr == nil {
		cc.firstErr = err
	}
}

// record files one latency sample under its op kind.
func (cc *clientCtx) record(kind opKind, d time.Duration) {
	cc.lat[kind] = append(cc.lat[kind], int64(d))
}

// reset empties the client's sample buffers, sized for n requests,
// and its counters, before a pass or step.
func (cc *clientCtx) reset(n int) {
	for k := range cc.lat {
		if cap(cc.lat[k]) < n {
			cc.lat[k] = make([]int64, 0, n)
		}
		cc.lat[k] = cc.lat[k][:0]
	}
	cc.attempted, cc.failed, cc.firstErr = 0, 0, nil
}

// --- closed-loop passes ----------------------------------------------

// passResult is what one pass measured. Latency slices are sorted.
type passResult struct {
	requests, failed int64
	wall, cpu        time.Duration
	kind             [numKinds][]int64
	reads, writes    []int64
	all              []int64
	mallocs          uint64
	gcCycles         uint32
	gcPause          time.Duration
	firstErr         error
}

func (p *passResult) reqPerSec() float64 { return float64(p.requests) / p.wall.Seconds() }
func (p *passResult) cpuUsPerReq() float64 {
	return float64(p.cpu.Microseconds()) / float64(p.requests)
}

// memDelta brackets a timed window with runtime.MemStats reads.
type memDelta struct{ m0 runtime.MemStats }

func (d *memDelta) start() { runtime.ReadMemStats(&d.m0) }
func (d *memDelta) stop(p *passResult) {
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	p.mallocs = m1.Mallocs - d.m0.Mallocs
	p.gcCycles = m1.NumGC - d.m0.NumGC
	p.gcPause = time.Duration(m1.PauseTotalNs - d.m0.PauseTotalNs)
}

// closedPass runs one closed-loop pass of n requests split evenly
// over the clients: each client sends its next request only after the
// previous one completed — callers that wait for a verdict.
func closedPass(clients []*clientCtx, n int) passResult {
	per := n / len(clients)
	for _, cc := range clients {
		cc.reset(per)
	}
	runtime.GC() // every pass starts from a collected heap
	ctx := context.Background()
	var res passResult
	var md memDelta
	var wg sync.WaitGroup
	gate := make(chan struct{})
	for _, cc := range clients {
		wg.Add(1)
		go func(cc *clientCtx) {
			defer wg.Done()
			<-gate
			for i := 0; i < per; i++ {
				m, sess, o := cc.nextOp()
				cc.attempted++
				t0 := time.Now()
				cc.tr.beginCall(o.kind)
				err := cc.issue(ctx, m, sess, &o)
				cc.tr.endCall()
				d := time.Since(t0)
				if err != nil {
					cc.fail(fmt.Errorf("%s %s: %w", m.name, opNames[o.kind], err))
					continue
				}
				cc.record(o.kind, d)
			}
		}(cc)
	}
	md.start()
	cpu0, start := cpuTime(), time.Now()
	close(gate)
	wg.Wait()
	res.wall = time.Since(start)
	res.cpu = cpuTime() - cpu0
	md.stop(&res)
	res.collect(clients)
	return res
}

// collect merges and sorts the clients' samples.
func (p *passResult) collect(clients []*clientCtx) {
	for _, cc := range clients {
		p.requests += cc.attempted
		p.failed += cc.failed
		if p.firstErr == nil {
			p.firstErr = cc.firstErr
		}
		for k := range cc.lat {
			p.kind[k] = append(p.kind[k], cc.lat[k]...)
		}
	}
	for k := range p.kind {
		if opKind(k).isRead() {
			p.reads = append(p.reads, p.kind[k]...)
		} else {
			p.writes = append(p.writes, p.kind[k]...)
		}
	}
	p.all = append(append(make([]int64, 0, len(p.reads)+len(p.writes)), p.reads...), p.writes...)
	for _, s := range append(p.kind[:], p.reads, p.writes, p.all) {
		slices.Sort(s)
	}
}

// numPasses turns the -seconds budget into a pass count that depends
// on the flag alone, never on how fast the host is, so the op stream
// (and its verdict digest) is a function of (seed, seconds) only.
func numPasses(seconds int, nominalPassSec float64) int {
	n := int(float64(seconds)/nominalPassSec + 0.5)
	if n < 3 {
		n = 3
	}
	return n
}
