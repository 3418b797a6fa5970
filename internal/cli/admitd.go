package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/api"
	"repro/client"
	"repro/internal/admitd"
	"repro/internal/telemetry"
)

// Admitd is the spadmitd entry point: the admission-control daemon
// and its load generator (driven through the typed client SDK).
//
//	spadmitd serve [-addr :7007] [-data-dir dir] [-fsync group]
//	               [-fsync-interval 5ms] [-checkpoint-every 30s]
//	               [-max-sessions 1024]
//	               [-pprof localhost:6060] [-trace] [-events log.ndjson]
//	spadmitd load  [-addr http://host:7007] [-sessions 64] [-requests 100000]
//	               [-workers 0] [-cores 4] [-tasks 12] [-policy fp] [-seed 1]
//	               [-mix 90/10] [-data-dir dir] [-fsync group]
//	               [-cpuprofile cpu.out] [-memprofile mem.out]
//
// `load` without -addr runs against an in-process server — a
// self-contained smoke/throughput run needing no listener.
func Admitd(args []string, w io.Writer) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: spadmitd <serve|load> [flags]")
	}
	switch args[0] {
	case "serve":
		return admitdServe(args[1:], w)
	case "load":
		return admitdLoad(args[1:], w)
	default:
		return fmt.Errorf("unknown subcommand %q (serve|load)", args[0])
	}
}

// admitdServe runs the HTTP daemon until SIGINT/SIGTERM, then shuts
// down gracefully: the listener drains and every live session is
// snapshotted.
func admitdServe(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("spadmitd serve", flag.ContinueOnError)
	fs.SetOutput(w)
	var (
		addr      = fs.String("addr", ":7007", "listen address")
		dataDir   = fs.String("data-dir", "", "durability directory (enables persistence: commit log, checkpoints, crash recovery)")
		fsync     = fs.String("fsync", "group", "commit policy: group (ack at apply, background fsync each interval) | always (fsync before ack) | off")
		fsyncInt  = fs.Duration("fsync-interval", 0, "group policy: background fsync cadence = crash loss window (<=0: 5ms default)")
		ckptEvery = fs.Duration("checkpoint-every", 0, "snapshot-compaction period (0: 30s default; negative: off)")
		maxSess   = fs.Int("max-sessions", 1024, "live-session cap (LRU eviction beyond it)")
		pprofAddr = fs.String("pprof", "", "serve /debug/pprof and /metrics on this side address (e.g. localhost:6060); empty = off")
		trace     = fs.Bool("trace", true, "generate Admitd-Trace-Id for requests that did not supply one")
		events    = fs.String("events", "", "append structured NDJSON request events to this file (- for stderr); empty = off")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var elog *slog.Logger
	if *events != "" {
		sink := io.Writer(os.Stderr)
		if *events != "-" {
			f, err := os.OpenFile(*events, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return err
			}
			defer f.Close() //nolint:errcheck // event log, best-effort
			sink = f
		}
		elog = telemetry.NewEventLog(sink)
	}
	srv, err := admitd.New(admitd.Config{
		MaxSessions:     *maxSess,
		DataDir:         *dataDir,
		Fsync:           *fsync,
		FsyncInterval:   *fsyncInt,
		CheckpointEvery: *ckptEvery,
		Trace:           *trace,
		EventLog:        elog,
	})
	if err != nil {
		return err
	}
	if *pprofAddr != "" {
		// Profiling is opt-in and on a side listener, so the handlers
		// never ride the service port.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", httppprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
		// The exposition rides the side listener too, so scrapers
		// need not touch the service port.
		mux.Handle(api.PathMetrics, srv.Metrics())
		go func() {
			if err := http.ListenAndServe(*pprofAddr, mux); err != nil { //nolint:gosec // debug side listener, opt-in
				fmt.Fprintf(w, "spadmitd: pprof listener: %v\n", err)
			}
		}()
		fmt.Fprintf(w, "spadmitd pprof on http://%s/debug/pprof/\n", *pprofAddr)
	}
	httpSrv := newHTTPServer(*addr, srv)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	switch {
	case *dataDir != "":
		fmt.Fprintf(w, "spadmitd listening on %s (max sessions %d, data dir %q, fsync %s)\n", *addr, *maxSess, *dataDir, *fsync)
	default:
		fmt.Fprintf(w, "spadmitd listening on %s (max sessions %d, nothing persisted: no -data-dir)\n", *addr, *maxSess)
	}
	select {
	case err := <-errc:
		srv.Close()
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(w, "spadmitd: shutting down (checkpointing live sessions when -data-dir is set)")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = httpSrv.Shutdown(shutCtx) //nolint:errcheck // drain best-effort before checkpointing
	srv.Close()
	return nil
}

// Slow-client timeouts of the service listener. Every wait on a client
// is bounded: its request headers within serveReadHeaderTimeout, the
// whole request, body included, within serveReadTimeout, and the
// handler plus the response write within serveWriteTimeout; an idle
// keep-alive connection is closed after serveIdleTimeout. So a client
// that trickles headers or a body, stops reading its response, or parks
// a connection cannot pin the server's descriptors and goroutines.
//
// No route streams, so every response is bounded: a batch's verdicts
// or a /metrics scrape. In the test suite (2-vCPU host) the longest
// batch, 15 tasks with 64 KiB names in a 1 MiB body, took 61 ms (0.33 s
// under -race) and the longest scrape 4 ms; the slowest handler of any
// route took 0.9 s under -race. The write deadline leaves over 60x that,
// and the read deadline asks for the largest legal body (1 MiB) at no
// less than 35 KB/s.
const (
	serveReadHeaderTimeout = 10 * time.Second
	serveReadTimeout       = 30 * time.Second
	serveWriteTimeout      = 60 * time.Second
	serveIdleTimeout       = 2 * time.Minute
)

// newHTTPServer returns the service listener's server.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: serveReadHeaderTimeout,
		ReadTimeout:       serveReadTimeout,
		WriteTimeout:      serveWriteTimeout,
		IdleTimeout:       serveIdleTimeout,
	}
}

// admitdLoad drives the request mix against a remote server (-addr)
// or an in-process one.
func admitdLoad(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("spadmitd load", flag.ContinueOnError)
	fs.SetOutput(w)
	var (
		addr     = fs.String("addr", "", "server base URL (empty: run in-process)")
		sessions = fs.Int("sessions", 64, "concurrent cluster sessions")
		requests = fs.Int("requests", 100000, "total admission requests")
		workers  = fs.Int("workers", 0, "client concurrency (0: 2x sessions, capped at 64)")
		cores    = fs.Int("cores", 4, "cores per session")
		tasks    = fs.Int("tasks", 12, "resident tasks seeded per session")
		policy   = fs.String("policy", "fp", "session policy: fp|edf")
		seed     = fs.Int64("seed", 1, "workload seed")
		mix      = fs.String("mix", "", `read/write mix as "R/W" percentages, e.g. 90/10 (default 60/40); reads ride the lock-free snapshot path`)
		dataDir  = fs.String("data-dir", "", "in-process runs: durability directory for the embedded server")
		fsync    = fs.String("fsync", "group", "in-process runs: commit-log sync policy (group|always|off)")
		cpuprof  = fs.String("cpuprofile", "", "write a CPU profile of the load run to this file")
		memprof  = fs.String("memprofile", "", "write a post-run heap profile to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			return err
		}
		defer f.Close() //nolint:errcheck // profile file
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	cfg := admitd.LoadConfig{
		Sessions:        *sessions,
		Requests:        *requests,
		Workers:         *workers,
		Cores:           *cores,
		TasksPerSession: *tasks,
		Policy:          *policy,
		Seed:            *seed,
		Mix:             *mix,
	}
	var c *client.Client
	if *addr == "" {
		srv, err := admitd.New(admitd.Config{MaxSessions: 2 * *sessions, DataDir: *dataDir, Fsync: *fsync})
		if err != nil {
			return err
		}
		defer srv.Close()
		c = client.InProcess(srv)
	} else {
		var err error
		if c, err = client.New(*addr, client.WithTimeout(30*time.Second)); err != nil {
			return err
		}
	}
	stats, err := admitd.RunLoad(context.Background(), c, cfg)
	if err != nil {
		return err
	}
	// End-of-run cross-check: scrape the server's histograms and
	// verify the client-observed percentiles land in the same
	// buckets. Warnings only — the run's verdict is the error count.
	if expo, merr := c.Metrics(context.Background()); merr == nil {
		for _, warn := range admitd.CrossCheckMetrics(expo, stats) {
			fmt.Fprintln(w, "warning:", warn)
		}
	} else {
		fmt.Fprintf(w, "warning: metrics scrape failed: %v\n", merr)
	}
	if *memprof != "" {
		f, ferr := os.Create(*memprof)
		if ferr != nil {
			return ferr
		}
		runtime.GC() // settle: profile live retained memory, not garbage
		if ferr := pprof.WriteHeapProfile(f); ferr != nil {
			f.Close() //nolint:errcheck // already failing
			return ferr
		}
		if ferr := f.Close(); ferr != nil {
			return ferr
		}
	}
	fmt.Fprintln(w, stats)
	if stats.Errors > 0 {
		return fmt.Errorf("load run finished with %d unexpected errors", stats.Errors)
	}
	return nil
}
