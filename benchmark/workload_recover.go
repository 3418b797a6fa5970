package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/api"
	"repro/client"
	"repro/internal/admitd"
	"repro/internal/wal"
)

// recover_durable: what a restart after a crash costs. One op is one
// restart: a second server opens a copy of the crash image and the
// clock runs from admitd.New until every session has answered state.
// The image is the same for every restart of a run: a checkpoint, then
// a fixed tail of the durable workload's own traffic on top, so the log
// holds a known amount to replay. (A graceful Close checkpoints and
// compacts the log away and leaves nothing to replay, so the image is
// copied from the live directory, as a crash would leave it.)
const (
	restartsPerPass = 10
	// restartNominal is what a pass slot (ten copies, restarts and
	// closes) takes on the reference host; it only converts the -seconds
	// budget into a number of passes.
	restartNominal = 0.45
	// imageAttempts × fsyncInterval is how long the benchmark waits for
	// every acknowledged write to reach the files before it calls the
	// write lost: forty times the loss window the group policy promises.
	imageAttempts = 40
	scanRepeats   = 3
)

// durableConfig is the daemon configuration of the durable workloads.
func durableConfig(spec *serveSpec, dir string) admitd.Config {
	return admitd.Config{
		MaxSessions: 4 * spec.sessions, DataDir: dir,
		Fsync: fsyncPolicy, FsyncInterval: fsyncInterval, CheckpointEvery: checkpointEvery,
	}
}

// restart opens a server on dir and waits until every session has
// answered state.
func restart(spec *serveSpec, dir string, names []string) (srv *admitd.Server, wall, cpu time.Duration, err error) {
	ctx := context.Background()
	cpu0, t0 := cpuTime(), time.Now()
	srv, err = admitd.New(durableConfig(spec, dir))
	if err != nil {
		return nil, 0, 0, fmt.Errorf("reopening the crash image: %w", err)
	}
	c := client.InProcess(srv)
	var st api.State
	for _, name := range names {
		if err := c.Session(name).StateInto(ctx, &st); err != nil {
			srv.Close()
			return nil, 0, 0, fmt.Errorf("%s: state after recovery: %w", name, err)
		}
	}
	return srv, time.Since(t0), cpuTime() - cpu0, nil
}

// recoveredResidents reports whether every session of a recovered
// server holds exactly the IDs the model of acknowledged writes says
// are resident.
func recoveredResidents(srv *admitd.Server, models []*sessModel) (bool, error) {
	c := client.InProcess(srv)
	for _, m := range models {
		st, err := c.Session(m.name).State(context.Background())
		if err != nil {
			return false, fmt.Errorf("%s: state: %w", m.name, err)
		}
		if !sameResidents(&st, m) {
			return false, nil
		}
	}
	return true, nil
}

// crashImage copies the live data directory as a crash would leave it,
// once it holds every acknowledged write. Under the group policy an
// acked record may sit in the log's buffer until the background
// committer's next flush, and a periodic checkpoint may rename or
// compact files away under the copy, so a copy is checked, not
// trusted: a second copy of it is scanned and recovered, and its
// sessions compared with the model of acknowledged writes; an image
// that falls short is retaken an interval later. It returns the image,
// which nothing has opened, and the number of commit-log records in it.
func crashImage(env *serveEnv) (image string, records int, err error) {
	image, probe := env.dataDir+"-crash", env.dataDir+"-probe"
	defer os.RemoveAll(probe) //nolint:errcheck // bench scratch
	for attempt := 1; ; attempt++ {
		time.Sleep(fsyncInterval)
		os.RemoveAll(image) //nolint:errcheck,gosec // bench scratch
		os.RemoveAll(probe) //nolint:errcheck,gosec // bench scratch
		records, err = tryImage(env, image, probe)
		if err == nil {
			return image, records, nil
		}
		if attempt == imageAttempts {
			os.RemoveAll(image) //nolint:errcheck,gosec // bench scratch
			return "", 0, fmt.Errorf("no complete crash image in %d attempts: %w", attempt, err)
		}
	}
}

func tryImage(env *serveEnv, image, probe string) (records int, err error) {
	if err := copyTree(env.dataDir, image); err != nil {
		return 0, err
	}
	if err := copyTree(image, probe); err != nil {
		return 0, err
	}
	if records, err = countRecords(probe); err != nil {
		return 0, err
	}
	srv, _, _, err := restart(env.spec, probe, env.names)
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	ok, err := recoveredResidents(srv, env.models)
	if err == nil && !ok {
		err = errors.New("a recovery of the image does not hold every acknowledged write")
	}
	return records, err
}

// countRecords opens the commit logs under dataDir (which may repair a
// torn tail, so never on the image a timed restart will open) and
// counts the records a recovery scans.
func countRecords(dataDir string) (int, error) {
	shards, err := filepath.Glob(filepath.Join(dataDir, "wal", "shard-*"))
	if err != nil {
		return 0, err
	}
	n := 0
	for _, dir := range shards {
		l, _, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncOff})
		if err != nil {
			return 0, fmt.Errorf("counting records in %s: %w", dir, err)
		}
		err = l.Replay(func(wal.Record) error { n++; return nil })
		if cerr := l.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return 0, fmt.Errorf("counting records in %s: %w", dir, err)
		}
	}
	return n, nil
}

// copyTree copies a directory tree of regular files.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close() //nolint:errcheck // read-only
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close() //nolint:errcheck // already failing
			return err
		}
		return out.Close()
	})
}

// runRecover runs recover_durable.
func runRecover(spec *serveSpec, o runOpts) (*result, error) {
	res := newResult(spec.name)
	res.TableOp = "restart"
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
	// What a restart finds: sessions that have lived (a pass of
	// traffic), a checkpoint, and the replay tail on top of it.
	n := o.scaled(spec.passRequests)
	for i := 0; i < 2; i++ {
		p := closedPass(clients, n)
		res.note(p.requests, p.failed, p.firstErr)
		if i == 0 {
			if err := env.srv.Store().Checkpoint(); err != nil {
				return nil, fmt.Errorf("checkpoint before the replay tail: %w", err)
			}
		}
	}
	image, records, err := crashImage(env)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(image) //nolint:errcheck // bench scratch
	env.srv.Close()
	env.srv = nil

	// Every restart opens a fresh copy: a recovery repairs and, when
	// the server closes, checkpoints and compacts what it opened.
	dir := image + "-restart"
	defer os.RemoveAll(dir) //nolint:errcheck // bench scratch
	var lat []int64
	var rate, cpus []float64
	passes := numPasses(o.seconds, restartNominal)
	for p := 0; p < passes; p++ {
		var wall, cpu time.Duration
		for i := 0; i < restartsPerPass; i++ {
			if err := copyTree(image, dir); err != nil {
				return nil, err
			}
			srv, w, c, err := restart(spec, dir, env.names)
			if err != nil {
				return nil, err
			}
			lat = append(lat, int64(w))
			wall += w
			cpu += c
			ok, err := recoveredResidents(srv, env.models)
			chk.ok(err == nil && ok, "restart %d: recovered sessions differ from the acked-write model (%v)", len(lat), err)
			srv.Close()
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
		rate = append(rate, restartsPerPass/wall.Seconds())
		cpus = append(cpus, float64(cpu.Microseconds())/restartsPerPass)
	}
	res.Attempted += int64(len(lat))
	slices.Sort(lat)
	res.E2E["ops_per_s"] = summarize(rate, restartsPerPass)
	res.E2E["cpu_us_per_op"] = summarize(cpus, restartsPerPass)
	// Percentiles over every restart of the run: a pass of ten has no
	// tail to speak of.
	res.E2E["op_p50_us"] = summarize([]float64{float64(percentile(lat, 0.5)) / 1e3}, len(lat))
	res.E2E["op_p90_us"] = summarize([]float64{float64(percentile(lat, 0.9)) / 1e3}, len(lat))
	res.Notes = append(res.Notes, fmt.Sprintf("crash image: %d commit-log records to replay on top of %d sessions' checkpoints; %d restarts", records, len(env.names), len(lat)))

	res.takePeakRSS()

	if o.trace {
		if err := traceRecover(res, image, dir, records, float64(percentile(lat, 0.5))); err != nil {
			return nil, err
		}
	}
	// One more restart, untimed, faces the checks a live server does.
	if err := copyTree(image, dir); err != nil {
		return nil, err
	}
	srv, _, _, err := restart(spec, dir, env.names)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	checkSessions(chk, client.InProcess(srv), env.models)
	res.finish(chk, env.models)
	return res, nil
}

// traceRecover fills the recovery's per-layer figures. A restart has
// no public seam between wal and admitd to put a span on, so the wal
// layer's share is timed directly — open, verify and scan the image's
// logs — and the rest of a restart (checkpoint loads, records
// re-applied through the kernel, the first state of every session) is
// the unattributed row.
func traceRecover(res *result, image, dir string, records int, medianNs float64) error {
	var scans []float64
	for i := 0; i < scanRepeats; i++ {
		if err := copyTree(image, dir); err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := countRecords(dir); err != nil {
			return err
		}
		scans = append(scans, float64(time.Since(t0)))
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	scan := median(scans)
	out := res.Layer
	out["wal.recover_s"] = medianNs / 1e9
	out["wal.replay_records"] = float64(records)
	out["wal.replay_ns_per_record"] = ratio(medianNs, float64(records))
	out["wal.scan_ns_per_record"] = ratio(scan, float64(records))
	res.Table = []tableRow{
		{"wal: open, verify and scan the logs (direct)", scan},
		{"admitd: checkpoints + replay (unattributed)", medianNs - scan},
		{"= sum of rows", medianNs},
		{"end to end, untraced median", medianNs},
	}
	return nil
}
