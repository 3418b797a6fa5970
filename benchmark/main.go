// Command benchmark is the repo's benchmark: six named workloads,
// end-to-end and per-layer metrics, correctness checks, and a traced
// run that records spans from this package only. BENCHMARK.json at
// the repo root declares it; README.md in this directory is the
// metric dictionary.
//
//	bash benchmark/run.sh --seed 1                          every workload, end-to-end metrics
//	bash benchmark/run.sh --workload mixed_tcp_open --seed 2
//	bash benchmark/run.sh --seed 1 --trace 1                the traced run: layer tables, per-layer metrics
//	bash benchmark/run.sh --repeat 5                        noise calibration
//
// The last line of standard output is the result object the driver
// reads; the exit code is 0 only if every check passed.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "", "run one workload (default: all of them)")
	seed := fl.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fl.Int("seconds", runSeconds, "measurement budget; it fixes the number of timed passes, never their size")
	trace := fl.Int("trace", 0, "1: the traced run (per-layer metrics and layer tables) instead of the end-to-end one")
	traceOut := fl.String("trace-out", filepath.Join(scratchRoot, "trace"), "directory the traced run writes its span JSONL files to")
	repeat := fl.Int("repeat", 0, "noise calibration: run the suite this many times and print each metric's spread")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || *seconds > 60 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: -seconds must be 1..60 and -trace 0 or 1")
		return 2
	}
	host := readHost()
	fmt.Fprintln(stdout, host)
	fmt.Fprintf(stdout, "run: seed=%d seconds=%d trace=%d transport: in-process, or loopback TCP (not a link) on mixed_tcp_open; fsync=%s/%v checkpoint=%v on the durable workloads\n",
		*seed, *seconds, *trace, fsyncPolicy, fsyncInterval, checkpointEvery)
	if err := host.validate(); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 3
	}
	var names []string
	for _, w := range workloads {
		if *workload == "" || *workload == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workload)
		return 2
	}
	opts := runOpts{seed: *seed, seconds: *seconds, trace: *trace == 1, short: 1, nclient: host.Clients, traceOut: *traceOut}
	if len(names) == 1 && *repeat == 0 {
		res, err := runWorkload(names[0], opts)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", names[0], err)
			return 1
		}
		res.print(stdout, opts.trace)
		fmt.Fprintln(stdout, res.resultLine(opts.trace))
		if !res.correct() {
			return 1
		}
		return 0
	}
	// Several workloads, or several repeats: each run gets a process of
	// its own, as the driver gives it. A workload run after another in
	// one process inherits its heap, its OS threads and its memory
	// high-water mark, and measurably its timer latency.
	if *repeat > 0 {
		return calibrate(names, opts, *repeat, stdout, stderr)
	}
	code := 0
	for _, name := range names {
		if _, c := runChild(name, opts, stdout, stderr); c != 0 {
			code = c
		}
	}
	return code
}

// runWorkload dispatches one workload by name.
func runWorkload(name string, o runOpts) (*result, error) {
	switch name {
	case specReadLight.name:
		return runClosed(&specReadLight, o)
	case specProbeHeavy.name:
		return runClosed(&specProbeHeavy, o)
	case specWriteDurable.name:
		return runClosed(&specWriteDurable, o)
	case specRecover.name:
		return runRecover(&specRecover, o)
	case specMixedTCP.name:
		return runTCP(&specMixedTCP, o)
	case sweepName:
		return runSweep(o)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// runChild runs one workload in a child process of this same binary,
// copies its report to stdout (when stdout is non-nil) and returns its
// parsed result line and exit code.
func runChild(name string, o runOpts, stdout, stderr io.Writer) (*jsonResult, int) {
	trace := "0"
	if o.trace {
		trace = "1"
	}
	cmd := exec.Command(os.Args[0], "-workload", name, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-trace", trace, "-trace-out", o.traceOut)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	code := 0
	if err := cmd.Run(); err != nil {
		code = 1
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			code = ee.ExitCode()
		} else {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
		}
	}
	if stdout != nil {
		stdout.Write(out.Bytes()) //nolint:errcheck // report copy
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var res jsonResult
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, code
	}
	return &res, code
}

// calibrate is the noise calibration: the suite N times back to back
// on successive seeds, each run in its own process, then per (metric,
// workload) the median, quartiles, inter-quartile spread and largest
// relative deviation over the runs' result lines — the table
// CALIBRATION.md records and the bounds are set from.
func calibrate(names []string, o runOpts, n int, stdout, stderr io.Writer) int {
	values := map[string][]float64{}
	code := 0
	for i := 0; i < n; i++ {
		run := o
		run.seed = o.seed + int64(i)
		for _, name := range names {
			res, c := runChild(name, run, nil, stderr)
			if c != 0 || res == nil || !res.Correct {
				fmt.Fprintf(stdout, "repeat %d/%d %s seed=%d FAILED (exit %d)\n", i+1, n, name, run.seed, c)
				code = 1
				continue
			}
			for k, m := range res.Metrics {
				values[name+" "+k] = append(values[name+" "+k], m.Value)
			}
			fmt.Fprintf(stdout, "repeat %d/%d %s seed=%d done\n", i+1, n, name, run.seed)
		}
	}
	keys := make([]string, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(stdout, "\n%-52s %14s %14s %14s %8s %8s\n", "workload metric", "median", "q1", "q3", "IQR/med", "maxdev")
	for _, k := range keys {
		v := values[k]
		q1, q3 := quartiles(v)
		fmt.Fprintf(stdout, "%-52s %14.4f %14.4f %14.4f %7.1f%% %7.1f%%\n", k, median(v), q1, q3, 100*spread(v), 100*maxRelDev(v))
	}
	return code
}
