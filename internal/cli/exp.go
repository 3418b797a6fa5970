package cli

import (
	"flag"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"repro/internal/experiment"
	"repro/internal/overhead"
	"repro/internal/partition"
	"repro/internal/report"
	"repro/internal/taskgen"
	"repro/internal/timeq"
)

// Exp is the spexp entry point: the Section 4 acceptance-ratio sweep.
func Exp(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("spexp", flag.ContinueOnError)
	fs.SetOutput(w)
	var (
		cores    = fs.Int("cores", 4, "number of cores")
		tasks    = fs.Int("tasks", 16, "tasks per set")
		sets     = fs.Int("sets", 200, "task sets per grid point")
		seed     = fs.Int64("seed", 1, "generator seed")
		ovName   = fs.String("overheads", "both", "zero|paper|both")
		modelF   = fs.String("model", "", "custom overhead model JSON file (overrides -overheads)")
		csv      = fs.Bool("csv", false, "emit CSV instead of tables")
		jsonOut  = fs.Bool("json", false, "emit JSON (the serialization shared with admitd) instead of tables")
		plot     = fs.Bool("plot", false, "also draw ASCII acceptance curves")
		edf      = fs.Bool("edf", false, "compare EDF algorithms instead")
		algsF    = fs.String("algs", "", "comma-separated algorithm list (mixed FP/EDF allowed), e.g. fpts,edfwm,ffd")
		progress = fs.Bool("progress", false, "stream per-cell progress lines as shards complete")
		stats    = fs.Bool("stats", false, "report admission-probe counts, cache hit rate and fixed-point effort per sweep")
		validate = fs.Duration("validate", 0, "also simulate accepted sets for this horizon")
		umin     = fs.Float64("umin", 0.600, "minimum per-core utilization")
		umax     = fs.Float64("umax", 0.975, "maximum per-core utilization")
		ustep    = fs.Float64("ustep", 0.025, "per-core utilization step")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *umin <= 0 || *umax < *umin || *ustep <= 0 {
		return fmt.Errorf("bad utilization grid [%v, %v] step %v", *umin, *umax, *ustep)
	}
	// Generate the grid from an integer step count so the points are
	// exact: a float accumulator (u += step) drifts by ULPs and can
	// drop the last point.
	var grid []float64
	steps := int(math.Floor((*umax - *umin) / *ustep * (1 + 1e-12)))
	for i := 0; i <= steps; i++ {
		grid = append(grid, (*umin+float64(i)**ustep)*float64(*cores))
	}
	var algs []partition.Algorithm
	switch {
	case *algsF != "" && *edf:
		return fmt.Errorf("-edf and -algs are mutually exclusive; add EDF algorithms to -algs instead")
	case *algsF != "":
		for _, name := range strings.Split(*algsF, ",") {
			alg, err := AlgorithmByName(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			algs = append(algs, alg)
		}
	case *edf:
		algs = []partition.Algorithm{partition.WM, partition.EDFFFD, partition.TS}
	}
	// Paired runs (-overheads both) share one set cache: the second
	// sweep analyzes the same generated sets under the other model
	// instead of re-generating them.
	setCache := taskgen.NewSetCache()
	run := func(model *overhead.Model, label string) {
		cfg := experiment.Config{
			Cores:        *cores,
			Tasks:        *tasks,
			SetsPerPoint: *sets,
			Utilizations: grid,
			Algorithms:   algs,
			Model:        model,
			Seed:         *seed,
			SimHorizon:   timeq.FromDuration(*validate),
			SetCache:     setCache,
		}
		if *progress {
			cfg.Progress = func(u experiment.CellUpdate) {
				line := fmt.Sprintf("[%3d/%3d] %-10s U=%.3f %4d/%-4d %.3f [%.3f,%.3f]",
					u.DoneShards, u.TotalShards, u.Algorithm, u.TotalUtilization,
					u.Accepted, u.Total, u.Ratio, u.WilsonLo, u.WilsonHi)
				if *stats {
					// The admission totals ride the same progress
					// stream as the acceptance counts.
					line += fmt.Sprintf("  probes=%d", u.Admission.Probes)
				}
				fmt.Fprintln(w, line)
			}
		}
		start := time.Now()
		r := experiment.Run(cfg)
		if *jsonOut {
			_ = report.SweepResultJSON(r).Encode(w) //nolint:errcheck // writer errors surface downstream
			return
		}
		if *csv {
			fmt.Fprint(w, r.CSV())
			return
		}
		fmt.Fprintf(w, "acceptance ratio — %s overheads (%d sets/point, %d tasks, %d cores, %v)\n",
			label, *sets, *tasks, *cores, time.Since(start).Round(time.Millisecond))
		fmt.Fprint(w, r.Table())
		if *stats {
			fmt.Fprintf(w, "admission: %v\n", r.Admission)
		}
		if *plot {
			fmt.Fprintln(w)
			fmt.Fprint(w, r.Plot(14))
		}
		if *validate > 0 {
			fmt.Fprintf(w, "simulation validation: %d violations (expected 0)\n", r.TotalSimViolations())
		}
		fmt.Fprintln(w)
	}
	if *modelF != "" {
		m, err := modelFromFlags("", *modelF, 1)
		if err != nil {
			return err
		}
		run(m, "custom")
		return nil
	}
	switch *ovName {
	case "zero":
		run(overhead.Zero(), "zero")
	case "paper":
		run(overhead.PaperModel(), "measured (paper)")
	case "both":
		run(overhead.Zero(), "zero")
		run(overhead.PaperModel(), "measured (paper)")
	default:
		return fmt.Errorf("unknown overhead model %q (zero|paper|both)", *ovName)
	}
	return nil
}

// Measure is the spmeasure entry point: Table 1 plus function costs.
func Measure(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("spmeasure", flag.ContinueOnError)
	fs.SetOutput(w)
	samples := fs.Int("samples", 2000, "timing samples per cell")
	raw := fs.Bool("raw", false, "also print the raw measurement rows")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *samples < 10 {
		return fmt.Errorf("need at least 10 samples, got %d", *samples)
	}
	rows := measureTable1(*samples)
	fmt.Fprint(w, formatTable1(rows))
	if *raw {
		fmt.Fprintln(w)
		for _, r := range rows {
			fmt.Fprintln(w, "  "+r.String())
		}
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, formatFunctionCosts(*samples))
	return nil
}
