// Command qsweep sweeps one Query Scheduler parameter across a list of
// values and tabulates goal satisfaction on the paper's workload — the
// generalization of the fixed ablation benchmarks.
//
// Usage:
//
//	qsweep -param control-interval -values 30,60,120,300
//	qsweep -param system-cost-limit -values 20000,30000,40000 -seed 2
//	qsweep -param plan-step -values 250,500,1000,2000 -parallel 4
//	qsweep -param system-cost-limit -values 20000,40000 -backends 3
//
// Parameters: control-interval, snapshot-interval, plan-step,
// min-olap-limit, system-cost-limit, oltp-window.
//
// -backends N runs every swept value on a fleet of N identical
// backends behind the routing tier instead of a single engine.
//
// Each swept value is an independent simulation run; -parallel fans them
// across a worker pool (0 = GOMAXPROCS, 1 = serial). Rows print in value
// order with identical numbers for any worker count.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/patroller"
	"repro/internal/prof"
	"repro/internal/trace"
	"repro/internal/workload"
)

// setters maps parameter names to config mutations.
var setters = map[string]func(*core.Config, float64) error{
	"control-interval": func(c *core.Config, v float64) error {
		c.ControlInterval = v
		return nil
	},
	"snapshot-interval": func(c *core.Config, v float64) error {
		c.SnapshotInterval = v
		return nil
	},
	"plan-step": func(c *core.Config, v float64) error {
		c.PlanStep = v
		return nil
	},
	"min-olap-limit": func(c *core.Config, v float64) error {
		c.MinOLAPLimit = v
		return nil
	},
	"system-cost-limit": func(c *core.Config, v float64) error {
		c.SystemCostLimit = v
		return nil
	},
	"oltp-window": func(c *core.Config, v float64) error {
		if v < 2 || math.Mod(v, 1) != 0 {
			return fmt.Errorf("oltp-window must be an integer >= 2")
		}
		c.OLTP.Window = int(v)
		return nil
	},
}

func main() {
	param := flag.String("param", "", "parameter to sweep (see -help)")
	values := flag.String("values", "", "comma-separated values")
	seed := flag.Uint64("seed", 1, "random seed")
	parallel := flag.Int("parallel", 0, "worker goroutines for the sweep (0 = GOMAXPROCS, 1 = serial)")
	tracePrefix := flag.String("trace", "", "write each run's JSONL event trace to <prefix><value>.jsonl (inspect with qtrace)")
	metricsPrefix := flag.String("metrics", "", "write each run's metrics exposition to <prefix><value>.prom")
	decisionsPrefix := flag.String("decisions", "", "write each run's decision audit log to <prefix><value>.jsonl (inspect with qreport)")
	pprofMode := flag.String("pprof", "", "collect a runtime profile of this invocation: cpu or heap")
	pprofFile := flag.String("pprof-file", "", "profile output path (default qsweep-cpu.pprof / qsweep-heap.pprof)")
	faultsFile := flag.String("faults", "", "inject the deterministic fault plan from this JSON file into every swept run (see internal/fault)")
	mitigate := flag.Bool("mitigate", false, "arm the mitigation stack (timeout+retry, plan hold, slope fallback) in every swept run")
	checkpointEvery := flag.Int("checkpoint-every", 0, "write a crash-consistent checkpoint every N control boundaries into a per-value subdirectory of -checkpoint-dir")
	checkpointDir := flag.String("checkpoint-dir", "", "root directory for per-value checkpoint subdirectories")
	resume := flag.Bool("resume", false, "resume swept values that left a checkpoint under -checkpoint-dir (values without one run fresh); pass the same -param/-values/-trace/-metrics as the interrupted sweep")
	backends := flag.Int("backends", 1, "run every swept value on a fleet of N identical backends behind the routing tier (1 = classic single engine)")
	flag.Parse()

	if (*checkpointEvery > 0 || *resume) && *checkpointDir == "" {
		fmt.Fprintln(os.Stderr, "-checkpoint-every/-resume require -checkpoint-dir")
		os.Exit(2)
	}
	if *backends < 1 {
		fmt.Fprintln(os.Stderr, "-backends must be at least 1")
		os.Exit(2)
	}
	profFile := *pprofFile
	if profFile == "" && *pprofMode != "" {
		profFile = "qsweep-" + *pprofMode + ".pprof"
	}
	profStop, err := prof.Start(*pprofMode, profFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	profDone := false
	stopProfile := func() {
		if profDone {
			return
		}
		profDone = true
		if err := profStop(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *pprofMode != "" {
			fmt.Fprintf(os.Stderr, "wrote %s\n", profFile)
		}
	}
	defer stopProfile()

	// Fault plans and the mitigation stack apply per backend on fleet
	// runs.
	var fleetSpecs []backend.Spec
	if *backends > 1 {
		fleetSpecs = backend.DefaultSpecs(*backends)
	}

	var faults *fault.Plan
	if *faultsFile != "" {
		f, err := os.Open(*faultsFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		plan, err := fault.ParseSpec(f)
		f.Close()
		if err == nil {
			err = plan.ValidateRoster(*backends)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		faults = &plan
	}

	setter, ok := setters[*param]
	if !ok {
		var names []string
		for n := range setters {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "unknown -param %q; choose one of: %s\n",
			*param, strings.Join(names, ", "))
		os.Exit(2)
	}
	var sweep []float64
	for _, raw := range strings.Split(*values, ",") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad value %q: %v\n", raw, err)
			os.Exit(2)
		}
		sweep = append(sweep, v)
	}
	if len(sweep) == 0 {
		fmt.Fprintln(os.Stderr, "no -values given")
		os.Exit(2)
	}

	classes := workload.PaperClasses()
	fmt.Printf("Sweeping %s over the paper workload (seed %d)\n\n", *param, *seed)
	fmt.Printf("%14s", *param)
	for _, c := range classes {
		fmt.Printf(" %12s", c.Name+" %")
	}
	fmt.Printf(" %14s\n", "oltp-heavy(ms)")

	// Validate every value up front so a bad one aborts before any runs.
	cfgs := make([]core.Config, len(sweep))
	for i, v := range sweep {
		if *mitigate {
			// The swept parameter takes effect on top of the mitigation.
			cfgs[i] = experiment.MitigatedQSConfig()
		} else {
			cfgs[i] = core.DefaultConfig()
			cfgs[i].SystemCostLimit = experiment.SystemCostLimit
		}
		if err := setter(&cfgs[i], v); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	// One export sink per swept value, created before the (possibly
	// parallel) runs so failures abort early and workers never share one.
	// A value being resumed keeps its interrupted trace file untouched:
	// ResumeMixed reopens it and rewinds to the checkpointed offset, so no
	// sink is created for it (the metrics exposition is rewritten wholesale
	// after the run either way).
	var sinks []*trace.Sink
	openSink := func(path string) io.Writer {
		s, err := trace.OpenSink(path, 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		sinks = append(sinks, s)
		return s
	}
	traceWs := make([]io.Writer, len(sweep))
	metricsWs := make([]io.Writer, len(sweep))
	decisionsWs := make([]io.Writer, len(sweep))
	tracePaths := make([]string, len(sweep))
	decisionsPaths := make([]string, len(sweep))
	ckptDirs := make([]string, len(sweep))
	resuming := make([]bool, len(sweep))
	for i, v := range sweep {
		val := strconv.FormatFloat(v, 'g', -1, 64)
		if *checkpointDir != "" {
			ckptDirs[i] = filepath.Join(*checkpointDir, fmt.Sprintf("%s-%s", *param, val))
		}
		resuming[i] = *resume && experiment.HasCheckpoint(ckptDirs[i])
		if *tracePrefix != "" {
			tracePaths[i] = *tracePrefix + val + ".jsonl"
			if !resuming[i] {
				traceWs[i] = openSink(tracePaths[i])
			}
		}
		// The decision log rewinds on resume exactly like the trace.
		if *decisionsPrefix != "" {
			decisionsPaths[i] = *decisionsPrefix + val + ".jsonl"
			if !resuming[i] {
				decisionsWs[i] = openSink(decisionsPaths[i])
			}
		}
		if *metricsPrefix != "" {
			metricsWs[i] = openSink(*metricsPrefix + val + ".prom")
		}
	}
	var retry *patroller.RetryPolicy
	if *mitigate {
		rp := experiment.DefaultRetryPolicy()
		retry = &rp
	}
	// Per-value errors from resume land here (each worker owns its index,
	// so the slice is race-free under the parallel runner).
	errs := make([]error, len(sweep))
	results := experiment.Map(*parallel, sweep, func(v float64, i int) *experiment.MixedResult {
		if resuming[i] {
			res, err := experiment.ResumeMixed(experiment.ResumeOptions{
				Dir:             ckptDirs[i],
				TracePath:       tracePaths[i],
				DecisionsPath:   decisionsPaths[i],
				Metrics:         metricsWs[i],
				CheckpointEvery: *checkpointEvery,
				Warn:            os.Stderr,
			})
			errs[i] = err
			return res
		}
		return experiment.RunMixed(experiment.MixedConfig{
			Mode:            experiment.QueryScheduler,
			Sched:           workload.PaperSchedule(),
			Seed:            *seed,
			QS:              &cfgs[i],
			Experiment:      fmt.Sprintf("qsweep %s=%g", *param, v),
			Trace:           traceWs[i],
			Metrics:         metricsWs[i],
			Decisions:       decisionsWs[i],
			Faults:          faults,
			Retry:           retry,
			CheckpointEvery: *checkpointEvery,
			CheckpointDir:   ckptDirs[i],
			Backends:        fleetSpecs,
		})
	})
	// Flush every sink before reporting: a crashed value must not cost the
	// other values their buffered exports, and its own partial trace has
	// to reach disk for -resume to rewind.
	for _, s := range sinks {
		if err := s.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", s.Name())
	}
	for i, v := range sweep {
		if errs[i] != nil {
			fmt.Fprintf(os.Stderr, "%s=%g: %v\n", *param, v, errs[i])
			os.Exit(1)
		}
		res := results[i]
		if res.Crashed {
			fmt.Fprintf(os.Stderr, "%s=%g: run crashed mid-simulation; re-run with -resume to finish it\n", *param, v)
			stopProfile() // os.Exit skips the deferred stop
			os.Exit(3)
		}
		if res.ExportErr != nil {
			fmt.Fprintln(os.Stderr, res.ExportErr)
			os.Exit(1)
		}
		fmt.Printf("%14g", v)
		for ci := range classes {
			fmt.Printf(" %11.0f%%", 100*res.Satisfaction[ci])
		}
		var heavy float64
		var n int
		for p := 2; p < res.Periods; p += 3 {
			if res.Measurable[2][p] {
				heavy += res.Metric[2][p]
				n++
			}
		}
		if n > 0 {
			fmt.Printf(" %14.0f", heavy/float64(n)*1000)
		}
		fmt.Println()
	}
}
