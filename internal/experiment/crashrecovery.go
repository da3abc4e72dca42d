// E12: crash-recovery validation. Each cell kills one mixed run at a
// chosen virtual time via a fault-plan crash, resumes it from the newest
// surviving checkpoint, and compares the finished run's period tables,
// metrics exposition, and trace JSONL byte-for-byte against a reference
// run that was never interrupted (same plan with the crash removed).
package experiment

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/trace"
	"repro/internal/workload"
)

// CrashRecoveryConfig tunes E12.
type CrashRecoveryConfig struct {
	Mode  Mode
	Sched workload.Schedule
	Seed  uint64
	// Faults is the base fault plan both arms run under (its Crash field
	// is overwritten per arm: the crash time in the interrupted arm,
	// zero in the reference arm).
	Faults fault.Plan
	// CrashTimes are the virtual times the interrupted arm dies at.
	CrashTimes []float64
	// Every is the checkpoint cadence in control boundaries.
	Every int
	// Dir is the scratch directory ("" = a fresh temp dir).
	Dir string
	// Parallel is the cell worker count: 0 = GOMAXPROCS, 1 = serial.
	Parallel int
}

// DefaultCrashRecoveryConfig crashes a Query Scheduler run over a short
// six-period mixed schedule early, mid, and late, with a slowdown window
// and an abort rate active so real fault state crosses the checkpoints.
func DefaultCrashRecoveryConfig() CrashRecoveryConfig {
	s := workload.Schedule{PeriodSeconds: 600}
	counts := [][3]int{
		{2, 3, 15}, {4, 2, 20}, {3, 4, 25},
		{2, 3, 15}, {3, 4, 20}, {2, 6, 25},
	}
	for _, c := range counts {
		s.Clients = append(s.Clients, map[engine.ClassID]int{1: c[0], 2: c[1], 3: c[2]})
	}
	return CrashRecoveryConfig{
		Mode:  QueryScheduler,
		Sched: s,
		Seed:  1,
		Faults: fault.Plan{
			Seed:      7,
			AbortRate: map[engine.ClassID]float64{1: 0.05},
			Slowdowns: []fault.Slowdown{{Window: fault.Window{Start: 1000, End: 1600}, Factor: 0.6}},
		},
		CrashTimes: []float64{700, 1800, 3300},
		Every:      5,
	}
}

// CrashRecoveryCell is one crash time's outcome.
type CrashRecoveryCell struct {
	CrashTime   float64
	ResumedFrom int // boundary index of the checkpoint resumed from
	// TableMatch/MetricsMatch/TraceMatch report byte-identity of the
	// resumed run's period tables, metrics exposition, and trace JSONL
	// against the uninterrupted reference.
	TableMatch   bool
	MetricsMatch bool
	TraceMatch   bool
	Err          error
}

// Recovered reports full byte-identity with no errors.
func (c CrashRecoveryCell) Recovered() bool {
	return c.Err == nil && c.TableMatch && c.MetricsMatch && c.TraceMatch
}

// mixedTables renders the result tables the recovery check compares.
func mixedTables(res *MixedResult) string {
	var sb strings.Builder
	WriteMixed(&sb, res)
	if res.CostLimits != nil {
		WriteCostLimits(&sb, res)
	}
	return sb.String()
}

// RunCrashRecovery runs one cell per crash time. Cells are independent
// runs in private scratch directories, so they parallelize like any
// other sweep.
func RunCrashRecovery(cfg CrashRecoveryConfig) []CrashRecoveryCell {
	root := cfg.Dir
	if root == "" {
		d, err := os.MkdirTemp("", "crashrecovery")
		if err != nil {
			panic(err)
		}
		root = d
		defer os.RemoveAll(d)
	}
	return Map(cfg.Parallel, cfg.CrashTimes, func(crashAt float64, i int) CrashRecoveryCell {
		cell := CrashRecoveryCell{CrashTime: crashAt}
		cell.Err = runCrashRecoveryCell(cfg, crashAt, filepath.Join(root, fmt.Sprintf("crash-%02d", i)), &cell)
		return cell
	})
}

// runCrashRecoveryCell executes reference, crash, and resume for one
// crash time, filling in the cell's comparison flags.
func runCrashRecoveryCell(cfg CrashRecoveryConfig, crashAt float64, dir string, cell *CrashRecoveryCell) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := MixedConfig{
		Mode:       cfg.Mode,
		Sched:      cfg.Sched,
		Seed:       cfg.Seed,
		Experiment: "crashrecovery",
	}

	// Reference arm: same plan, crash removed, no interruption.
	refPlan := cfg.Faults
	refPlan.Crash = 0
	refTrace := filepath.Join(dir, "ref.jsonl")
	var refMetrics bytes.Buffer
	refCfg := base
	refCfg.Faults = &refPlan
	refRes, err := runToFile(refCfg, refTrace, &refMetrics)
	if err != nil {
		return err
	}
	if refRes.Crashed {
		return fmt.Errorf("experiment: reference arm crashed")
	}

	// Crash arm: same run, checkpointing on, killed at crashAt.
	crashPlan := cfg.Faults
	crashPlan.Crash = crashAt
	runTrace := filepath.Join(dir, "run.jsonl")
	ckptDir := filepath.Join(dir, "ckpt")
	crashCfg := base
	crashCfg.Faults = &crashPlan
	crashCfg.CheckpointEvery = cfg.Every
	crashCfg.CheckpointDir = ckptDir
	crashRes, err := runToFile(crashCfg, runTrace, io.Discard)
	if err != nil {
		return err
	}
	if !crashRes.Crashed {
		return fmt.Errorf("experiment: crash at t=%v never fired", crashAt)
	}

	// Resume from the newest checkpoint that survived.
	snap := new(runSnapshot)
	idx, ok, err := checkpoint.Latest(ckptDir, snap, io.Discard)
	if err != nil || !ok {
		return fmt.Errorf("experiment: no checkpoint survived the crash at t=%v: %v", crashAt, err)
	}
	cell.ResumedFrom = idx
	var resumedMetrics bytes.Buffer
	resumedRes, err := ResumeMixed(ResumeOptions{
		Dir:       ckptDir,
		TracePath: runTrace,
		Metrics:   &resumedMetrics,
	})
	if err != nil {
		return err
	}
	if resumedRes.Crashed {
		return fmt.Errorf("experiment: resumed run crashed again")
	}
	if resumedRes.ExportErr != nil {
		return resumedRes.ExportErr
	}

	cell.TableMatch = mixedTables(resumedRes) == mixedTables(refRes)
	cell.MetricsMatch = bytes.Equal(resumedMetrics.Bytes(), refMetrics.Bytes())
	refBytes, err := os.ReadFile(refTrace)
	if err != nil {
		return err
	}
	runBytes, err := os.ReadFile(runTrace)
	if err != nil {
		return err
	}
	cell.TraceMatch = bytes.Equal(refBytes, runBytes)
	return nil
}

// runToFile runs one mixed config with its trace streamed to a sink at
// path and metrics to mw, closing the sink afterwards. A crashed run's
// partial trace is closed too — the resume path truncates it back to the
// checkpointed offset regardless of where the interrupted run got to.
func runToFile(cfg MixedConfig, tracePath string, mw io.Writer) (*MixedResult, error) {
	s, err := trace.OpenSink(tracePath, 0)
	if err != nil {
		return nil, err
	}
	cfg.Trace = s
	cfg.Metrics = mw
	res := RunMixed(cfg)
	if err := s.Close(); err != nil {
		return nil, err
	}
	if res.ExportErr != nil && !res.Crashed {
		return nil, res.ExportErr
	}
	return res, nil
}

// WriteCrashRecovery tabulates E12: one row per crash time, with the
// checkpoint boundary the run resumed from and the three byte-identity
// verdicts against the uninterrupted reference.
func WriteCrashRecovery(w io.Writer, cells []CrashRecoveryCell) {
	fmt.Fprintln(w, "Crash recovery: kill at t, resume from newest checkpoint, compare to uninterrupted run")
	fmt.Fprintf(w, "%10s %12s %8s %9s %7s %s\n",
		"crash(s)", "resumed-from", "tables", "metrics", "trace", "error")
	for _, c := range cells {
		errStr := ""
		if c.Err != nil {
			errStr = c.Err.Error()
		}
		fmt.Fprintf(w, "%10.0f %12d %8t %9t %7t %s\n",
			c.CrashTime, c.ResumedFrom, c.TableMatch, c.MetricsMatch, c.TraceMatch, errStr)
	}
}

// CrashRecoveryCSV renders the cells as CSV.
func CrashRecoveryCSV(cells []CrashRecoveryCell) string {
	out := "crash_seconds,resumed_from_boundary,tables_match,metrics_match,trace_match,error\n"
	for _, c := range cells {
		errStr := ""
		if c.Err != nil {
			errStr = c.Err.Error()
		}
		out += fmt.Sprintf("%.6g,%d,%t,%t,%t,%s\n",
			c.CrashTime, c.ResumedFrom, c.TableMatch, c.MetricsMatch, c.TraceMatch, errStr)
	}
	return out
}

// HasCheckpoint reports whether dir contains at least one readable
// checkpoint — how a resuming caller decides between ResumeMixed and a
// fresh run.
func HasCheckpoint(dir string) bool {
	snap := new(runSnapshot)
	_, ok, err := checkpoint.Latest(dir, snap, io.Discard)
	return err == nil && ok
}
