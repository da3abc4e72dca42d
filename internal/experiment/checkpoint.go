// Crash-consistent checkpoint/restore for mixed-workload runs, one path
// for every roster size: the snapshot holds one state per backend and
// one per fault injector, plus the routing tier's when there is one.
//
// A checkpoint is taken only at a quiescent boundary — between RunUntil
// calls, when every event at or before the current time has fired — so
// each component's state is internally consistent. The snapshot records
// the run's construction parameters (RunSpec) next to every component's
// logical state; closures are never serialized. Resume rebuilds the rig
// through the same buildRig every run uses, wipes the
// constructor-scheduled clock events wholesale (Clock.Restore), and then
// re-arms each component's recorded future events with their original
// (time, seq, id) triples, so FIFO tie-breaking and all later sequence
// draws reproduce the uninterrupted run exactly.
package experiment

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/backend"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/decisionlog"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/patroller"
	"repro/internal/router"
	"repro/internal/simclock"
	"repro/internal/solver"
	"repro/internal/trace"
	"repro/internal/workload"
)

// RetrySpec mirrors patroller.RetryPolicy without its RefreshCost func
// (which cannot be serialized; resume re-wires it to the injector the
// same way RunMixed does).
type RetrySpec struct {
	MaxAttempts    int
	Backoff        float64
	TimeoutFloor   float64
	TimeoutPerCost float64
}

// RunSpec is the gob-safe record of how a checkpointed run was
// constructed. Resume rebuilds an identical rig from it; only the output
// writers are supplied fresh by the resuming caller.
type RunSpec struct {
	Mode       Mode
	Seed       uint64
	Sched      workload.Schedule
	Classes    []*workload.Class
	Experiment string
	// HasQSCfg records whether the run carried a custom core.Config. The
	// config's interface fields travel out of band: SolverName +
	// GreedyMaxMoves stand in for Config.Solver, and MonitorFaults is
	// re-wired to the rebuilt injector.
	HasQSCfg       bool
	QS             core.Config
	SolverName     string
	GreedyMaxMoves int
	HasFaults      bool
	Faults         fault.Plan
	HasRetry       bool
	Retry          RetrySpec
	// HasTrace/HasMetrics/HasDecisions record which exports were
	// attached; resume must re-attach the same set or the outputs would
	// diverge.
	HasTrace     bool
	HasMetrics   bool
	HasDecisions bool
	// Streaming records whether the pool used the streaming client
	// generator; resume must rebuild it the same way.
	Streaming bool
	// Backends records the roster as configured (nil or one spec for a
	// fleet of one); resume rebuilds the same rig.
	Backends []backend.Spec
	// NoMitigation records MixedConfig.DisableFleetMitigation; resume
	// must rebuild the same (absent) failover wiring.
	NoMitigation bool
}

// runSnapshot is the gob payload of one checkpoint file.
type runSnapshot struct {
	Spec  RunSpec
	Index int // boundary index the snapshot was taken at
	Clock simclock.State

	Pool       workload.PoolState
	Boundaries []workload.BoundaryRef
	// Backends holds one state per roster backend, in roster order.
	Backends []backend.CheckpointState
	// Collector is the run-level collector of a fleet of two or more; a
	// fleet of one shares its backend's collector, saved in Backends.
	Collector metrics.CheckpointState
	// Router and Planner are the routing tier (zero for a fleet of one).
	Router  router.CheckpointState
	Planner router.PlannerCheckpointState
	// Faults holds the per-backend injector states in roster order
	// (empty when the run has no fault plan).
	Faults   []fault.CheckpointState
	HasTrace bool
	Trace    trace.CheckpointState
	HasReg   bool
	Reg      obs.CheckpointState
	HasDlog  bool
	Dlog     decisionlog.CheckpointState
}

// solverSpec names a solver for the run spec. Only the built-in
// (stateless) solvers are serializable.
func solverSpec(s solver.Solver) (name string, greedyMaxMoves int) {
	switch v := s.(type) {
	case nil:
		return "", 0
	case solver.Greedy:
		return "greedy", v.MaxMoves
	case solver.Grid:
		return "grid", 0
	default:
		panic(fmt.Sprintf("experiment: checkpointing cannot serialize solver %T", s))
	}
}

// solverFromSpec inverts solverSpec. Unknown names are an error (the
// checkpoint may come from a newer build), not a panic.
func solverFromSpec(name string, greedyMaxMoves int) (solver.Solver, error) {
	switch name {
	case "":
		return nil, nil
	case "greedy":
		return solver.Greedy{MaxMoves: greedyMaxMoves}, nil
	case "grid":
		return solver.Grid{}, nil
	default:
		return nil, fmt.Errorf("experiment: checkpoint names unknown solver %q", name)
	}
}

// specFromConfig records a checkpointable run's construction parameters.
// It panics on configurations that cannot round-trip through a
// checkpoint (custom solver or RefreshCost closures).
func specFromConfig(cfg MixedConfig, classes []*workload.Class) RunSpec {
	spec := RunSpec{
		Mode:         cfg.Mode,
		Seed:         cfg.Seed,
		Sched:        cfg.Sched,
		Classes:      classes,
		Experiment:   cfg.Experiment,
		HasTrace:     cfg.Trace != nil,
		HasMetrics:   cfg.Metrics != nil,
		HasDecisions: cfg.Decisions != nil,
		Streaming:    cfg.StreamingClients,
		Backends:     cfg.Backends,
		NoMitigation: cfg.DisableFleetMitigation,
	}
	if cfg.QS != nil {
		spec.HasQSCfg = true
		qc := *cfg.QS
		spec.SolverName, spec.GreedyMaxMoves = solverSpec(qc.Solver)
		qc.Solver = nil
		qc.MonitorFaults = nil
		spec.QS = qc
	}
	if cfg.Faults != nil && !cfg.Faults.Empty() {
		spec.HasFaults = true
		spec.Faults = *cfg.Faults
	}
	if cfg.Retry != nil {
		if cfg.Retry.RefreshCost != nil {
			panic("experiment: checkpointing cannot serialize a custom RetryPolicy.RefreshCost; leave it nil")
		}
		spec.HasRetry = true
		spec.Retry = RetrySpec{
			MaxAttempts:    cfg.Retry.MaxAttempts,
			Backoff:        cfg.Retry.Backoff,
			TimeoutFloor:   cfg.Retry.TimeoutFloor,
			TimeoutPerCost: cfg.Retry.TimeoutPerCost,
		}
	}
	return spec
}

// config rebuilds the MixedConfig a resumed run is constructed from. The
// writers are the resuming caller's; everything else comes from the spec.
func (s *RunSpec) config(tw, mw, dw io.Writer) (MixedConfig, error) {
	cfg := MixedConfig{
		Mode:       s.Mode,
		Sched:      s.Sched,
		Seed:       s.Seed,
		Classes:    s.Classes,
		Experiment: s.Experiment,
		Trace:      tw,
		Metrics:    mw,
		Decisions:  dw,

		StreamingClients:       s.Streaming,
		Backends:               s.Backends,
		DisableFleetMitigation: s.NoMitigation,
	}
	if s.HasQSCfg {
		qc := s.QS
		sol, err := solverFromSpec(s.SolverName, s.GreedyMaxMoves)
		if err != nil {
			return MixedConfig{}, err
		}
		qc.Solver = sol
		cfg.QS = &qc
	}
	if s.HasFaults {
		p := s.Faults
		cfg.Faults = &p
	}
	if s.HasRetry {
		cfg.Retry = &patroller.RetryPolicy{
			MaxAttempts:    s.Retry.MaxAttempts,
			Backoff:        s.Retry.Backoff,
			TimeoutFloor:   s.Retry.TimeoutFloor,
			TimeoutPerCost: s.Retry.TimeoutPerCost,
		}
	}
	return cfg, nil
}

// boundaryStep is the distance between checkpointable boundaries: the
// control interval in Query Scheduler mode (so "-checkpoint-every N"
// means every N control ticks), one schedule period otherwise.
func boundaryStep(cfg MixedConfig) float64 {
	if cfg.Mode == QueryScheduler {
		if cfg.QS != nil && cfg.QS.ControlInterval > 0 {
			return cfg.QS.ControlInterval
		}
		return core.DefaultConfig().ControlInterval
	}
	return cfg.Sched.PeriodSeconds
}

// validateCheckpointing rejects run configurations whose outputs cannot
// survive a resume: a rotating or compressed trace sink has no stable
// byte offset to truncate back to.
func validateCheckpointing(cfg MixedConfig) {
	if cfg.CheckpointDir == "" {
		panic("experiment: CheckpointEvery set without CheckpointDir")
	}
	if s, ok := cfg.Trace.(*trace.Sink); ok && (s.Rotating() || s.Gzipped()) {
		panic("experiment: checkpointing requires a plain trace sink (no rotation, no gzip)")
	}
}

// checkpointState captures the full simulation state at a quiescent
// boundary.
func (r *Rig) checkpointState(o *runObs, inst *workload.Installation, spec *RunSpec, idx int) *runSnapshot {
	snap := &runSnapshot{
		Spec:       *spec,
		Index:      idx,
		Clock:      r.Clock.State(),
		Pool:       r.Pool.CheckpointState(),
		Boundaries: inst.CheckpointState(r.Clock.Now()),
	}
	for _, b := range r.Backends {
		snap.Backends = append(snap.Backends, b.CheckpointState())
	}
	if r.Router != nil {
		snap.Collector = r.Collector.CheckpointState()
		snap.Router = r.Router.CheckpointState()
		snap.Planner = r.Planner.CheckpointState()
	}
	for _, inj := range r.Faults {
		snap.Faults = append(snap.Faults, inj.CheckpointState())
	}
	if o != nil && o.tracer != nil {
		snap.HasTrace = true
		snap.Trace = o.tracer.CheckpointState()
	}
	if o != nil && o.reg != nil {
		snap.HasReg = true
		snap.Reg = o.reg.CheckpointState()
	}
	if o != nil && o.dlog != nil {
		snap.HasDlog = true
		snap.Dlog = o.dlog.CheckpointState()
	}
	return snap
}

// restoreCheckpoint overwrites a freshly rebuilt rig with a snapshot:
// it wipes the constructor-scheduled events and re-arms the recorded
// ones. Order matters: the clock first (everything re-arms onto it),
// every engine before the pool (held and active entries re-link to
// engine-owned query objects).
func (r *Rig) restoreCheckpoint(snap *runSnapshot, o *runObs) (*workload.Installation, error) {
	if len(snap.Backends) != len(r.Backends) {
		return nil, fmt.Errorf("experiment: checkpoint carries %d backends for a %d-backend rig",
			len(snap.Backends), len(r.Backends))
	}
	for i, b := range r.Backends {
		if snap.Backends[i].HasQS != (b.QS != nil) {
			return nil, fmt.Errorf("experiment: checkpoint state does not match its run spec")
		}
	}
	if len(snap.Faults) != len(r.Faults) {
		return nil, fmt.Errorf("experiment: checkpoint fault state does not match its run spec")
	}
	r.Clock.Restore(snap.Clock)
	for i, b := range r.Backends {
		b.RestoreCheckpoint(snap.Backends[i])
	}
	r.Pool.RestoreCheckpoint(snap.Pool)
	inst := r.Sched.RestoreBoundaries(r.Clock, r.Pool, nil, snap.Boundaries)
	if r.Router != nil {
		r.Router.RestoreCheckpoint(snap.Router)
		r.Planner.RestoreCheckpoint(snap.Planner)
		r.Collector.RestoreCheckpoint(snap.Collector)
	}
	for i, inj := range r.Faults {
		inj.RestoreCheckpoint(snap.Faults[i])
	}
	if o.tracer != nil {
		o.tracer.RestoreCheckpoint(snap.Trace)
	}
	if o.reg != nil && snap.HasReg {
		o.reg.RestoreCheckpoint(snap.Reg)
	}
	if o.dlog != nil {
		o.dlog.RestoreCheckpoint(snap.Dlog)
	}
	return inst, nil
}

// runBoundaries drives the simulation to the end of the schedule. With
// checkpointing disabled it is a single RunUntil, exactly as Rig.Run;
// with checkpointing enabled the run is split at boundary multiples —
// behaviour-neutral, since all events at or before each boundary have
// fired either way — and a snapshot is written every CheckpointEvery
// boundaries. Returns crashed=true when a fault-plan crash stopped the
// clock mid-run (the "process death" the recovery experiments resume
// from); nothing is written or finished after a crash.
func runBoundaries(rig *Rig, o *runObs, inst *workload.Installation, spec *RunSpec, cfg MixedConfig, startIdx int) (crashed bool, err error) {
	duration := rig.Sched.Duration()
	died := func() bool {
		for _, inj := range rig.Faults {
			if inj.Crashed() {
				return true
			}
		}
		return false
	}
	if cfg.CheckpointEvery <= 0 {
		rig.Clock.RunUntil(duration)
		return died(), nil
	}
	step := boundaryStep(cfg)
	// atEnd marks a resume that restored a terminal snapshot: the clock is
	// already at the schedule end, so the loop below must not write a
	// second (higher-indexed) terminal snapshot.
	atEnd := float64(startIdx)*step >= duration
	for idx := startIdx; ; idx++ {
		t := float64(idx+1) * step
		last := t >= duration
		if last {
			t = duration
		}
		rig.Clock.RunUntil(t)
		if died() {
			return true, nil
		}
		if last {
			// Terminal snapshot: mark the run complete on disk. Without
			// it, resuming a value that already finished (qsweep -resume
			// over a partially interrupted sweep) restores the last
			// mid-run boundary and re-simulates the whole tail; with it,
			// the resume restores the finished state and only re-emits
			// the final exports.
			if !atEnd {
				snap := rig.checkpointState(o, inst, spec, idx+1)
				if werr := checkpoint.Write(cfg.CheckpointDir, idx+1, snap); werr != nil {
					return false, werr
				}
			}
			return false, nil
		}
		if (idx+1)%cfg.CheckpointEvery == 0 {
			snap := rig.checkpointState(o, inst, spec, idx+1)
			if werr := checkpoint.Write(cfg.CheckpointDir, idx+1, snap); werr != nil {
				return false, werr
			}
		}
	}
}

// ResumeOptions configures ResumeMixed.
type ResumeOptions struct {
	// Dir is the checkpoint directory of the interrupted run.
	Dir string
	// Index selects a specific checkpoint by boundary index; 0 resumes
	// from the newest valid one.
	Index int
	// TracePath is the interrupted run's trace file. Required when the
	// run exported a trace: the file is truncated to the checkpointed
	// byte offset and appended to, reproducing the uninterrupted export.
	TracePath string
	// DecisionsPath is the interrupted run's decision-log file. Required
	// when the run exported a decision log; rewound the same way the
	// trace is.
	DecisionsPath string
	// Metrics receives the metrics exposition after the resumed run.
	// Required when the checkpointed run had a metrics writer.
	Metrics io.Writer
	// CheckpointEvery continues checkpointing the resumed run at this
	// cadence (0 = stop checkpointing).
	CheckpointEvery int
	// Warn receives corrupt-checkpoint warnings (nil = discard).
	Warn io.Writer
}

// ResumeMixed restores the newest (or selected) checkpoint from an
// interrupted run and drives the simulation to completion. The final
// period tables, metrics exposition, and trace file are byte-identical
// to a run that was never interrupted.
func ResumeMixed(opts ResumeOptions) (*MixedResult, error) {
	warn := opts.Warn
	if warn == nil {
		warn = io.Discard
	}
	snap := new(runSnapshot)
	if opts.Index > 0 {
		if err := checkpoint.Read(filepath.Join(opts.Dir, checkpoint.FileName(opts.Index)), snap); err != nil {
			return nil, err
		}
		if snap.Index != opts.Index {
			return nil, fmt.Errorf("experiment: checkpoint %d carries boundary index %d", opts.Index, snap.Index)
		}
	} else {
		idx, ok, err := checkpoint.Latest(opts.Dir, snap, warn)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("experiment: no usable checkpoint in %s", opts.Dir)
		}
		if snap.Index != idx {
			return nil, fmt.Errorf("experiment: checkpoint %d carries boundary index %d", idx, snap.Index)
		}
	}
	if snap.HasTrace != (opts.TracePath != "") {
		if snap.HasTrace {
			return nil, fmt.Errorf("experiment: checkpointed run exported a trace; TracePath is required")
		}
		return nil, fmt.Errorf("experiment: checkpointed run had no trace export; TracePath must be empty")
	}
	if snap.Spec.HasMetrics != (opts.Metrics != nil) {
		if snap.Spec.HasMetrics {
			return nil, fmt.Errorf("experiment: checkpointed run exported metrics; Metrics is required")
		}
		return nil, fmt.Errorf("experiment: checkpointed run had no metrics export; Metrics must be nil")
	}
	if snap.HasDlog != (opts.DecisionsPath != "") {
		if snap.HasDlog {
			return nil, fmt.Errorf("experiment: checkpointed run exported a decision log; DecisionsPath is required")
		}
		return nil, fmt.Errorf("experiment: checkpointed run had no decision log; DecisionsPath must be empty")
	}

	// Rewind the trace and decision-log files to the checkpointed
	// offsets: everything the interrupted run wrote after this boundary
	// is discarded and will be re-emitted, byte for byte, by the
	// resumed run.
	var tw, dw io.Writer
	var files []*rewoundFile
	closeFiles := func() error {
		var first error
		for _, rf := range files {
			if err := rf.close(); first == nil {
				first = err
			}
		}
		files = nil
		return first
	}
	fail := func(err error) (*MixedResult, error) {
		closeFiles()
		return nil, err
	}
	if snap.HasTrace {
		rf, err := rewindFile(opts.TracePath, snap.Trace.SinkBytes)
		if err != nil {
			return fail(fmt.Errorf("experiment: resume trace: %w", err))
		}
		files = append(files, rf)
		tw = rf.bw
	}
	if snap.HasDlog {
		rf, err := rewindFile(opts.DecisionsPath, snap.Dlog.SinkBytes)
		if err != nil {
			return fail(fmt.Errorf("experiment: resume decision log: %w", err))
		}
		files = append(files, rf)
		dw = rf.bw
	}

	cfg, err := snap.Spec.config(tw, opts.Metrics, dw)
	if err != nil {
		return fail(err)
	}
	cfg.CheckpointEvery = opts.CheckpointEvery
	cfg.CheckpointDir = opts.Dir

	// Reconstruction mirrors RunMixed exactly (same constructor and
	// hook-attachment order), so restored event closures and listener
	// chains line up with the checkpointed run's.
	rig, o, err := buildRig(cfg, true)
	if err != nil {
		return fail(err)
	}
	inst, err := rig.restoreCheckpoint(snap, o)
	if err != nil {
		return fail(err)
	}
	spec := snap.Spec
	fr := runRig(cfg, rig, o, inst, &spec, snap.Index, nil)
	if cerr := closeFiles(); fr.ExportErr == nil {
		fr.ExportErr = cerr
	}
	return fr.MixedResult, nil
}

// rewoundFile is a resume-reopened export file: truncated to the
// checkpointed byte offset, positioned for append, buffered.
type rewoundFile struct {
	f  *os.File
	bw *bufio.Writer
}

func rewindFile(path string, offset int64) (*rewoundFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(offset); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return &rewoundFile{f: f, bw: bufio.NewWriterSize(f, 1<<20)}, nil
}

func (rf *rewoundFile) close() error {
	ferr := rf.bw.Flush()
	if cerr := rf.f.Close(); ferr == nil {
		ferr = cerr
	}
	return ferr
}
