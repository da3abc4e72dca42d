// The fleet side of the one rig: the per-backend result detail, the
// failover wiring, and the roster's header entries. Every mixed run is
// built, observed, checkpointed, resumed and collected by the same
// functions whatever its roster size; a fleet of one simply has no
// router, planner or backend labels, so its output is the paper's
// single-engine run byte for byte.
//
// The control plane of a larger fleet is hierarchical: the fleet planner
// (router.Planner) splits the global SystemCostLimit across backends
// proportionally to their smoothed routed-cost demand, and each
// backend's own Query Scheduler runs the existing per-class solver,
// unchanged, against its share.
package experiment

import (
	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/decisionlog"
	"repro/internal/fault"
	"repro/internal/router"
	"repro/internal/trace"
)

// FleetResult extends MixedResult (computed from the run-level
// collector, so the period tables mean the same thing whatever the
// roster size) with per-backend routing and planning detail.
type FleetResult struct {
	*MixedResult
	// Specs is the backend roster the run used.
	Specs []backend.Spec
	// Routed[i] counts the queries the router sent to roster backend i
	// (nil for a fleet of one, which has no router).
	Routed []int64
	// BackendCompleted[i][p] counts roster backend i's completions (all
	// classes) in period p.
	BackendCompleted [][]int
	// Plans is the fleet planner's budget-split history.
	Plans []router.FleetPlan
	// Histories[i] is roster backend i's per-tick plan record — the same
	// shape MixedResult.PlanHistory has for a single-engine run.
	Histories [][]core.PlanRecord
}

// RunFleet is RunMixed with the per-backend detail of FleetResult.
func RunFleet(cfg MixedConfig) *FleetResult {
	if cfg.CheckpointEvery > 0 {
		validateCheckpointing(cfg)
	}
	rig, o, obsErr := buildRig(cfg, false)
	var spec RunSpec
	if cfg.CheckpointEvery > 0 {
		spec = specFromConfig(cfg, rig.Classes)
	}
	inst := rig.Sched.Install(rig.Clock, rig.Pool, nil)
	return runRig(cfg, rig, o, inst, &spec, 0, obsErr)
}

// wireFleetMitigation installs the failover response: the injectors'
// backend-scoped transitions drive the router's health model, and every
// availability or mitigation event lands in the decision log as a fleet
// record once the log is attached. buildRig skips it with mitigation
// disabled — crashes still stall their engines (capacity is really
// lost), but the router is never told and the planner keeps feeding the
// dead backend its demand-weighted share; the decision log then carries
// no fleet records at all, which is itself the signature of the control
// arm.
func wireFleetMitigation(rig *Rig, o *runObs) {
	if rig.Router == nil {
		return
	}
	note := func(fr decisionlog.FleetRecord) {
		if o.dlog != nil {
			o.dlog.NoteFleet(fr)
		}
	}
	at := func() float64 { return float64(rig.Clock.Now()) }
	for i, inj := range rig.Faults {
		id := rig.Backends[i].ID()
		inj.SetFleetHooks(fault.FleetHooks{
			Down: func() {
				moved := rig.Router.MarkDown(id)
				note(decisionlog.FleetRecord{T: at(), Event: "failover", Backend: id, Moved: moved})
			},
			Up: func() {
				rig.Router.MarkUp(id)
				note(decisionlog.FleetRecord{T: at(), Event: "recover", Backend: id})
			},
			Degraded: func(f float64) {
				rig.Router.MarkDegraded(id, f)
				note(decisionlog.FleetRecord{T: at(), Event: "degraded", Backend: id, Factor: f})
			},
			Restored: func() {
				rig.Router.ClearDegraded(id)
				note(decisionlog.FleetRecord{T: at(), Event: "restored", Backend: id})
			},
		})
	}
	rig.Planner.OnDecision(func(d router.FleetDecision) {
		note(decisionlog.FleetRecord{
			T:       float64(d.Time),
			Event:   d.Event,
			Backend: d.Backend,
			Class:   int(d.Class),
			Target:  d.Target,
		})
	})
}

// backendsMeta resolves the roster into the trace/decision-log header
// entry: 1-based ID, label, and resolved capacities. A fleet of one has
// none, keeping its headers those of the paper's single engine.
func (r *Rig) backendsMeta() []trace.BackendMeta {
	if r.Router == nil {
		return nil
	}
	out := make([]trace.BackendMeta, len(r.Backends))
	for i, b := range r.Backends {
		ec := b.Spec().EngineConfig()
		out[i] = trace.BackendMeta{ID: b.ID(), Name: b.Name(), CPU: ec.CPUCapacity, IO: ec.IOCapacity}
	}
	return out
}
