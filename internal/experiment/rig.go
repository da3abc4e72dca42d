// Package experiment assembles complete testbeds — engine, workloads,
// controllers, metrics — and runs the paper's experiments. Every figure in
// the paper's evaluation section has a runner here; cmd/qsim and the
// benchmarks in bench_test.go are thin wrappers over this package.
//
// There is one rig (this file): a roster of backends on a shared clock.
// The paper's single DB2 instance is a fleet of one; a larger roster
// adds the routing tier and the fleet planner (fleet.go). Every mixed
// run shares one build (buildRig), one boundary loop and one snapshot
// and restore pair (checkpoint.go), and one collect.
package experiment

import (
	"fmt"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/optimizer"
	"repro/internal/patroller"
	"repro/internal/rng"
	"repro/internal/router"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// Mode selects the workload controller under test.
type Mode int

// Controller modes, matching the paper's three experiment configurations.
const (
	// NoControl exerts nothing beyond the system cost limit (Figure 4).
	NoControl Mode = iota
	// QPPriority is static DB2 QP control: cost groups plus class
	// priorities (Figure 5).
	QPPriority
	// QPNoPriority is DB2 QP group control without priorities; the paper
	// notes its results match NoControl.
	QPNoPriority
	// QueryScheduler is the paper's dynamic workload adaptation
	// (Figures 6 and 7).
	QueryScheduler
)

func (m Mode) String() string {
	switch m {
	case NoControl:
		return "no-control"
	case QPPriority:
		return "qp-priority"
	case QPNoPriority:
		return "qp-no-priority"
	case QueryScheduler:
		return "query-scheduler"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// SystemCostLimit is the experimentally determined healthy operating
// point (timerons) — the paper's 30,000. The saturation experiment (E0)
// regenerates the curve this value is read from.
const SystemCostLimit = 30000

// Rig is one fully wired testbed: a roster of backends on one shared
// clock, the client pool, and the run-level collector. The paper's
// single DB2 instance is a fleet of one: no router, no planner, no
// backend labels, and a pool that submits straight to the engine. Two
// or more backends add the routing tier and the fleet planner. The
// roster size alone decides the shape.
type Rig struct {
	// Instance is the roster's first backend. Its Eng, Pat and QS are
	// promoted, so a fleet of one reads like the paper's testbed.
	*backend.Instance
	Clock *simclock.Clock
	// Backends is the roster in ID order.
	Backends []*backend.Instance
	// Router and Planner are the routing tier; nil for a fleet of one.
	Router  *router.Router
	Planner *router.Planner
	Pool    *workload.Pool
	Classes []*workload.Class
	OLAPSet *workload.Set
	OLTPSet *workload.Set
	Sched   workload.Schedule
	// Collector is the run-level period × class view. A fleet of one has
	// just this collector, which is also its backend's; a larger fleet
	// folds every engine into it and keeps a local one per backend.
	Collector *metrics.Collector
	// Plans records every fleet budget split the planner made.
	//lint:ignore ckptcover result-side history for FleetResult; ResumeMixed returns only the MixedResult
	Plans []router.FleetPlan
	// Faults holds the per-backend fault injectors in roster order (nil
	// when the run has no fault plan).
	Faults []*fault.Injector
}

// OLAPClassIDs returns the IDs of the rig's OLAP classes.
func (r *Rig) OLAPClassIDs() []engine.ClassID {
	var ids []engine.ClassID
	for _, c := range r.Classes {
		if c.Kind == workload.OLAP {
			ids = append(ids, c.ID)
		}
	}
	return ids
}

// OLTPClass returns the rig's OLTP class (nil if none).
func (r *Rig) OLTPClass() *workload.Class {
	for _, c := range r.Classes {
		if c.Kind == workload.OLTP {
			return c
		}
	}
	return nil
}

// NewRig builds the paper's testbed: one simulated DB2-like engine, the
// TPC-H-like and TPC-C-like template sets in separate databases, the three
// service classes, and enough parked clients to cover the schedule. No
// controller is attached yet.
func NewRig(seed uint64, sched workload.Schedule) *Rig {
	return newRig(seed, sched, workload.PaperClasses(), false, nil)
}

// newRig builds the roster (nil or empty specs = a fleet of one with the
// paper's engine), the template sets, the pool and its clients seeded
// from one rng stream, and the collectors. Construction order is
// load-bearing: resume replays it so restored clock events and listener
// chains line up with the checkpointed run's.
func newRig(seed uint64, sched workload.Schedule, classes []*workload.Class, streaming bool, specs []backend.Spec) *Rig {
	if len(specs) == 0 {
		specs = []backend.Spec{{}}
	}
	r := &Rig{Clock: simclock.New(), Classes: classes, Sched: sched}
	engines := make([]*engine.Engine, len(specs))
	pool := new(engine.QueryPool)
	for i, spec := range specs {
		b := backend.New(i+1, spec, r.Clock, pool)
		r.Backends = append(r.Backends, b)
		engines[i] = b.Eng
	}
	r.Instance = r.Backends[0]

	model := optimizer.DefaultModel()
	r.OLAPSet = workload.NewSet(optimizer.New(model, workload.TPCHCatalog()), workload.TPCHTemplates())
	r.OLTPSet = workload.NewSet(optimizer.New(model, workload.TPCCCatalog()), workload.TPCCTemplates())

	var route workload.Submitter = r.Eng
	if len(r.Backends) > 1 {
		roster := make([]backend.Backend, len(r.Backends))
		for i, b := range r.Backends {
			roster[i] = b
		}
		r.Router = router.New(roster, router.DefaultScorers())
		route = r.Router
	}
	r.Pool = workload.NewRoutedPool(route, engines)
	src := rng.New(seed)
	maxClients := sched.MaxClients()
	for _, c := range classes {
		set := r.OLAPSet
		if c.Kind == workload.OLTP {
			set = r.OLTPSet
		}
		if streaming {
			r.Pool.AddClientsStreaming(c, set, maxClients[c.ID], src)
		} else {
			r.Pool.AddClients(c, set, maxClients[c.ID], src)
		}
	}

	if len(r.Backends) > 1 {
		for _, b := range r.Backends {
			b.Collector = metrics.NewCollector(b.Eng, classes, sched)
		}
	}
	r.Collector = metrics.NewCollector(engines[0], classes, sched)
	for _, e := range engines[1:] {
		r.Collector.Attach(e)
	}
	if len(r.Backends) == 1 {
		r.Instance.Collector = r.Collector
	}
	return r
}

// SampleOLAPCosts draws a cost sample from the rig's OLAP workload — what
// an administrator would mine from QP's historical control tables to set
// the group thresholds.
func (r *Rig) SampleOLAPCosts(n int, seed uint64) []float64 {
	src := rng.New(seed)
	costs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		costs = append(costs, r.OLAPSet.Generate(src).Timerons)
	}
	return costs
}

// attachFaults arms one injector per backend, in roster order, before
// any controller attaches. A fleet of one keeps the classic injector and
// its seed stream; a larger fleet gives each backend its own stream, and
// backend-scoped events arm only on their target.
func (r *Rig) attachFaults(plan *fault.Plan) {
	if plan == nil || plan.Empty() {
		return
	}
	for _, b := range r.Backends {
		var inj *fault.Injector
		if len(r.Backends) == 1 {
			inj = fault.NewInjector(*plan, r.Clock)
		} else {
			inj = fault.NewBackendInjector(*plan, r.Clock, b.ID())
		}
		inj.AttachEngine(b.Eng)
		r.Faults = append(r.Faults, inj)
	}
}

// AttachController wires the controller for the given mode on every
// backend, in roster order. For QueryScheduler each backend's scheduler
// is started immediately (its dispatcher becomes the patroller's policy)
// and, when faults are attached, its monitor drops snapshots and
// harvests through that backend's injector. qsCfg customizes the
// scheduler; pass nil for the paper defaults. A roster of two or more
// backends requires QueryScheduler mode.
func (r *Rig) AttachController(mode Mode, qsCfg *core.Config) {
	if len(r.Backends) > 1 && mode != QueryScheduler {
		panic(fmt.Sprintf("experiment: a fleet run requires Query Scheduler mode, got %v", mode))
	}
	for i, b := range r.Backends {
		cfg := qsCfg
		if r.Faults != nil && mode == QueryScheduler {
			// Copy the scheduler config (never mutate the caller's).
			qc := resolveQSConfig(qsCfg)
			qc.MonitorFaults = r.Faults[i]
			cfg = &qc
		}
		r.attachControl(b, mode, cfg)
	}
}

// resolveQSConfig is the scheduler config a run uses: the caller's, or
// the paper defaults at SystemCostLimit.
func resolveQSConfig(qsCfg *core.Config) core.Config {
	if qsCfg != nil {
		return *qsCfg
	}
	cfg := core.DefaultConfig()
	cfg.SystemCostLimit = SystemCostLimit
	return cfg
}

// attachControl wires one backend's admission stack for the mode: a
// patroller over the OLAP classes and its release policy.
func (r *Rig) attachControl(b *backend.Instance, mode Mode, qsCfg *core.Config) {
	b.Pat = patroller.New(b.Eng, r.OLAPClassIDs()...)
	limit := float64(SystemCostLimit)
	if qsCfg != nil && qsCfg.SystemCostLimit > 0 {
		limit = qsCfg.SystemCostLimit
	}

	switch mode {
	case NoControl:
		b.Pat.SetPolicy(patroller.SystemLimit{Limit: limit})

	case QPPriority, QPNoPriority:
		thresholds := patroller.ThresholdsFromSample(r.SampleOLAPCosts(4096, 99))
		pol := patroller.GroupPriority{
			TotalLimit:    limit,
			Thresholds:    thresholds,
			MaxConcurrent: patroller.DefaultGroupCaps(),
			Priority:      map[engine.ClassID]int{},
		}
		if mode == QPPriority {
			// The paper sets Class 2's priority above Class 1's; in
			// general QP priorities follow class importance.
			for _, c := range r.Classes {
				if c.Kind == workload.OLAP {
					pol.Priority[c.ID] = c.Importance
				}
			}
		}
		b.Pat.SetPolicy(pol)

	case QueryScheduler:
		var clients func() []engine.ClientID
		if oltp := r.OLTPClass(); oltp != nil {
			id := oltp.ID
			clients = func() []engine.ClientID { return r.Pool.ActiveClients(id) }
		}
		qs, err := core.New(resolveQSConfig(qsCfg), b.Eng, b.Pat, r.Classes, clients)
		if err != nil {
			panic(err)
		}
		b.QS = qs
		qs.Start()

	default:
		panic(fmt.Sprintf("experiment: unknown mode %v", mode))
	}
}

// startPlanner arms the fleet planner after every backend's scheduler,
// so on each shared tick every backend plans before the fleet re-splits
// the budget. A fleet of one has no planner.
func (r *Rig) startPlanner(migrate bool) {
	if r.Router == nil {
		return
	}
	// The per-backend control interval is the fleet planning interval:
	// read it back validated from an attached scheduler rather than
	// trusting the raw config.
	qc := r.QS.Config()
	r.Planner = router.StartPlanner(r.Clock, r.Router, r.Backends, router.PlannerConfig{
		Interval: qc.ControlInterval,
		Total:    qc.SystemCostLimit,
		Migrate:  migrate,
	})
	r.Planner.OnPlan(func(fp router.FleetPlan) { r.Plans = append(r.Plans, fp) })
}

// Run installs the schedule and runs the simulation to the end of the
// last period.
func (r *Rig) Run() {
	r.Sched.Install(r.Clock, r.Pool, nil)
	r.Clock.RunUntil(r.Sched.Duration())
}
