// Benchmarks regenerating every table and figure in the paper's
// evaluation section, plus micro-benchmarks of the core components and
// ablation benches for the design decisions called out in DESIGN.md.
//
// Run a single figure with, e.g.:
//
//	go test -bench=BenchmarkFig6 -benchtime=1x
//
// Each experiment bench reports domain metrics (goal satisfaction, mean
// response times) via b.ReportMetric, so the paper's headline numbers
// appear directly in the benchmark output. The printed tables themselves
// come from cmd/qsim.
package repro

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiment"
	"repro/internal/optimizer"
	"repro/internal/patroller"
	"repro/internal/rng"
	"repro/internal/router"
	"repro/internal/simclock"
	"repro/internal/solver"
	"repro/internal/utility"
	"repro/internal/workload"
)

// reportMixed attaches per-class goal satisfaction to the benchmark line.
func reportMixed(b *testing.B, res *experiment.MixedResult) {
	b.Helper()
	b.ReportMetric(res.Satisfaction[0], "class1-goal%")
	b.ReportMetric(res.Satisfaction[1], "class2-goal%")
	b.ReportMetric(res.Satisfaction[2], "class3-goal%")
	// Mean OLTP response time over the heavy periods (the paper's
	// stress case: periods 3, 6, 9, 12, 15, 18).
	var sum float64
	var n int
	for p := 2; p < res.Periods; p += 3 {
		if res.Measurable[2][p] {
			sum += res.Metric[2][p]
			n++
		}
	}
	if n > 0 {
		b.ReportMetric(sum/float64(n)*1000, "oltp-heavy-ms")
	}
}

// BenchmarkSystemCostLimit regenerates the calibration curve (throughput
// vs. system cost limit) that motivates the 30,000-timeron operating
// point (paper Section 2 / ref [4]).
func BenchmarkSystemCostLimit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiment.DefaultSaturationConfig()
		points := experiment.RunSaturation(cfg)
		// Report the plateau throughput at the chosen operating point.
		for _, p := range points {
			if p.Limit == experiment.SystemCostLimit {
				b.ReportMetric(p.QueriesPerHour, "queries/hour@30k")
			}
		}
	}
}

// BenchmarkFig2 regenerates Figure 2: OLTP average response time vs. the
// OLAP cost limit for the paper's four client mixes.
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		curves := experiment.RunFig2(experiment.DefaultFig2Config())
		// Report the dynamic range of the (30 OLTP, 8 OLAP) curve.
		for _, c := range curves {
			if c.OLTPClients == 30 && c.OLAPClients == 8 {
				b.ReportMetric(c.MeanRT[0]*1000, "rt-low-limit-ms")
				b.ReportMetric(c.MeanRT[len(c.MeanRT)-1]*1000, "rt-high-limit-ms")
			}
		}
	}
}

// BenchmarkFig4 regenerates Figure 4: the mixed workload with no class
// control (system cost limit only).
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiment.RunMixed(experiment.DefaultMixedConfig(experiment.NoControl))
		reportMixed(b, res)
	}
}

// BenchmarkFig5 regenerates Figure 5: static DB2 QP control with class
// priorities.
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiment.RunMixed(experiment.DefaultMixedConfig(experiment.QPPriority))
		reportMixed(b, res)
	}
}

// BenchmarkFig5NoPriority runs the paper's QP-without-priority variant,
// which the paper reports as indistinguishable from no control.
func BenchmarkFig5NoPriority(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiment.RunMixed(experiment.DefaultMixedConfig(experiment.QPNoPriority))
		reportMixed(b, res)
	}
}

// BenchmarkFig6 regenerates Figure 6: dynamic Query Scheduler control.
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiment.RunMixed(experiment.DefaultMixedConfig(experiment.QueryScheduler))
		reportMixed(b, res)
	}
}

// BenchmarkFig7 regenerates Figure 7: the per-period class cost limits
// chosen by the Query Scheduler (same run as Figure 6; reported here as
// the OLTP class's share in heavy vs. light periods).
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiment.RunMixed(experiment.DefaultMixedConfig(experiment.QueryScheduler))
		oltp := res.CostLimits[2]
		var heavy, light float64
		for p := 0; p < res.Periods; p += 3 {
			light += oltp[p] / 6
		}
		for p := 2; p < res.Periods; p += 3 {
			heavy += oltp[p] / 6
		}
		b.ReportMetric(heavy, "oltp-limit-heavy")
		b.ReportMetric(light, "oltp-limit-light")
	}
}

// BenchmarkInterceptionOverhead regenerates the Section 3 argument: the
// per-query interception cost dwarfs sub-second OLTP execution, so the
// OLTP class must be controlled indirectly.
func BenchmarkInterceptionOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiment.RunInterceptionOverhead(20, 0.025, 1, 1)
		b.ReportMetric(res.DirectMeanRT/res.UnmanagedMeanRT, "slowdown-x")
	}
}

// BenchmarkDetection regenerates the workload-detection accuracy scores
// (E10): precision/recall of the CUSUM shift detector against the true
// Figure 3 period boundaries.
func BenchmarkDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := experiment.RunDetection(experiment.DefaultDetectionConfig())
		var matched, detected, truth int
		for _, r := range results {
			matched += r.Matched
			detected += r.Detected
			truth += r.TrueShifts
		}
		if detected > 0 {
			b.ReportMetric(float64(matched)/float64(detected), "precision")
		}
		if truth > 0 {
			b.ReportMetric(float64(matched)/float64(truth), "recall")
		}
	}
}

// BenchmarkDirectControl regenerates the future-work comparison (E9):
// indirect admission control vs. direct in-DBMS weighted sharing of the
// OLTP class under sustained peak load.
func BenchmarkDirectControl(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := experiment.RunDirectControl(experiment.DefaultDirectControlConfig())
		for _, r := range results {
			switch r.Strategy {
			case "indirect (QS admission)":
				b.ReportMetric(r.OLTPMeanRT*1000, "indirect-rt-ms")
			case "direct (in-DBMS shares)":
				b.ReportMetric(r.OLTPMeanRT*1000, "direct-rt-ms")
				b.ReportMetric(r.OLAPPerHour, "direct-olap-qph")
			}
		}
	}
}

// --- Ablation benches (design decisions from DESIGN.md §5) ---

func ablationConfig(mutate func(*core.Config)) experiment.MixedConfig {
	cfg := experiment.DefaultMixedConfig(experiment.QueryScheduler)
	qs := core.DefaultConfig()
	qs.SystemCostLimit = experiment.SystemCostLimit
	mutate(&qs)
	cfg.QS = &qs
	return cfg
}

// BenchmarkAblationGridSolver swaps the greedy coordinate-exchange solver
// for the exhaustive grid solver.
func BenchmarkAblationGridSolver(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiment.RunMixed(ablationConfig(func(c *core.Config) {
			c.Solver = solver.Grid{}
		}))
		reportMixed(b, res)
	}
}

// BenchmarkAblationStarvationGuard enables the dispatcher's oversized-
// query release rule.
func BenchmarkAblationStarvationGuard(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiment.RunMixed(ablationConfig(func(c *core.Config) {
			c.StarvationGuard = true
		}))
		reportMixed(b, res)
	}
}

// BenchmarkAblationCoarseSnapshots samples the snapshot monitor every 60s
// instead of 10s — the paper's "must not be too large" accuracy warning.
func BenchmarkAblationCoarseSnapshots(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiment.RunMixed(ablationConfig(func(c *core.Config) {
			c.SnapshotInterval = 60
		}))
		reportMixed(b, res)
	}
}

// BenchmarkAblationShortRegressionWindow fits the OLTP model over 4
// intervals instead of 16.
func BenchmarkAblationShortRegressionWindow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiment.RunMixed(ablationConfig(func(c *core.Config) {
			c.OLTP.Window = 4
		}))
		reportMixed(b, res)
	}
}

// BenchmarkAblationSlowControlLoop re-plans every 5 minutes instead of
// every minute.
func BenchmarkAblationSlowControlLoop(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiment.RunMixed(ablationConfig(func(c *core.Config) {
			c.ControlInterval = 300
		}))
		reportMixed(b, res)
	}
}

// BenchmarkAblationThroughputModel swaps the paper's linear OLTP model
// for the saturation-aware throughput model (future work, DESIGN.md §5).
func BenchmarkAblationThroughputModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiment.RunMixed(ablationConfig(func(c *core.Config) {
			c.OLTPModel = core.ThroughputOLTPModel
		}))
		reportMixed(b, res)
	}
}

// BenchmarkAblationFeedForward lets the planner use the workload
// detector's demand forecasts instead of reacting one interval late.
func BenchmarkAblationFeedForward(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiment.RunMixed(ablationConfig(func(c *core.Config) {
			c.FeedForward = true
		}))
		reportMixed(b, res)
	}
}

// --- Sweep-level benchmarks of the parallel experiment layer ---

// benchSaturationConfig is a scaled-down saturation sweep (8 limits,
// 10-minute windows) sized so serial-vs-parallel wall-clock is measurable
// in one benchtime=1x run.
func benchSaturationConfig(parallel int) experiment.SaturationConfig {
	var limits []float64
	for l := 4000.0; l <= 32000; l += 4000 {
		limits = append(limits, l)
	}
	return experiment.SaturationConfig{
		Limits: limits, OLAPClients: 12, Window: 600, Seed: 1, Parallel: parallel,
	}
}

// BenchmarkSaturationSweep measures the same sweep serially and fanned
// across the worker pool; on an N-core machine the parallel variants
// should approach N-times speedup (each swept limit is an independent
// simulation). Compare with:
//
//	go test -bench=BenchmarkSaturationSweep -benchtime=2x
func BenchmarkSaturationSweep(b *testing.B) {
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("parallel=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				experiment.RunSaturation(benchSaturationConfig(workers))
			}
		})
	}
}

// BenchmarkReplicatedSweep measures multi-seed replication throughput via
// the worker pool (the "tighter confidence intervals" enabler).
func BenchmarkReplicatedSweep(b *testing.B) {
	sched := workload.PaperSchedule()
	seeds := experiment.DefaultSeeds(4)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("parallel=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				experiment.RunReplicated(experiment.NoControl, sched, seeds, workers)
			}
		})
	}
}

// BenchmarkFaultMatrixQuick runs the CI-sized fault matrix (five fault
// scenarios x mitigations off/on, one-hour schedule each) on the worker
// pool — the end-to-end cost of the fault-injection and mitigation layer.
func BenchmarkFaultMatrixQuick(b *testing.B) {
	cfg := experiment.QuickFaultMatrixConfig()
	cfg.Parallel = 4
	for i := 0; i < b.N; i++ {
		cells := experiment.RunFaultMatrix(cfg)
		var retried uint64
		for _, c := range cells {
			retried += c.Retried
		}
		b.ReportMetric(float64(retried), "retries")
	}
}

// BenchmarkCheckpointOverhead measures the cost of crash-consistent
// checkpointing on the paper's Query Scheduler run: the same simulation
// with checkpoints off, at every 100th control boundary (the recommended
// cadence — expected well under 5% overhead), and at every boundary (the
// worst case). Compare with:
//
//	go test -bench=BenchmarkCheckpointOverhead -benchtime=3x
func BenchmarkCheckpointOverhead(b *testing.B) {
	for _, every := range []int{0, 100, 1} {
		b.Run(fmt.Sprintf("every=%d", every), func(b *testing.B) {
			dir := b.TempDir()
			cfg := experiment.DefaultMixedConfig(experiment.QueryScheduler)
			if every > 0 {
				cfg.CheckpointEvery = every
				cfg.CheckpointDir = dir
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := experiment.RunMixed(cfg)
				reportMixed(b, res)
			}
		})
	}
}

// --- Micro-benchmarks of the components themselves ---

// BenchmarkClockThroughput measures the simclock kernel's event hot path:
// one self-rescheduling event per iteration (schedule + heap push + pop +
// fire), the pattern every client arrival and completion follows. The
// events/sec metric and allocs/op are the before/after numbers CHANGES.md
// records.
func BenchmarkClockThroughput(b *testing.B) {
	clock := simclock.New()
	var tick func()
	tick = func() { clock.After(1, tick) }
	clock.After(1, tick)
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		clock.Step()
	}
	if d := time.Since(start).Seconds(); d > 0 {
		b.ReportMetric(float64(b.N)/d, "events/sec")
	}
}

// BenchmarkClockDeepQueue is BenchmarkClockThroughput with 1024 pending
// events, so sift costs at realistic queue depths are visible.
func BenchmarkClockDeepQueue(b *testing.B) {
	clock := simclock.New()
	var tick func()
	tick = func() { clock.After(1+float64(clock.Pending()%7), tick) }
	for i := 0; i < 1024; i++ {
		clock.After(float64(i%13)+1, tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clock.Step()
	}
}

// BenchmarkClockCancelChurn measures the cancellable path: arm + cancel +
// re-arm, the engine's completion-event pattern.
func BenchmarkClockCancelChurn(b *testing.B) {
	clock := simclock.New()
	fn := func() {}
	// Background events so cancellation sifts against a non-trivial heap.
	for i := 0; i < 256; i++ {
		clock.At(float64(1+i%9), func() {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := clock.AfterCancellable(0.5, fn)
		clock.Cancel(id)
	}
}

// BenchmarkEngineHotPath measures the engine's submit→reschedule→complete
// cycle including the clock kernel underneath — the inner loop of every
// experiment. allocs/op is the headline: the value-heap kernel plus the
// hoisted completion closure keep the simulator's per-event garbage flat.
func BenchmarkEngineHotPath(b *testing.B) {
	clock := simclock.New()
	eng := engine.New(engine.DefaultConfig(), clock)
	var submit func(engine.ClientID)
	submit = func(c engine.ClientID) {
		eng.Submit(&engine.Query{
			Client: c,
			Demand: engine.Demand{Work: 0.01, CPURate: 1, IORate: 0.2},
		})
	}
	eng.OnDone(func(q *engine.Query) { submit(q.Client) })
	for c := engine.ClientID(0); c < 20; c++ {
		submit(c)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clock.Step()
	}
}

// BenchmarkEngineThroughput measures simulated-query completions per
// wall-clock second of the discrete-event engine.
func BenchmarkEngineThroughput(b *testing.B) {
	clock := simclock.New()
	eng := engine.New(engine.DefaultConfig(), clock)
	var submit func(engine.ClientID)
	submit = func(c engine.ClientID) {
		eng.Submit(&engine.Query{
			Client: c,
			Demand: engine.Demand{Work: 0.01, CPURate: 1, IORate: 0.2},
		})
	}
	eng.OnDone(func(q *engine.Query) { submit(q.Client) })
	for c := engine.ClientID(0); c < 20; c++ {
		submit(c)
	}
	b.ResetTimer()
	done := eng.Stats().Completed
	for i := 0; i < b.N; i++ {
		clock.RunUntil(clock.Now() + 1)
	}
	b.ReportMetric(float64(eng.Stats().Completed-done)/float64(b.N), "completions/op")
}

// BenchmarkSolverGreedy measures one planning cycle with the production
// solver over the paper's three classes.
func BenchmarkSolverGreedy(b *testing.B) {
	benchSolver(b, solver.Greedy{})
}

// BenchmarkSolverGrid measures one planning cycle with the exhaustive
// grid solver.
func BenchmarkSolverGrid(b *testing.B) {
	benchSolver(b, solver.Grid{})
}

func benchSolver(b *testing.B, s solver.Solver) {
	p := solver.Problem{
		Total: 30000,
		Step:  500,
		Classes: []solver.ClassSpec{
			{ID: 1, Utility: utility.NewVelocity(0.4, 1), Min: 500,
				Predict: func(l float64) float64 { return min(1, 0.7*l/10000) }},
			{ID: 2, Utility: utility.NewVelocity(0.6, 2), Min: 500,
				Predict: func(l float64) float64 { return min(1, 0.8*l/12000) }},
			{ID: 3, Utility: utility.NewResponseTime(0.25, 3),
				Predict: func(l float64) float64 { return max(0.05, 0.35-5e-6*l) }},
		},
	}
	start := solver.Plan{1: 10000, 2: 10000, 3: 10000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Solve(p, start)
	}
}

// BenchmarkWorkloadGenerate measures OLAP instance generation.
func BenchmarkWorkloadGenerate(b *testing.B) {
	opt := optimizer.New(optimizer.DefaultModel(), workload.TPCHCatalog())
	set := workload.NewSet(opt, workload.TPCHTemplates())
	src := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set.Generate(src)
	}
}

// BenchmarkOptimizerCost measures plan costing against the catalog.
func BenchmarkOptimizerCost(b *testing.B) {
	opt := optimizer.New(optimizer.DefaultModel(), workload.TPCHCatalog())
	plans := workload.TPCHTemplates()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Cost(plans[i%len(plans)].Plan)
	}
}

// BenchmarkPatrollerChurn measures intercept/release/complete cycles.
func BenchmarkPatrollerChurn(b *testing.B) {
	clock := simclock.New()
	eng := engine.New(engine.Config{CPUCapacity: 1000, IOCapacity: 1000}, clock)
	pat := patroller.New(eng, 1)
	pat.SetPolicy(patroller.SystemLimit{Limit: 1000})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Submit(&engine.Query{Class: 1, Cost: 100,
			Demand: engine.Demand{Work: 0.001, CPURate: 1}})
		clock.RunUntil(clock.Now() + 0.01)
	}
}

// BenchmarkRouterRoute measures the routing tier's per-query decision:
// score three heterogeneous backends with the default policy, pick the
// argmax, and submit to the chosen engine, with engine churn underneath
// so the queue/load signals stay live. allocs/op is the headline: the
// fleet query comes from the backends' shared pool, and the scoring and
// argmax add nothing, so it rounds to zero once the pool is warm.
func BenchmarkRouterRoute(b *testing.B) {
	clock := simclock.New()
	specs := experiment.RoutingBackends()
	roster := make([]backend.Backend, len(specs))
	pool := new(engine.QueryPool)
	for i, spec := range specs {
		roster[i] = backend.New(i+1, spec, clock, pool)
	}
	rt := router.New(roster, router.DefaultScorers())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := rt.AcquireQuery()
		q.Class = engine.ClassID(1 + i%3)
		q.Cost = 100
		q.Demand = engine.Demand{Work: 0.001, CPURate: 1, IORate: 0.2}
		rt.Submit(q)
		clock.RunUntil(clock.Now() + 0.01)
	}
}

// BenchmarkRoutingFleet regenerates E14: the heterogeneous three-backend
// fleet under the routing tier and the hierarchical budget split. The
// reported share metrics are the router's verdict — the slow backend
// should hold well under a fair third of the routed queries.
func BenchmarkRoutingFleet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiment.RunFleet(experiment.RoutingMixedConfig())
		var total int64
		for _, n := range res.Routed {
			total += n
		}
		if total > 0 {
			b.ReportMetric(100*float64(res.Routed[0])/float64(total), "fast1-share%")
			b.ReportMetric(100*float64(res.Routed[2])/float64(total), "slow-share%")
		}
	}
}

// BenchmarkFleetFailover regenerates E15 (quick shape): three arms of
// the backend-crash drill — healthy baseline, failover + migration, and
// mitigation-off. The reported metrics are the acceptance verdict: the
// mitigated arm's critical-class retention vs baseline (bar: >= 90%)
// and the collapse of the unmitigated black-hole arm.
func BenchmarkFleetFailover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.RunFailover(experiment.FailoverConfig{Seed: 1, Quick: true})
		b.ReportMetric(100*r.Baseline.Attainment, "baseline-attain%")
		b.ReportMetric(100*r.Retention(r.Failover), "retention%")
		b.ReportMetric(100*r.NoMitig.Attainment, "nomitig-attain%")
	}
}

// BenchmarkMillionClients drives one million distinct streaming clients
// through a 24-sim-hour closed-loop OLTP run. A 25-client cohort rotates
// through the population every ~2.2 sim-seconds via SetActiveWindow, so
// every client in turn materializes, submits queries, and parks back to
// its 12-byte (rng cursor, submit count) record. The eager generator
// would build a million Client objects and rng streams up front; the
// streaming pool keeps resident state bounded by the live cohort, which
// is what lets the run fit in container memory.
func BenchmarkMillionClients(b *testing.B) {
	const (
		population = 1_000_000
		cohort     = 25
		simHours   = 24
	)
	slices := population / cohort
	span := simHours * 3600.0 / float64(slices)
	oltp := workload.PaperClasses()[2]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clock := simclock.New()
		eng := engine.New(engine.DefaultConfig(), clock)
		opt := optimizer.New(optimizer.DefaultModel(), workload.TPCCCatalog())
		set := workload.NewSet(opt, workload.TPCCTemplates())
		pool := workload.NewPool(eng)
		pool.AddClientsStreaming(oltp, set, population, rng.New(7))
		for s := 0; s < slices; s++ {
			lo := s * cohort
			pool.SetActiveWindow(oltp.ID, lo, lo+cohort)
			clock.RunUntil(simclock.Time(s+1) * span)
		}
		// Drain: park the final cohort once its in-flight work completes.
		pool.SetActiveWindow(oltp.ID, population, population)
		clock.RunUntil(clock.Now() + 60)
		b.ReportMetric(float64(eng.Stats().Completed), "completions")
		b.ReportMetric(float64(pool.ActiveCount(oltp.ID)), "live-clients")
	}
}
