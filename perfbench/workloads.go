package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/optimizer"
	"repro/internal/patroller"
	"repro/internal/rng"
	"repro/internal/simclock"
	"repro/internal/solver"
	"repro/internal/workload"
)

// workloadSpec is one benchmark workload: a full simulation run built
// only from the program's public entry points.
type workloadSpec struct {
	name string
	run  func(seed uint64, p *probe) (*outcome, error)
}

// workloads are the benchmark's three runs, chosen to load different
// layers: see README.md for what each one exercises and leaves idle.
var workloads = []workloadSpec{
	{"paper-qs-24h", runPaper},
	{"fleet-failover-recorded", runFleet},
	{"oltp-million-clients", runMillion},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// probe carries the benchmark's instruments into a run. Seams are timed
// only in a traced run. A workload calls setupDone once, when its
// construction is finished and the first simulated event is next, and
// simDone once, when the last simulated event has run and the run's
// state is still alive.
type probe struct {
	traced             bool
	tmpDir             string
	setupDone, simDone func()

	stepMS       []float64 // host ms per RunUntil the harness issues
	windowCalls  int64
	windowMS     float64
	poolBuildMS  float64
	solveCalls   int64
	solveMS      float64
	predictCalls int64
	releaseCalls int64
	releaseMS    float64
}

// runUntil advances the clock, timing the step in a traced run.
func (p *probe) runUntil(clock *simclock.Clock, t simclock.Time) {
	if !p.traced {
		clock.RunUntil(t)
		return
	}
	w := startWatch()
	clock.RunUntil(t)
	p.stepMS = append(p.stepMS, 1000*w.seconds())
}

// outcome is what a workload hands back for checking and scoring.
type outcome struct {
	res *experiment.MixedResult
	// measuredFrom is the first measured period; demand reports whether
	// a class had clients in a period.
	measuredFrom int
	demand       func(class engine.ClassID, period int) bool
	// submitted and failed count simulated queries: arrivals, and those
	// terminally failed or lost.
	submitted, failed int64
	// problems lists failed output checks.
	problems []string
	// digestExtra adds workload-specific outputs to the digest.
	digestExtra []string
	// layers holds per-layer counts that only this workload can see.
	layers map[string]float64
	// resetup, when set, repeats the run's construction so set-up time
	// can be sampled more than once per process.
	resetup func()
}

func (o *outcome) checkf(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// runPaper drives the Figure 6 run from the public Rig pieces RunMixed is
// built from, stepping the clock one control interval at a time.
func runPaper(seed uint64, p *probe) (*outcome, error) {
	return runRig(seed, workload.PaperSchedule(), p), nil
}

// runRig runs the paper's three classes under the Query Scheduler over
// sched.
func runRig(seed uint64, sched workload.Schedule, p *probe) *outcome {
	build := func(traced bool) *experiment.Rig {
		w := startWatch()
		rig := experiment.NewRig(seed, sched)
		p.poolBuildMS = 1000 * w.seconds()
		qc := core.DefaultConfig()
		qc.SystemCostLimit = experiment.SystemCostLimit
		if traced {
			qc.Solver = timedSolver{inner: qc.Solver, p: p}
		}
		rig.AttachController(experiment.QueryScheduler, &qc)
		if traced {
			rig.Pat.SetPolicy(timedPolicy{inner: rig.QS, p: p})
		}
		rig.Sched.Install(rig.Clock, rig.Pool, nil)
		return rig
	}
	rig := build(p.traced)
	p.setupDone()
	step := rig.QS.Config().ControlInterval
	end := sched.Duration()
	for t := step; t < end; t += step {
		p.runUntil(rig.Clock, t)
	}
	p.runUntil(rig.Clock, end)
	p.simDone()

	o := rigOutcome(rig.Collector, rig.Eng, experiment.QueryScheduler)
	o.res.PlanHistory = rig.QS.History()
	o.res.PatStats = rig.Pat.Stats()
	o.demand = scheduleDemand(sched)
	// Closed loop: a client has at most one query outstanding, and a
	// client parked by a shrinking period may still have one in flight.
	last := sched.Periods() - 1
	clients := sched.MaxClients()
	for i, cl := range o.res.Classes {
		o.checkf(o.res.Pending[i][last] <= clients[cl.ID],
			"class %d: %d pending at the end with %d clients", cl.ID, o.res.Pending[i][last], clients[cl.ID])
	}
	o.layers = map[string]float64{
		"patroller.intercepted": float64(o.res.PatStats.Intercepted),
		"patroller.retries":     float64(o.res.PatStats.Retried),
	}
	o.resetup = func() { build(false) }
	return o
}

// runMillion is the BenchmarkMillionClients drive with the seed taken
// from the command line and a collector attached for the OLTP goal
// metrics.
func runMillion(seed uint64, p *probe) (*outcome, error) {
	const (
		population = 1_000_000
		cohort     = 25
		periods    = 24
	)
	slices := population / cohort
	span := periods * 3600.0 / float64(slices)
	oltp := workload.PaperClasses()[2]
	sched := workload.Schedule{PeriodSeconds: 3600}
	for i := 0; i < periods; i++ {
		sched.Clients = append(sched.Clients, map[engine.ClassID]int{oltp.ID: cohort})
	}
	type rigParts struct {
		clock *simclock.Clock
		eng   *engine.Engine
		pool  *workload.Pool
		col   *metrics.Collector
	}
	build := func() rigParts {
		clock := simclock.New()
		eng := engine.New(engine.DefaultConfig(), clock)
		set := workload.NewSet(optimizer.New(optimizer.DefaultModel(), workload.TPCCCatalog()), workload.TPCCTemplates())
		pool := workload.NewPool(eng)
		w := startWatch()
		pool.AddClientsStreaming(oltp, set, population, rng.New(seed))
		p.poolBuildMS = 1000 * w.seconds()
		return rigParts{clock, eng, pool, metrics.NewCollector(eng, []*workload.Class{oltp}, sched)}
	}
	r := build()
	p.setupDone()
	window := func(lo, hi int) {
		if !p.traced {
			r.pool.SetActiveWindow(oltp.ID, lo, hi)
			return
		}
		w := startWatch()
		r.pool.SetActiveWindow(oltp.ID, lo, hi)
		p.windowMS += 1000 * w.seconds()
		p.windowCalls++
	}
	for s := 0; s < slices; s++ {
		window(s*cohort, s*cohort+cohort)
		p.runUntil(r.clock, simclock.Time(s+1)*span)
	}
	// Drain: park the final cohort once its in-flight work completes.
	window(population, population)
	p.runUntil(r.clock, r.clock.Now()+60)
	p.simDone()

	o := rigOutcome(r.col, r.eng, experiment.NoControl)
	o.demand = scheduleDemand(sched)
	o.checkf(r.pool.ActiveCount(oltp.ID) == 0, "%d clients still live after the drain", r.pool.ActiveCount(oltp.ID))
	o.checkf(o.res.Pending[0][periods-1] == 0, "%d queries pending after the drain", o.res.Pending[0][periods-1])
	o.resetup = func() { build() }
	return o, nil
}

// rigOutcome tabulates a single-engine run the way RunMixed does and
// checks the collector against the engine's own counters.
func rigOutcome(col *metrics.Collector, eng *engine.Engine, mode experiment.Mode) *outcome {
	res := &experiment.MixedResult{Mode: mode, Classes: col.Classes(), Periods: col.Periods()}
	o := &outcome{res: res}
	var completed, failed int64
	for _, cl := range res.Classes {
		metric := make([]float64, res.Periods)
		measurable := make([]bool, res.Periods)
		met := make([]bool, res.Periods)
		done := make([]int, res.Periods)
		p95 := make([]float64, res.Periods)
		pending := make([]int, res.Periods)
		var sub, fin int64
		for p := 0; p < res.Periods; p++ {
			metric[p], measurable[p] = col.Metric(p, cl.ID)
			if measurable[p] {
				met[p] = cl.Goal.Met(metric[p])
			}
			agg := col.Agg(p, cl.ID)
			done[p] = agg.Completed
			p95[p] = col.RespQuantile(p, cl.ID, 0.95)
			pending[p] = col.Pending(p, cl.ID)
			sub += int64(agg.Submitted)
			fin += int64(agg.Completed + agg.Failed)
			completed += int64(agg.Completed)
			failed += int64(agg.Failed)
		}
		o.checkf(sub == fin+int64(pending[res.Periods-1]),
			"class %d: %d submitted but %d completed or failed and %d pending", cl.ID, sub, fin, pending[res.Periods-1])
		o.submitted += sub
		res.Metric = append(res.Metric, metric)
		res.Measurable = append(res.Measurable, measurable)
		res.GoalMet = append(res.GoalMet, met)
		res.Completed = append(res.Completed, done)
		res.RespP95 = append(res.RespP95, p95)
		res.Pending = append(res.Pending, pending)
		res.Satisfaction = append(res.Satisfaction, col.GoalSatisfaction(cl.ID))
	}
	o.failed = failed
	st := eng.Stats()
	o.checkf(int64(st.Completed) == completed, "engine completed %d, collector %d", st.Completed, completed)
	o.digestExtra = append(o.digestExtra, fmt.Sprintf("engine %d %d %d", st.Submitted, st.Completed, st.Aborted))
	return o
}

// scheduleDemand reports whether a schedule gives a class clients in a
// period.
func scheduleDemand(sched workload.Schedule) func(engine.ClassID, int) bool {
	return func(c engine.ClassID, p int) bool { return sched.Clients[p][c] > 0 }
}

// Trace event kinds the fleet run tallies, in sink count order.
const (
	traceSubmit = iota
	traceDone
	traceReroute
)

// checkpointEvery is the fleet run's checkpoint cadence, in control
// boundaries.
const checkpointEvery = 10

// runFleet is E15's failover arm at full shape with every recorder on.
// Set-up ends at the decision log's meta line, the last construction
// step RunFleet takes before the first simulated event; the simulation
// ends at the metrics exposition, the first export after the last event.
func runFleet(seed uint64, p *probe) (*outcome, error) {
	ckdir, err := os.MkdirTemp(p.tmpDir, "ckpt-")
	if err != nil {
		return nil, fmt.Errorf("perfbench: checkpoint dir: %w", err)
	}
	defer os.RemoveAll(ckdir)
	config := func(tr, dl, ex *sink) experiment.MixedConfig {
		plan := experiment.FailoverPlan(seed, false)
		cfg := experiment.FailoverMixedConfig(experiment.FailoverConfig{Seed: seed}, &plan, false)
		cfg.Trace, cfg.Decisions, cfg.Metrics = tr, dl, ex
		cfg.CheckpointEvery, cfg.CheckpointDir = checkpointEvery, ckdir
		return cfg
	}
	tr := newSink("kind", "submit", "done", "reroute")
	dl := newSink("type", "decision")
	dl.firstWrite = p.setupDone
	ex := newSink("")
	ex.keep = &bytes.Buffer{}
	// RunFleet writes the metrics exposition once the simulation is over
	// and before it releases the fleet.
	ex.firstWrite = p.simDone
	cfg := config(tr, dl, ex)

	fr := experiment.RunFleet(cfg)
	res := fr.MixedResult
	// E15 warms up for 600 s and measures for 3600 s.
	o := &outcome{res: res, measuredFrom: experiment.MeasureStartPeriod(600, 3600), demand: scheduleDemand(cfg.Sched)}

	var completed, pending, ticks, routed int64
	for i := range res.Classes {
		for _, n := range res.Completed[i] {
			completed += int64(n)
		}
		pending += int64(res.Pending[i][res.Periods-1])
	}
	for _, h := range fr.Histories {
		ticks += int64(len(h))
	}
	for _, n := range fr.Routed {
		routed += n
	}
	o.submitted = tr.count(traceSubmit)
	// A submitted query that neither completed nor is still pending at
	// the end failed terminally or was lost.
	o.failed = o.submitted - completed - pending
	o.checkf(o.failed >= 0, "trace has %d submits for %d completed and %d pending", o.submitted, completed, pending)
	o.checkf(tr.endsInNewline, "trace does not end with a newline")
	o.checkf(tr.count(traceDone) == completed, "trace has %d done events, result %d completions", tr.count(traceDone), completed)
	o.checkf(dl.endsInNewline, "decision log does not end with a newline")
	o.checkf(dl.count(0) == ticks, "decision log has %d tick records, histories %d", dl.count(0), ticks)
	if n, err := exposedTotal(ex.keep.String(), "queries_completed_total"); err != nil {
		o.checkf(false, "metrics exposition: %v", err)
	} else {
		o.checkf(n == completed, "metrics exposition counts %d completions, result %d", n, completed)
	}
	files, ckBytes, err := dirUsage(ckdir)
	if err != nil {
		return nil, err
	}
	boundaries := int(math.Ceil(cfg.Sched.Duration() / cfg.QS.ControlInterval))
	want := (boundaries-1)/checkpointEvery + 1
	o.checkf(files == want, "%d checkpoint files, want %d", files, want)

	o.res.PlanHistory = nil
	for i, h := range fr.Histories {
		o.digestExtra = append(o.digestExtra, fmt.Sprintf("backend %d routed %d completed %v", i, fr.Routed[i], fr.BackendCompleted[i]))
		o.digestExtra = append(o.digestExtra, planDigest(h)...)
	}
	for _, fp := range fr.Plans {
		o.digestExtra = append(o.digestExtra, fmt.Sprintf("fleet %s %s", ftoa(fp.Time), floats(fp.Limits)))
	}
	o.layers = map[string]float64{
		"router.routed":         float64(routed),
		"router.reroute_frac":   ratio(float64(tr.count(traceReroute)), float64(routed)),
		"patroller.intercepted": float64(res.PatStats.Intercepted),
		"patroller.retries":     float64(res.PatStats.Retried),
		"core.ticks":            float64(ticks),
		"core.plan_change_frac": planChangeFrac(fr.Histories...),
		"obs.bytes":             float64(ex.bytes),
		"trace.bytes":           float64(tr.bytes),
		"trace.events":          float64(tr.lines),
		"trace.writes":          float64(tr.writes),
		"decisionlog.bytes":     float64(dl.bytes),
		"decisionlog.records":   float64(dl.lines),
		"checkpoint.files":      float64(files),
		"checkpoint.bytes":      float64(ckBytes),
		"fault.injected":        float64(res.Faults.Total()),
	}
	// Rebuild only: the decision log's meta line ends set-up, so abort
	// the run there.
	o.resetup = func() {
		defer func() {
			if r := recover(); r != (setupOver{}) {
				panic(r)
			}
		}()
		abort := newSink("")
		abort.firstWrite = func() { panic(setupOver{}) }
		experiment.RunFleet(config(newSink(""), abort, newSink("")))
	}
	return o, nil
}

// setupOver unwinds a set-up-only rebuild of the fleet run.
type setupOver struct{}

// exposedTotal sums every sample of one metric in a Prometheus text
// exposition.
func exposedTotal(text, name string) (int64, error) {
	var total int64
	found := false
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, name+"{") && !strings.HasPrefix(line, name+" ") {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			return 0, fmt.Errorf("bad sample %q", line)
		}
		total += int64(v)
		found = true
	}
	if !found {
		return 0, fmt.Errorf("no %s samples", name)
	}
	return total, nil
}

// dirUsage counts the files in dir and their bytes.
func dirUsage(dir string) (files int, size int64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, fmt.Errorf("perfbench: %w", err)
	}
	for _, e := range entries {
		info, err := os.Stat(filepath.Join(dir, e.Name()))
		if err != nil {
			return 0, 0, fmt.Errorf("perfbench: %w", err)
		}
		files++
		size += info.Size()
	}
	return files, size, nil
}

// planChangeFrac is the share of control ticks whose plan differs from
// the tick before, pooled over one history per backend.
func planChangeFrac(hists ...[]core.PlanRecord) float64 {
	var ticks, changed int
	for _, h := range hists {
		for i := range h {
			ticks++
			if i > 0 && !samePlan(h[i-1].Limits, h[i].Limits) {
				changed++
			}
		}
	}
	return ratio(float64(changed), float64(ticks))
}

func samePlan(a, b solver.Plan) bool {
	if len(a) != len(b) {
		return false
	}
	for id, v := range a {
		w, ok := b[id]
		if !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	return true
}

func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

// timedSolver wraps the Query Scheduler's solver to time each solve and
// count the performance-model predictions it asks for. It changes no
// plan: every call goes to the wrapped solver with the same inputs.
type timedSolver struct {
	inner solver.Solver
	p     *probe
}

func (s timedSolver) countPredicts(pr solver.Problem) solver.Problem {
	classes := make([]solver.ClassSpec, len(pr.Classes))
	for i, c := range pr.Classes {
		predict := c.Predict
		c.Predict = func(limit float64) float64 {
			s.p.predictCalls++
			return predict(limit)
		}
		classes[i] = c
	}
	pr.Classes = classes
	return pr
}

// Solve implements solver.Solver.
func (s timedSolver) Solve(pr solver.Problem, start solver.Plan) solver.Plan {
	w := startWatch()
	plan := s.inner.Solve(s.countPredicts(pr), start)
	s.p.solveMS += 1000 * w.seconds()
	s.p.solveCalls++
	return plan
}

// SolveIntrospect implements solver.Introspector, which the scheduler
// prefers when the wrapped solver offers it.
func (s timedSolver) SolveIntrospect(pr solver.Problem, start solver.Plan) (solver.Plan, solver.Search) {
	in, ok := s.inner.(solver.Introspector)
	if !ok {
		return s.Solve(pr, start), solver.Search{}
	}
	w := startWatch()
	plan, search := in.SolveIntrospect(s.countPredicts(pr), start)
	s.p.solveMS += 1000 * w.seconds()
	s.p.solveCalls++
	return plan, search
}

// timedPolicy wraps the patroller's dispatch policy to time each
// release decision.
type timedPolicy struct {
	inner patroller.Policy
	p     *probe
}

// SelectReleases implements patroller.Policy.
func (t timedPolicy) SelectReleases(v *patroller.View) []engine.QueryID {
	w := startWatch()
	ids := t.inner.SelectReleases(v)
	t.p.releaseMS += 1000 * w.seconds()
	t.p.releaseCalls++
	return ids
}

// digest hashes a run's simulated outputs. Two runs of one workload and
// seed must agree on it, instrumented or not.
func digest(o *outcome) string {
	h := sha256.New()
	res := o.res
	for i, cl := range res.Classes {
		fmt.Fprintf(h, "class %d metric %s\n", cl.ID, floats(res.Metric[i]))
		fmt.Fprintf(h, "completed %v pending %v\n", res.Completed[i], res.Pending[i])
		fmt.Fprintf(h, "p95 %s\n", floats(res.RespP95[i]))
	}
	for _, line := range planDigest(res.PlanHistory) {
		fmt.Fprintln(h, line)
	}
	fmt.Fprintf(h, "patroller %+v faults %+v\n", res.PatStats, res.Faults)
	for _, line := range o.digestExtra {
		fmt.Fprintln(h, line)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// planDigest renders a plan history, one line per tick, classes in ID
// order.
func planDigest(hist []core.PlanRecord) []string {
	out := make([]string, 0, len(hist))
	for _, rec := range hist {
		ids := make([]int, 0, len(rec.Limits))
		for id := range rec.Limits {
			ids = append(ids, int(id))
		}
		sort.Ints(ids)
		var b strings.Builder
		b.WriteString("plan " + ftoa(rec.Time))
		for _, id := range ids {
			fmt.Fprintf(&b, " %d=%s", id, ftoa(rec.Limits[engine.ClassID(id)]))
		}
		out = append(out, b.String())
	}
	return out
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func floats(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = ftoa(v)
	}
	return strings.Join(parts, ",")
}
