package router

import (
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/patroller"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// stub is a scriptable Backend: a real engine (Submit must land
// somewhere) with queue/load/affinity signals set by the test.
type stub struct {
	id    int
	eng   *engine.Engine
	queue int
	load  float64
	aff   map[engine.ClassID]float64
}

func newStub(id int, clock *simclock.Clock, pool *engine.QueryPool) *stub {
	return &stub{id: id, eng: engine.NewWithPool(engine.DefaultConfig(), clock, pool)}
}

func (s *stub) ID() int                { return s.id }
func (s *stub) Name() string           { return "stub" }
func (s *stub) Engine() *engine.Engine { return s.eng }
func (s *stub) QueueDepth() int        { return s.queue }
func (s *stub) Load() float64          { return s.load }
func (s *stub) Affinity(class engine.ClassID) float64 {
	if w, ok := s.aff[class]; ok {
		return w
	}
	return 1
}
func (s *stub) Evacuate() []*engine.Query { return s.eng.Evacuate() }

func testRouter(t *testing.T, scorers []Weighted) (*Router, []*stub) {
	t.Helper()
	clock := simclock.New()
	pool := new(engine.QueryPool)
	stubs := []*stub{newStub(1, clock, pool), newStub(2, clock, pool), newStub(3, clock, pool)}
	bs := make([]backend.Backend, len(stubs))
	for i, s := range stubs {
		bs[i] = s
	}
	return New(bs, scorers), stubs
}

func submitOne(r *Router, class engine.ClassID) *engine.Query {
	q := r.AcquireQuery()
	q.Class = class
	q.Cost = 100
	q.Demand = engine.Demand{Work: 1, CPURate: 0.1, IORate: 0.1}
	r.Submit(q)
	return q
}

func TestRouterPrefersShortQueue(t *testing.T) {
	r, stubs := testRouter(t, []Weighted{{Scorer: QueueDepth{}, Weight: 1}})
	stubs[0].queue = 5
	stubs[1].queue = 0
	stubs[2].queue = 5
	submitOne(r, 1)
	if got := r.Routed(); got[0] != 0 || got[1] != 1 || got[2] != 0 {
		t.Fatalf("routed = %v, want the empty-queue backend", got)
	}
}

func TestRouterPrefersLightLoad(t *testing.T) {
	r, stubs := testRouter(t, []Weighted{{Scorer: Load{}, Weight: 1}})
	stubs[0].load = 1.5
	stubs[1].load = 1.0
	stubs[2].load = 0.2
	submitOne(r, 1)
	if got := r.Routed(); got[2] != 1 {
		t.Fatalf("routed = %v, want the least-loaded backend", got)
	}
}

func TestRouterAffinityBias(t *testing.T) {
	r, stubs := testRouter(t, DefaultScorers())
	stubs[2].aff = map[engine.ClassID]float64{3: 4}
	submitOne(r, 3)
	if got := r.Routed(); got[2] != 1 {
		t.Fatalf("routed = %v, want the high-affinity backend for class 3", got)
	}
	// A class without the bias falls back to the tie-break.
	submitOne(r, 1)
	if got := r.Routed(); got[0] != 1 {
		t.Fatalf("routed = %v, want backend 1 for the unbiased class", got)
	}
}

func TestRouterTieBreaksLowestIndex(t *testing.T) {
	r, _ := testRouter(t, DefaultScorers())
	for i := 0; i < 3; i++ {
		submitOne(r, 1)
	}
	// Identical backends: every decision must tie-break to index 0 (the
	// submitted queries start executing, so load stays equal too — the
	// stubs report scripted signals, not engine state).
	if got := r.Routed(); got[0] != 3 || got[1] != 0 || got[2] != 0 {
		t.Fatalf("routed = %v, want all on the first backend", got)
	}
}

func TestRouterDecisionHookAndTallies(t *testing.T) {
	r, stubs := testRouter(t, []Weighted{{Scorer: QueueDepth{}, Weight: 1}})
	stubs[0].queue = 9
	stubs[2].queue = 9
	var decisions []Decision
	var ids []engine.QueryID
	r.OnRoute(func(q *engine.Query, d Decision) {
		decisions = append(decisions, Decision{Backend: d.Backend, Scores: append([]float64(nil), d.Scores...)})
		ids = append(ids, q.ID)
	})
	q := submitOne(r, 2)
	if len(decisions) != 1 || decisions[0].Backend != 2 {
		t.Fatalf("decisions = %+v, want one decision for backend 2", decisions)
	}
	if len(decisions[0].Scores) != 3 {
		t.Fatalf("decision carries %d scores, want 3", len(decisions[0].Scores))
	}
	if ids[0] == 0 || ids[0] != q.ID {
		t.Fatalf("hook saw query ID %d, want the engine-assigned %d", ids[0], q.ID)
	}
	cost := r.TakeCost()
	if cost[1] != 100 || cost[0] != 0 {
		t.Fatalf("TakeCost = %v, want 100 on backend 2", cost)
	}
	if again := r.TakeCost(); again[1] != 0 {
		t.Fatalf("TakeCost did not reset: %v", again)
	}
}

func TestRouterCheckpointRoundtrip(t *testing.T) {
	r, _ := testRouter(t, DefaultScorers())
	submitOne(r, 1)
	submitOne(r, 1)
	st := r.CheckpointState()

	r2, _ := testRouter(t, DefaultScorers())
	r2.RestoreCheckpoint(st)
	if got, want := r2.Routed(), r.Routed(); got[0] != want[0] {
		t.Fatalf("restored routed = %v, want %v", got, want)
	}
	if got := r2.TakeCost(); got[0] != 200 {
		t.Fatalf("restored cost = %v, want 200 on backend 1", got)
	}
}

// fleetPair builds two real backends with control stacks on one clock —
// the smallest fleet the planner can split a budget across.
func fleetPair(t *testing.T) (*simclock.Clock, *Router, []*backend.Instance) {
	t.Helper()
	clock := simclock.New()
	classes := []*workload.Class{
		{ID: 1, Name: "Class 1", Kind: workload.OLAP, Goal: workload.Goal{Metric: workload.Velocity, Target: 0.4}, Importance: 1},
	}
	qsCfg := core.DefaultConfig()
	qsCfg.SystemCostLimit = 30000
	var instances []*backend.Instance
	var bs []backend.Backend
	pool := new(engine.QueryPool)
	for i := 1; i <= 2; i++ {
		b := backend.New(i, backend.Spec{Name: "b"}, clock, pool)
		b.Pat = patroller.New(b.Eng, 1)
		qs, err := core.New(qsCfg, b.Eng, b.Pat, classes, nil)
		if err != nil {
			t.Fatal(err)
		}
		b.QS = qs
		qs.Start()
		instances = append(instances, b)
		bs = append(bs, b)
	}
	return clock, New(bs, DefaultScorers()), instances
}

func TestPlannerSplitsBudgetByDemand(t *testing.T) {
	clock, r, instances := fleetPair(t)
	p := StartPlanner(clock, r, instances, PlannerConfig{Interval: 60, Total: 30000})

	// Initial split is equal.
	for i, b := range instances {
		if got := b.QS.Config().SystemCostLimit; got != 15000 {
			t.Fatalf("backend %d initial limit = %v, want 15000", i+1, got)
		}
	}

	var plans []FleetPlan
	p.OnPlan(func(fp FleetPlan) { plans = append(plans, fp) })

	// All demand lands on backend 1.
	r.cost[0] = 10000
	clock.RunUntil(61)
	if len(plans) != 1 {
		t.Fatalf("planner fired %d times, want 1", len(plans))
	}
	l := plans[0].Limits
	if l[0] <= l[1] {
		t.Fatalf("limits %v: demand-heavy backend should get the larger share", l)
	}
	if sum := l[0] + l[1]; sum < 29999 || sum > 30001 {
		t.Fatalf("limits %v do not sum to the total budget", l)
	}
	// The floor keeps the idle backend alive.
	if l[1] < 30000*DefaultMinShare-1 {
		t.Fatalf("idle backend limit %v fell below the min-share floor", l[1])
	}
	for i, b := range instances {
		//lint:ignore floateq the limit is actuated verbatim from the plan
		if got := b.QS.Config().SystemCostLimit; got != l[i] {
			t.Fatalf("backend %d limit = %v, want actuated %v", i+1, got, l[i])
		}
	}
}

func TestPlannerCheckpointRoundtrip(t *testing.T) {
	clock, r, instances := fleetPair(t)
	p := StartPlanner(clock, r, instances, PlannerConfig{Interval: 60, Total: 30000})
	r.cost[0] = 5000
	clock.RunUntil(61)
	st := p.CheckpointState()
	if len(st.EWMA) != 2 || st.EWMA[0] == 0 {
		t.Fatalf("checkpoint EWMA %v should carry the folded demand", st.EWMA)
	}

	clock2, r2, instances2 := fleetPair(t)
	p2 := StartPlanner(clock2, r2, instances2, PlannerConfig{Interval: 60, Total: 30000})
	clock2.Restore(clock.State())
	p2.RestoreCheckpoint(st)
	got := p2.CheckpointState()
	if got.EWMA[0] != st.EWMA[0] || got.EWMA[1] != st.EWMA[1] {
		t.Fatalf("restored EWMA %v, want %v", got.EWMA, st.EWMA)
	}
}

func TestRouterFailoverRedispatchesToSurvivors(t *testing.T) {
	r, _ := testRouter(t, DefaultScorers())
	type hop struct{ from, to int }
	var hops []hop
	r.OnReroute(func(q *engine.Query, from, to int) { hops = append(hops, hop{from, to}) })
	q := submitOne(r, 1) // equal backends: tie-break routes to backend 1
	if got := r.Routed(); got[0] != 1 {
		t.Fatalf("routed = %v, want the query on backend 1", got)
	}
	moved := r.MarkDown(1)
	if moved != 1 {
		t.Fatalf("MarkDown moved %d queries, want 1", moved)
	}
	if q.Attempt != 1 {
		t.Errorf("re-dispatched query Attempt = %d, want 1 (continuation marker)", q.Attempt)
	}
	// The survivor with the lowest roster index takes the evacuee.
	if got := r.Routed(); got[1] != 1 {
		t.Errorf("routed = %v, want the evacuee on backend 2", got)
	}
	if len(hops) != 1 || hops[0] != (hop{1, 2}) {
		t.Errorf("reroute hops = %v, want one 1->2", hops)
	}
	if !r.IsDown(1) || r.HealthyCount() != 2 {
		t.Errorf("IsDown(1)=%v healthy=%d, want down with 2 survivors", r.IsDown(1), r.HealthyCount())
	}
	// Marking an already-down backend again is a no-op.
	if again := r.MarkDown(1); again != 0 {
		t.Errorf("second MarkDown moved %d queries, want 0", again)
	}
}

// The tie-break regression the failover path must preserve: a backend
// removed mid-tick leaves ties to the lowest surviving index, and a
// rejoined backend immediately wins ties again.
func TestRouterRemovalAndRejoinTieBreak(t *testing.T) {
	r, _ := testRouter(t, DefaultScorers())
	r.MarkDown(1)
	submitOne(r, 1)
	if got := r.Routed(); got[1] != 1 || got[0] != 0 {
		t.Fatalf("routed = %v, want ties on backend 2 while 1 is down", got)
	}
	r.MarkUp(1)
	submitOne(r, 1)
	if got := r.Routed(); got[0] != 1 {
		t.Fatalf("routed = %v, want the rejoined backend 1 to win ties again", got)
	}
}

func TestRouterLastHealthyBackendDownPanics(t *testing.T) {
	r, _ := testRouter(t, DefaultScorers())
	r.MarkDown(1)
	r.MarkDown(2)
	defer func() {
		if recover() == nil {
			t.Fatal("marking the last healthy backend down did not panic")
		}
	}()
	r.MarkDown(3)
}

func TestRouterMigrationDrainsOnlyTheClass(t *testing.T) {
	r, _ := testRouter(t, DefaultScorers())
	r.SetMigration(1, 1)
	submitOne(r, 1)
	submitOne(r, 2)
	got := r.Routed()
	if got[1] != 1 {
		t.Errorf("routed = %v, want the drained class on backend 2", got)
	}
	if got[0] != 1 {
		t.Errorf("routed = %v, want the unmigrated class still on backend 1", got)
	}
	r.ClearMigration(1)
	submitOne(r, 1)
	if got := r.Routed(); got[0] != 2 {
		t.Errorf("routed = %v, want backend 1 to win ties again after the drain ends", got)
	}
}

func TestRouterMigrationSourceIsLastResort(t *testing.T) {
	r, _ := testRouter(t, DefaultScorers())
	r.MarkDown(2)
	r.MarkDown(3)
	r.SetMigration(1, 1)
	submitOne(r, 1)
	if got := r.Routed(); got[0] != 1 {
		t.Fatalf("routed = %v, want the migration source used when it is the only healthy backend", got)
	}
}

func TestRouterDegradedFactorBounds(t *testing.T) {
	r, _ := testRouter(t, DefaultScorers())
	r.MarkDegraded(2, 0.25)
	if got := r.DegradedFactor(2); got != 0.25 {
		t.Fatalf("DegradedFactor = %v, want 0.25", got)
	}
	// A degraded backend still routes (only the planner discounts it).
	r.MarkDown(1)
	submitOne(r, 1)
	if got := r.Routed(); got[1] != 1 {
		t.Errorf("routed = %v, want the degraded backend still accepting queries", got)
	}
	r.ClearDegraded(2)
	if got := r.DegradedFactor(2); got != 0 {
		t.Fatalf("DegradedFactor after clear = %v, want 0", got)
	}
	for _, bad := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() { recover() }()
			r.MarkDegraded(2, bad)
			t.Errorf("MarkDegraded(%v) did not panic", bad)
		}()
	}
}
