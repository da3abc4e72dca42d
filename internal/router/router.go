// Package router is the fleet's routing tier: one routing decision per
// submitted query, computed from orthogonal, independently-evaluated
// scorers combined by weighted argmax with deterministic tie-breaking.
//
// The router sits between the client pool and the backends — it
// implements the pool's Submitter contract, so the closed-loop clients
// are oblivious to how many engines exist. Scoring reads only
// instantaneous backend signals (queue depth, load, class affinity);
// nothing about the decision depends on map iteration or wall time, so
// a fleet run is as deterministic as a single-engine one.
package router

import (
	"fmt"

	"repro/internal/backend"
	"repro/internal/engine"
)

// Scorer rates one backend for one query. Higher is better. Scores
// must be finite, non-negative, and independent of evaluation order —
// each scorer sees one (backend, query) pair at a time.
type Scorer interface {
	Name() string
	Score(b backend.Backend, q *engine.Query) float64
}

// QueueDepth prefers backends with shorter admission queues: a backend
// holding h queries scores 1/(1+h).
type QueueDepth struct{}

// Name identifies the scorer in traces.
func (QueueDepth) Name() string { return "queue" }

// Score rates b by its held-queue length.
//
//qlint:hotpath
func (QueueDepth) Score(b backend.Backend, _ *engine.Query) float64 {
	return 1 / (1 + float64(b.QueueDepth()))
}

// Load prefers lightly loaded backends: a backend at utilization u
// (demand over capacity, busier station) scores 1/(1+u). Capacity
// heterogeneity is already folded in — a slow box reaches u=1 sooner,
// so it repels load earlier than a fast one.
type Load struct{}

// Name identifies the scorer in traces.
func (Load) Name() string { return "load" }

// Score rates b by its current utilization.
//
//qlint:hotpath
func (Load) Score(b backend.Backend, _ *engine.Query) float64 {
	return 1 / (1 + b.Load())
}

// Affinity applies the backend spec's per-class routing bias: a backend
// with affinity w for the query's class scores w (1 when unspecified).
type Affinity struct{}

// Name identifies the scorer in traces.
func (Affinity) Name() string { return "affinity" }

// Score rates b by its configured bias for the query's class.
//
//qlint:hotpath
func (Affinity) Score(b backend.Backend, q *engine.Query) float64 {
	return b.Affinity(q.Class)
}

// Weighted pairs a scorer with its weight in the combined score.
type Weighted struct {
	Scorer Scorer
	Weight float64
}

// DefaultScorers is the standard policy: queue depth and load dominate,
// affinity breaks structural preferences.
func DefaultScorers() []Weighted {
	return []Weighted{
		{Scorer: QueueDepth{}, Weight: 1},
		{Scorer: Load{}, Weight: 1},
		{Scorer: Affinity{}, Weight: 0.5},
	}
}

// Decision is one routing outcome: the chosen backend and the combined
// score of every candidate, in roster order. The Scores slice is owned
// by the router and valid only during the OnRoute callback.
type Decision struct {
	// Backend is the chosen backend's 1-based ID.
	Backend int
	// Scores[i] is roster backend i's combined weighted score.
	Scores []float64
}

// Router routes every submitted query to one backend. It implements
// the workload pool's Submitter contract.
type Router struct {
	backends []backend.Backend
	scorers  []Weighted
	// pool is the query pool every backend's engine shares.
	pool *engine.QueryPool

	// routed / cost are the per-backend tallies (roster order): total
	// queries ever routed, and routed timeron cost since the fleet
	// planner last harvested it — the demand signal the hierarchical
	// budget split is proportional to.
	routed []int64
	cost   []float64

	// Health model (roster order): a down backend is excluded from
	// scoring entirely; a degraded one keeps routing (its load signal
	// already repels queries) but carries its brownout factor so the
	// fleet planner can discount its demand. migrations maps a class to
	// the 1-based backend currently being drained of that class's
	// demand (the migration-before-shedding policy).
	down       []bool
	degraded   []float64
	migrations map[engine.ClassID]int

	onRoute   []func(q *engine.Query, d Decision)
	onReroute []func(q *engine.Query, from, to int)
	//lint:ignore ckptcover reused scoring scratch; dead between Submit calls
	scratch []float64
	//lint:ignore ckptcover transient: the last Submit's choice, read only inside MarkDown's re-dispatch loop
	lastBackend int
}

// New builds a router over the backends (roster order = tie-break
// order) with the given scoring policy. Every backend's engine must draw
// from one query pool: a query acquired here may end on any of them.
func New(backends []backend.Backend, scorers []Weighted) *Router {
	if len(backends) == 0 {
		panic("router: no backends")
	}
	pool := backends[0].Engine().QueryPool()
	for _, b := range backends[1:] {
		if b.Engine().QueryPool() != pool {
			panic(fmt.Sprintf("router: backend %d does not share the roster's query pool", b.ID()))
		}
	}
	if len(scorers) == 0 {
		panic("router: no scorers")
	}
	for _, ws := range scorers {
		if ws.Scorer == nil || ws.Weight <= 0 {
			panic(fmt.Sprintf("router: invalid weighted scorer %+v", ws))
		}
	}
	return &Router{
		backends: backends,
		scorers:  scorers,
		pool:     pool,
		routed:   make([]int64, len(backends)),
		cost:     make([]float64, len(backends)),
		down:     make([]bool, len(backends)),
		degraded: make([]float64, len(backends)),
		scratch:  make([]float64, len(backends)),
	}
}

// Backends returns the roster in tie-break order.
func (r *Router) Backends() []backend.Backend { return r.backends }

// OnRoute registers a routing-decision listener (trace/decision-log
// wiring). Listeners fire after the query has been submitted to the
// chosen backend, so its engine-assigned ID is already set.
func (r *Router) OnRoute(fn func(q *engine.Query, d Decision)) {
	r.onRoute = append(r.onRoute, fn)
}

// AcquireQuery hands out a query from the roster's shared pool.
// Whichever engine ends it — completion, terminal abort, or a
// patroller retry on any backend — recycles it into the same pool, so
// the fleet reuses a handful of objects like a single engine does.
//
//qlint:hotpath
func (r *Router) AcquireQuery() *engine.Query { return r.pool.Acquire() }

// Submit scores every healthy backend for the query, routes it to the
// argmax (lowest roster index wins ties), and fires the routing
// listeners. Down backends are excluded outright; a backend being
// drained of the query's class (an active migration) is skipped unless
// it is the only healthy choice left.
//
//qlint:hotpath
func (r *Router) Submit(q *engine.Query) {
	avoid := 0
	if len(r.migrations) > 0 {
		avoid = r.migrations[q.Class]
	}
	best := -1
	for i, b := range r.backends {
		if r.down[i] {
			r.scratch[i] = 0
			continue
		}
		s := 0.0
		for _, ws := range r.scorers {
			s += ws.Weight * ws.Scorer.Score(b, q)
		}
		r.scratch[i] = s
		if i+1 == avoid {
			continue // drained for this class; scored for the log only
		}
		if best < 0 || s > r.scratch[best] {
			best = i
		}
	}
	if best < 0 && avoid > 0 && !r.down[avoid-1] {
		best = avoid - 1 // the migration source is the only healthy backend
	}
	if best < 0 {
		panic("router: no healthy backend to route to")
	}
	r.routed[best]++
	r.cost[best] += q.Cost
	r.lastBackend = r.backends[best].ID()
	r.backends[best].Engine().Submit(q)
	if len(r.onRoute) > 0 {
		d := Decision{Backend: r.backends[best].ID(), Scores: r.scratch}
		for _, fn := range r.onRoute {
			fn(q, d)
		}
	}
}

// Routed returns the total queries routed to each backend, roster
// order. The slice is a copy.
func (r *Router) Routed() []int64 {
	out := make([]int64, len(r.routed))
	copy(out, r.routed)
	return out
}

// TakeCost returns the routed timeron cost per backend since the last
// call and resets the accumulators — the fleet planner's per-interval
// demand harvest. The returned slice is owned by the caller.
func (r *Router) TakeCost() []float64 {
	out := make([]float64, len(r.cost))
	copy(out, r.cost)
	for i := range r.cost {
		r.cost[i] = 0
	}
	return out
}
