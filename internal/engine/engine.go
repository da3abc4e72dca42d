// Package engine is a flow-level discrete-event simulation of a database
// server — the stand-in for the paper's IBM DB2 UDB 8.2 instance on an
// xSeries 240 (dual 1 GHz CPUs, 17-disk SCSI array).
//
// The model is deliberately minimal but preserves the three properties the
// paper's experiments depend on:
//
//  1. Queries have widely varying resource demands (set by the optimizer's
//     per-plan CPU/I/O service demands).
//  2. OLAP queries are I/O-intensive while OLTP queries are CPU-intensive,
//     so the two workload types contend differently.
//  3. Throughput saturates as concurrent load grows past a knee — which is
//     what makes a "system cost limit" meaningful.
//
// Each executing query progresses at a rate set by processor sharing over
// two stations (CPU and I/O) plus a multiprogramming-level contention
// overhead. Time is virtual (see simclock), so the paper's 24-hour runs
// complete in well under a second.
package engine

import (
	"fmt"
	"math"

	"repro/internal/simclock"
)

// QueryID uniquely identifies a query within one engine.
type QueryID uint64

// ClientID identifies a submitting client connection.
type ClientID int

// ClassID identifies a service class (assigned by the classifier).
type ClassID int

// State is a query's lifecycle state.
type State int

// Query lifecycle states.
const (
	StateNew State = iota
	StateQueued
	StateExecuting
	StateDone
	// StateFailed marks a query aborted mid-execution (fault injection or
	// a controller timeout). Failed queries carry a DoneTime like completed
	// ones but never write a snapshot record.
	StateFailed
)

func (s State) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateQueued:
		return "queued"
	case StateExecuting:
		return "executing"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Demand is a query's resource requirement.
//
// Work is the execution time, in seconds, when the query runs alone on an
// idle system. While the query makes progress at rate r (r = 1 when alone),
// it consumes r·CPURate CPU-units and r·IORate I/O-units per second; rates
// above 1 model intra-query parallelism (multiple subagents / prefetchers).
type Demand struct {
	Work    float64
	CPURate float64
	IORate  float64
}

// Validate reports whether the demand is executable.
//
//qlint:coldpath allocates only on the invariant-violation error returns; valid demands never reach them
func (d Demand) Validate() error {
	if d.Work <= 0 || math.IsNaN(d.Work) || math.IsInf(d.Work, 0) {
		return fmt.Errorf("engine: non-positive work %v", d.Work)
	}
	if d.CPURate < 0 || d.IORate < 0 {
		return fmt.Errorf("engine: negative resource rate (%v cpu, %v io)", d.CPURate, d.IORate)
	}
	if d.CPURate == 0 && d.IORate == 0 {
		return fmt.Errorf("engine: demand consumes no resources")
	}
	return nil
}

// CPUSeconds returns the total CPU service demand of the query.
func (d Demand) CPUSeconds() float64 { return d.Work * d.CPURate }

// IOSeconds returns the total I/O service demand of the query.
func (d Demand) IOSeconds() float64 { return d.Work * d.IORate }

// Query is one statement moving through the engine. Fields through Demand
// are set by the submitter; the engine fills in the timestamps.
type Query struct {
	ID       QueryID
	Client   ClientID
	Class    ClassID
	Template string  // workload template name, for reporting
	Cost     float64 // optimizer's timeron estimate (what controllers see)
	Demand   Demand
	// Attempt is 0 for a fresh submission and counts up on each retry
	// resubmission after an abort. Monitors and collectors skip
	// Attempt > 0 submissions so a retried query is not double-counted
	// as a new arrival.
	Attempt int

	State      State
	SubmitTime simclock.Time // when the client issued the statement
	StartTime  simclock.Time // when the engine began executing it
	DoneTime   simclock.Time // when execution finished

	remaining float64 // work not yet performed
	rate      float64 // current progress rate
	index     int     // position in the active slice, -1 when inactive
	pooled    bool    // owned by a QueryPool (see AcquireQuery)
}

// ResponseTime returns end-to-end latency (queueing + execution). Valid
// once the query is done.
func (q *Query) ResponseTime() float64 { return q.DoneTime - q.SubmitTime }

// ExecutionTime returns time spent executing inside the engine. Valid once
// the query is done.
func (q *Query) ExecutionTime() float64 { return q.DoneTime - q.StartTime }

// Velocity returns ExecutionTime/ResponseTime — the paper's query velocity
// metric, in (0, 1]. Valid once the query is done.
func (q *Query) Velocity() float64 {
	rt := q.ResponseTime()
	if rt <= 0 {
		return 1
	}
	return q.ExecutionTime() / rt
}

// Interceptor is the hook a workload controller (Query Patroller or the
// Query Scheduler's dispatcher) installs to perform admission control.
// Intercept is called at submit time; returning true means the interceptor
// holds the query (it must call Engine.Start later), false means the engine
// starts it immediately.
type Interceptor interface {
	Intercept(q *Query) (hold bool)
}

// Listener receives query completion notifications. Completion callbacks
// may submit or start new queries.
type Listener func(q *Query)

// Config sets the engine's resource model.
type Config struct {
	// CPUCapacity is the number of CPUs (the paper's box had 2).
	CPUCapacity float64
	// IOCapacity is the effective number of parallel I/O streams the disk
	// array sustains.
	IOCapacity float64
	// ContentionAlpha scales the multiprogramming overhead: every active
	// query runs at 1/(1+alpha·(n-1)) of its contention-free rate. This
	// is what bends the throughput curve down past saturation.
	ContentionAlpha float64
}

// DefaultConfig approximates the paper's testbed.
func DefaultConfig() Config {
	return Config{CPUCapacity: 2, IOCapacity: 14, ContentionAlpha: 0.006}
}

// Snapshot is what the snapshot monitor records per client: the execution
// and response time of the most recently finished statement. This mirrors
// the DB2 snapshot monitor interface the paper uses to observe the OLTP
// class without intercepting it.
type Snapshot struct {
	Client    ClientID
	Class     ClassID
	ExecTime  float64
	RespTime  float64
	DoneAt    simclock.Time
	QueryCost float64
}

// Stats aggregates engine-level counters for calibration and tests.
type Stats struct {
	Submitted      uint64
	Started        uint64
	Completed      uint64
	Aborted        uint64
	Evacuated      uint64 // pulled off mid-execution for failover re-dispatch
	CPUSecondsUsed float64
	IOSecondsUsed  float64
	BusyTime       float64 // virtual seconds with at least one active query
}

// Engine is the simulated DBMS.
type Engine struct {
	cfg   Config
	clock *simclock.Clock
	//lint:ignore ckptcover wiring backref installed by SetInterceptor during construction
	interceptor     Interceptor
	listeners       []Listener
	submitListeners []Listener
	startListeners  []Listener
	abortListeners  []Listener
	abortHandler    func(*Query) bool

	nextID       QueryID
	active       []*Query
	lastUpdate   simclock.Time
	pendingEvt   simclock.EventID
	hasEvt       bool
	completionFn simclock.EventFunc // bound once; reschedule allocates no closure
	speed        float64            // global progress multiplier (1 = nominal, 0 = stalled)

	// Snapshot-monitor records live in a dense slice indexed by client id;
	// clients with huge or negative ids (hand-built tests) spill to a map.
	snaps    []Snapshot
	snapsSet []bool
	snapsFar map[ClientID]Snapshot

	stats Stats

	// weights, when non-nil, turns both stations into weighted fair
	// sharing across service classes (see SetClassWeights).
	weights map[ClassID]float64

	// pool is the freelist AcquireQuery draws from and Recycle refills,
	// shared by every engine of a rig. Its warm-up state is never part
	// of a snapshot: restored queries are rebuilt unpooled.
	pool *QueryPool

	// Hot-path scratch: reused across events so steady-state simulation
	// performs no per-event allocation.
	//lint:ignore ckptcover per-tick scratch; dead between advanceTo calls
	doneScratch []*Query // completions harvested by advanceTo
	//lint:ignore ckptcover per-reschedule scratch; dead between recomputeRates calls
	cpuScratch []classScale // per-class station shares (stationScales)
	//lint:ignore ckptcover per-reschedule scratch; dead between recomputeRates calls
	ioScratch []classScale

	// deferResched is set while advanceTo runs completion listeners:
	// reschedule then arms a placeholder (preserving clock sequence
	// numbers) instead of recomputing rates, because the cascade's
	// caller always reschedules once more before handing control back
	// to the clock.
	//lint:ignore ckptcover event-loop-internal flag; never set when the engine is quiescent at a checkpoint
	deferResched bool
}

// QueryPool is the freelist of pooled queries. A rig builds one and
// every engine of its roster shares it: a query acquired for one backend
// may complete, abort, or be retried on another, and whichever engine
// ends it recycles it into the same list. A single engine is a fleet of
// one with a pool of one. The list is a plain LIFO slice, so recycle
// order is event order and every object's reuse is deterministic. The
// zero value is an empty pool.
type QueryPool struct {
	free []*Query
}

// Acquire returns a zeroed query from the freelist, or a fresh one when
// the list is empty.
//
//qlint:hotpath
func (p *QueryPool) Acquire() *Query {
	if n := len(p.free) - 1; n >= 0 {
		q := p.free[n]
		p.free[n] = nil
		p.free = p.free[:n]
		return q
	}
	//lint:ignore hotalloc freelist growth: allocates only while the query pool warms up to peak concurrency
	return &Query{pooled: true}
}

// Recycle returns a terminal pooled query to the freelist, zeroing it.
// Non-pooled queries are ignored, so it is always safe to call on a
// query whose provenance is unknown. Recycling a live (queued or
// executing) query panics: that would corrupt an active set.
//
//qlint:hotpath
func (p *QueryPool) Recycle(q *Query) {
	if q == nil || !q.pooled {
		return
	}
	if q.State == StateQueued || q.State == StateExecuting {
		panic(fmt.Sprintf("engine: recycle of live query %d in state %v", q.ID, q.State))
	}
	*q = Query{pooled: true, index: -1}
	p.free = append(p.free, q)
}

// New returns an engine on the given clock with a query pool of its
// own. Config values must be positive (ContentionAlpha may be zero).
func New(cfg Config, clock *simclock.Clock) *Engine {
	return NewWithPool(cfg, clock, new(QueryPool))
}

// NewWithPool returns an engine that draws its queries from, and recycles
// them into, pool — the rig-wide pool every engine of a roster shares.
func NewWithPool(cfg Config, clock *simclock.Clock, pool *QueryPool) *Engine {
	if clock == nil {
		panic("engine: nil clock")
	}
	if pool == nil {
		panic("engine: nil query pool")
	}
	if cfg.CPUCapacity <= 0 || cfg.IOCapacity <= 0 || cfg.ContentionAlpha < 0 {
		panic(fmt.Sprintf("engine: invalid config %+v", cfg))
	}
	e := &Engine{
		cfg:   cfg,
		clock: clock,
		speed: 1,
		pool:  pool,
	}
	e.completionFn = e.onCompletionEvent
	return e
}

// QueryPool returns the pool the engine draws from and recycles into.
func (e *Engine) QueryPool() *QueryPool { return e.pool }

// AcquireQuery returns a zeroed query from the engine's pool. Pooled
// queries are recycled by whichever engine of the pool ends them, once
// they reach a terminal state and every completion listener has run;
// callers must not retain them past their OnDone/OnAbort callback.
// Queries built with a plain &Query{} are never recycled, so existing
// callers keep their ownership semantics.
//
//qlint:hotpath
func (e *Engine) AcquireQuery() *Query { return e.pool.Acquire() }

// Recycle returns a terminal pooled query to the engine's pool (see
// QueryPool.Recycle).
//
//qlint:hotpath
func (e *Engine) Recycle(q *Query) { e.pool.Recycle(q) }

// Clock returns the engine's simulation clock.
func (e *Engine) Clock() *simclock.Clock { return e.clock }

// Config returns the engine's resource configuration.
func (e *Engine) Config() Config { return e.cfg }

// SetInterceptor installs the admission-control hook. Passing nil removes
// it (all queries start immediately).
func (e *Engine) SetInterceptor(i Interceptor) { e.interceptor = i }

// OnDone registers a completion listener. Listeners run in registration
// order after the finished query's bookkeeping is complete.
func (e *Engine) OnDone(l Listener) {
	if l == nil {
		panic("engine: nil listener")
	}
	e.listeners = append(e.listeners, l)
}

// OnSubmit registers a submission listener, called for every query as it
// arrives (before interception). Workload-detection monitors use this to
// observe classes that are not intercepted.
func (e *Engine) OnSubmit(l Listener) {
	if l == nil {
		panic("engine: nil listener")
	}
	e.submitListeners = append(e.submitListeners, l)
}

// OnStart registers an execution-start listener, called when a query
// transitions to StateExecuting — immediately at submit for unintercepted
// queries, at release for held ones. The trace layer uses this so query
// lifecycle spans carry a real start edge.
func (e *Engine) OnStart(l Listener) {
	if l == nil {
		panic("engine: nil listener")
	}
	e.startListeners = append(e.startListeners, l)
}

// OnAbort registers an abort listener, called whenever an executing query
// is killed via Abort — before the terminal-completion decision, so trace
// layers see every abort whether or not it is later retried.
func (e *Engine) OnAbort(l Listener) {
	if l == nil {
		panic("engine: nil listener")
	}
	e.abortListeners = append(e.abortListeners, l)
}

// SetAbortHandler installs the single claim slot for aborted queries. The
// handler returns true to claim the abort (it will resubmit the query
// itself — a retry — so the regular OnDone listeners do NOT fire) or
// false to let the abort become a terminal failure (OnDone listeners fire
// with the query in StateFailed). Passing nil removes the handler.
func (e *Engine) SetAbortHandler(h func(*Query) bool) { e.abortHandler = h }

// Abort kills an executing query at the current virtual time. The query
// moves to StateFailed with DoneTime set; abort listeners always fire,
// then either the abort handler claims it for retry or the OnDone
// listeners see the terminal failure. Aborting a query that is not
// executing on this engine (already done, still queued, aborted by a
// racing event, or recycled through the shared pool into a query that
// runs on another engine, possibly under the same ID) returns false and
// does nothing.
//
//qlint:hotpath
func (e *Engine) Abort(q *Query) bool {
	if !e.owns(q) {
		return false
	}
	e.advanceTo(e.clock.Now())
	if q.State != StateExecuting {
		return false // completed at exactly this instant
	}
	e.remove(q)
	q.State = StateFailed
	q.DoneTime = e.clock.Now()
	q.remaining = 0
	e.stats.Aborted++
	e.reschedule()
	for _, l := range e.abortListeners {
		l(q)
	}
	if e.abortHandler != nil && e.abortHandler(q) {
		return true // claimed for retry; the claimant recycles it later
	}
	for _, l := range e.listeners {
		l(q)
	}
	if q.pooled {
		e.Recycle(q)
	}
	return true
}

// Evacuate pulls every executing query off the engine for re-dispatch
// elsewhere — the failover path when this engine's backend dies. Each
// query is returned to StateNew with its demand intact and its partial
// progress discarded (the surviving backend re-executes from scratch,
// like a real failover replaying lost in-flight work). The result is
// sorted by query ID ascending, so the re-dispatch order — and with it
// every downstream event sequence number — is deterministic. No done,
// abort, or completion listeners fire: evacuation is not a terminal
// outcome for the query, only for its placement.
func (e *Engine) Evacuate() []*Query {
	e.advanceTo(e.clock.Now())
	if len(e.active) == 0 {
		return nil
	}
	out := make([]*Query, len(e.active))
	copy(out, e.active)
	// Insertion sort by ID: the active slice is small and this avoids a
	// sort.Slice closure allocation on a path tests exercise heavily.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].ID < out[j-1].ID; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	for _, q := range out {
		e.remove(q)
		q.State = StateNew
		q.remaining = 0
		q.rate = 0
		e.stats.Evacuated++
	}
	e.reschedule()
	return out
}

// Reclaim returns a non-executing query to StateNew so it can be
// re-submitted elsewhere — the interceptor-side half of failover
// evacuation. Accepts queued queries (held by an interceptor) and
// failed ones (claimed for retry); executing queries must go through
// Evacuate instead.
func (e *Engine) Reclaim(q *Query) {
	if q.State != StateQueued && q.State != StateFailed {
		panic(fmt.Sprintf("engine: reclaim of query %d in state %v", q.ID, q.State))
	}
	q.State = StateNew
	q.remaining = 0
	q.rate = 0
}

// SetSpeed scales every active query's progress rate by f — the
// fault-injection hook for engine slowdown (0 < f < 1) and stall (f = 0)
// windows. Speed 1 restores nominal progress. During a stall no
// completion event is armed; raising the speed re-arms it.
func (e *Engine) SetSpeed(f float64) {
	if f < 0 || math.IsNaN(f) || math.IsInf(f, 0) {
		panic(fmt.Sprintf("engine: invalid speed %v", f))
	}
	e.advanceTo(e.clock.Now())
	e.speed = f
	e.reschedule()
}

// Speed returns the current global progress multiplier.
func (e *Engine) Speed() float64 { return e.speed }

// Submit hands a query to the engine at the current virtual time. The
// interceptor, if any, may hold it; otherwise execution starts immediately.
//
//qlint:hotpath
func (e *Engine) Submit(q *Query) {
	if q == nil {
		panic("engine: nil query")
	}
	if err := q.Demand.Validate(); err != nil {
		panic(err)
	}
	if q.State != StateNew {
		panic(fmt.Sprintf("engine: submit of query in state %v", q.State))
	}
	e.nextID++
	q.ID = e.nextID
	q.SubmitTime = e.clock.Now()
	q.index = -1
	e.stats.Submitted++
	for _, l := range e.submitListeners {
		l(q)
	}
	if e.interceptor != nil && e.interceptor.Intercept(q) {
		q.State = StateQueued
		return
	}
	e.Start(q)
}

// Start begins executing a submitted query. Interceptors call this to
// release a held query; Submit calls it directly when nothing holds the
// query.
//
//qlint:hotpath
func (e *Engine) Start(q *Query) {
	if q.State != StateNew && q.State != StateQueued {
		panic(fmt.Sprintf("engine: start of query %d in state %v", q.ID, q.State))
	}
	if err := q.Demand.Validate(); err != nil {
		panic(err) // interceptors may rewrite demand; re-check at start
	}
	q.remaining = q.Demand.Work
	e.advanceTo(e.clock.Now())
	q.State = StateExecuting
	q.StartTime = e.clock.Now()
	q.index = len(e.active)
	e.active = append(e.active, q)
	e.stats.Started++
	e.reschedule()
	for _, l := range e.startListeners {
		l(q)
	}
}

// Active returns the number of currently executing queries.
func (e *Engine) Active() int { return len(e.active) }

// ActiveQueries returns the currently executing queries. The slice is
// owned by the engine; callers must not mutate it.
func (e *Engine) ActiveQueries() []*Query { return e.active }

// ActiveCostByClass sums the timeron cost of executing queries per class —
// what a controller reads to enforce class cost limits.
func (e *Engine) ActiveCostByClass() map[ClassID]float64 {
	m := make(map[ClassID]float64)
	for _, q := range e.active {
		m[q.Class] += q.Cost
	}
	return m
}

// snapDenseLimit bounds the dense snapshot table: pool-assigned client
// ids are small and sequential, so virtually all records land here; ids
// outside [0, snapDenseLimit) fall back to the spill map.
const snapDenseLimit = 1 << 22

func (e *Engine) recordSnapshot(s Snapshot) {
	id := s.Client
	if id >= 0 && id < snapDenseLimit {
		for len(e.snaps) <= int(id) {
			e.snaps = append(e.snaps, Snapshot{})
			e.snapsSet = append(e.snapsSet, false)
		}
		e.snaps[id] = s
		e.snapsSet[id] = true
		return
	}
	if e.snapsFar == nil {
		//lint:ignore hotalloc one-time lazy init of the far-client spill map
		e.snapsFar = make(map[ClientID]Snapshot)
	}
	e.snapsFar[id] = s
}

// LastFinished returns the snapshot-monitor record for a client: execution
// and response time of its most recently finished statement.
func (e *Engine) LastFinished(c ClientID) (Snapshot, bool) {
	if c >= 0 && int(c) < len(e.snaps) {
		return e.snaps[c], e.snapsSet[c]
	}
	s, ok := e.snapsFar[c]
	return s, ok
}

// Stats returns cumulative engine counters.
func (e *Engine) Stats() Stats { return e.stats }

// Utilization returns the current requested load on each station relative
// to capacity (may exceed 1 when oversubscribed).
func (e *Engine) Utilization() (cpu, io float64) {
	var cpuLoad, ioLoad float64
	for _, q := range e.active {
		cpuLoad += q.Demand.CPURate
		ioLoad += q.Demand.IORate
	}
	return cpuLoad / e.cfg.CPUCapacity, ioLoad / e.cfg.IOCapacity
}

// advanceTo applies progress to all active queries for the interval since
// the last update, harvesting any completions.
func (e *Engine) advanceTo(now simclock.Time) {
	dt := now - e.lastUpdate
	if dt < 0 {
		panic(fmt.Sprintf("engine: time moved backwards (%v -> %v)", e.lastUpdate, now))
	}
	e.lastUpdate = now
	if dt == 0 || len(e.active) == 0 {
		return
	}
	e.stats.BusyTime += dt
	// done reuses engine-owned scratch: nested advanceTo calls from
	// completion listeners always see dt == 0 and return before this
	// point, so the buffer is never aliased.
	done := e.doneScratch[:0]
	for _, q := range e.active {
		progress := q.rate * dt
		if progress > q.remaining {
			progress = q.remaining
		}
		q.remaining -= progress
		e.stats.CPUSecondsUsed += progress * q.Demand.CPURate
		e.stats.IOSecondsUsed += progress * q.Demand.IORate
		if q.remaining <= completionEpsilon*q.Demand.Work {
			done = append(done, q)
		}
	}
	for _, q := range done {
		e.remove(q)
		q.State = StateDone
		q.DoneTime = now
		q.remaining = 0
		e.stats.Completed++
		e.recordSnapshot(Snapshot{
			Client:    q.Client,
			Class:     q.Class,
			ExecTime:  q.ExecutionTime(),
			RespTime:  q.ResponseTime(),
			DoneAt:    now,
			QueryCost: q.Cost,
		})
	}
	// Notify after all bookkeeping so listeners observe a consistent
	// engine; listeners may start queries, which re-enters advanceTo with
	// dt == 0 and then reschedules. Pooled queries return to the freelist
	// once their listeners have run (explicit free on terminal state).
	//
	// Reschedules triggered from inside this loop (every listener-driven
	// Submit/Start/Abort ends in one) are deferred to placeholders: only
	// the caller's trailing reschedule recomputes rates, so a completion
	// cascade costs one O(active) rate pass instead of one per query it
	// starts. Every advanceTo caller reschedules before returning to the
	// clock, so a placeholder never survives to fire.
	e.deferResched = true
	for i, q := range done {
		for _, l := range e.listeners {
			l(q)
		}
		done[i] = nil
		if q.pooled {
			e.Recycle(q)
		}
	}
	e.deferResched = false
	e.doneScratch = done[:0]
}

// completionEpsilon absorbs floating-point residue when a completion event
// fires at the exact computed finish time.
const completionEpsilon = 1e-9

// owns reports, in O(1), whether q is executing on this engine: its
// active-slice index must point back at it.
func (e *Engine) owns(q *Query) bool {
	return q != nil && q.State == StateExecuting &&
		q.index >= 0 && q.index < len(e.active) && e.active[q.index] == q
}

// remove takes q out of the active set in O(1).
func (e *Engine) remove(q *Query) {
	i := q.index
	last := len(e.active) - 1
	e.active[i] = e.active[last]
	e.active[i].index = i
	e.active[last] = nil
	e.active = e.active[:last]
	q.index = -1
}

// SetClassWeights switches both stations to weighted fair sharing across
// service classes: under contention, each class with runnable work
// receives station capacity in proportion to its weight, with any share a
// class cannot use redistributed to the others (work-conserving).
// Classes absent from the map get weight 1; passing nil restores plain
// per-query processor sharing.
//
// This is the "control mechanism inside the DBMS itself" the paper's
// future-work section calls for (and what DB2 later shipped as WLM):
// it shifts resources between classes without intercepting any query, so
// it can manage sub-second OLTP work that admission control cannot touch.
func (e *Engine) SetClassWeights(w map[ClassID]float64) {
	for c, v := range w {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			panic(fmt.Sprintf("engine: invalid weight %v for class %d", v, c))
		}
	}
	e.advanceTo(e.clock.Now())
	if w == nil {
		e.weights = nil
	} else {
		e.weights = make(map[ClassID]float64, len(w))
		for c, v := range w {
			e.weights[c] = v
		}
	}
	e.reschedule()
}

// ClassWeight returns the effective sharing weight of a class.
func (e *Engine) ClassWeight(c ClassID) float64 {
	if e.weights == nil {
		return 1
	}
	if w, ok := e.weights[c]; ok {
		return w
	}
	return 1
}

// recomputeRates assigns each active query its progress rate under the
// current mix: processor sharing per station (optionally weighted by
// class) plus the MPL contention overhead. A query is limited by the more
// congested of the stations it uses, and can never progress faster than 1
// (its stand-alone speed). It returns the shortest remaining/rate
// horizon over the active set (+Inf when idle or stalled), computed in
// the same pass, so reschedule can arm the next completion event without
// walking the active set again.
func (e *Engine) recomputeRates() float64 {
	next := math.Inf(1)
	n := len(e.active)
	if n == 0 {
		return next
	}
	overhead := 1 + e.cfg.ContentionAlpha*float64(n-1)
	if e.weights == nil {
		// Plain processor sharing: both stations give every class the
		// same scale, so the per-class water-filling machinery is
		// bypassed. The totals accumulate in active-slice order —
		// exactly the order stationScales sums them — so every float
		// (and therefore every event time) matches the weighted path's
		// bookkeeping bit for bit.
		var cpuTotal, ioTotal float64
		for _, q := range e.active {
			cpuTotal += q.Demand.CPURate
			ioTotal += q.Demand.IORate
		}
		cpuScale, ioScale := 1.0, 1.0
		if cpuTotal > e.cfg.CPUCapacity {
			cpuScale = e.cfg.CPUCapacity / cpuTotal
		}
		if ioTotal > e.cfg.IOCapacity {
			ioScale = e.cfg.IOCapacity / ioTotal
		}
		for _, q := range e.active {
			r := 1.0
			if q.Demand.CPURate > 0 && cpuScale < r {
				r = cpuScale
			}
			if q.Demand.IORate > 0 && ioScale < r {
				r = ioScale
			}
			q.rate = r * e.speed / overhead
			if q.rate <= 0 {
				if e.speed > 0 {
					panic(fmt.Sprintf("engine: query %d has non-positive rate", q.ID))
				}
				continue
			}
			if t := q.remaining / q.rate; t < next {
				next = t
			}
		}
		return next
	}
	e.cpuScratch = e.stationScales(e.cpuScratch[:0], demandCPURate, e.cfg.CPUCapacity)
	e.ioScratch = e.stationScales(e.ioScratch[:0], demandIORate, e.cfg.IOCapacity)
	for _, q := range e.active {
		r := 1.0
		if q.Demand.CPURate > 0 {
			if s := scaleFor(e.cpuScratch, q.Class); s < r {
				r = s
			}
		}
		if q.Demand.IORate > 0 {
			if s := scaleFor(e.ioScratch, q.Class); s < r {
				r = s
			}
		}
		q.rate = r * e.speed / overhead
		if q.rate <= 0 {
			if e.speed > 0 {
				panic(fmt.Sprintf("engine: query %d has non-positive rate", q.ID))
			}
			continue
		}
		if t := q.remaining / q.rate; t < next {
			next = t
		}
	}
	return next
}

// classScale is one per-class accumulator in the reusable station-share
// scratch buffers. The class count is tiny (the paper runs three), so a
// linear scan beats any map.
type classScale struct {
	id     ClassID
	demand float64
	scale  float64
	done   bool
	mark   bool
}

func scaleFor(buf []classScale, c ClassID) float64 {
	for i := range buf {
		if buf[i].id == c {
			return buf[i].scale
		}
	}
	return 1
}

// demandCPURate and demandIORate are the station accessors passed to
// stationScales. Package-level funcs rather than literals so the hot
// reschedule path does not box a fresh closure per call.
func demandCPURate(d Demand) float64 { return d.CPURate }
func demandIORate(d Demand) float64  { return d.IORate }

// stationScales computes, per class, the fraction of its requested rate a
// station can deliver, accumulating into the caller-provided scratch
// buffer (passed sliced to length 0, returned for reuse). Without class
// weights every class sees the same scale (plain processor sharing). With
// weights, capacity is divided by weighted max-min fairness: satisfied
// classes keep their full demand and the remainder is re-divided among
// the still-contending classes.
//
// Per-class demand accumulates in active-slice order and the water
// filling iterates classes in sorted-id order — exactly the orders the
// previous map-based implementation used — so every floating-point sum
// (and therefore every event time) is bit-identical to the seed path.
func (e *Engine) stationScales(buf []classScale, rate func(Demand) float64, capacity float64) []classScale {
	var total float64
	for _, q := range e.active {
		r := rate(q.Demand)
		idx := -1
		for i := range buf {
			if buf[i].id == q.Class {
				idx = i
				break
			}
		}
		if idx < 0 {
			buf = append(buf, classScale{id: q.Class})
			idx = len(buf) - 1
		}
		buf[idx].demand += r
		total += r
	}
	if total <= capacity {
		for i := range buf {
			buf[i].scale = 1
		}
		return buf
	}
	if e.weights == nil {
		s := capacity / total
		for i := range buf {
			buf[i].scale = s
		}
		return buf
	}
	// Weighted water-filling over the contending classes, iterated in
	// sorted class order: any other order would perturb the
	// floating-point accumulation (and therefore event times) from run
	// to run, breaking reproducibility. Class ids are unique, so this
	// insertion sort orders buf exactly as sort.Slice would — without
	// the per-call closure and interface boxing.
	for i := 1; i < len(buf); i++ {
		for j := i; j > 0 && buf[j].id < buf[j-1].id; j-- {
			buf[j], buf[j-1] = buf[j-1], buf[j]
		}
	}
	remaining := capacity
	npending := 0
	for i := range buf {
		if buf[i].demand > 0 {
			buf[i].done = false
			npending++
		} else {
			buf[i].scale = 1
			buf[i].done = true
		}
	}
	for npending > 0 {
		var weightSum float64
		for i := range buf {
			if !buf[i].done {
				weightSum += e.ClassWeight(buf[i].id)
			}
		}
		// Find classes whose fair share covers their whole demand. The
		// pass is decided against a fixed remaining/weightSum and only
		// then applied.
		anyDone := false
		for i := range buf {
			buf[i].mark = !buf[i].done && remaining*e.ClassWeight(buf[i].id)/weightSum >= buf[i].demand
			anyDone = anyDone || buf[i].mark
		}
		if anyDone {
			for i := range buf {
				if buf[i].mark {
					buf[i].scale = 1
					remaining -= buf[i].demand
					buf[i].done = true
					npending--
				}
			}
			continue
		}
		// Everyone left is constrained: split the remainder by weight.
		for i := range buf {
			if !buf[i].done {
				buf[i].scale = remaining * e.ClassWeight(buf[i].id) / weightSum / buf[i].demand
				buf[i].done = true
				npending--
			}
		}
	}
	return buf
}

// reschedule recomputes rates and re-arms the next-completion event.
func (e *Engine) reschedule() {
	if e.hasEvt {
		e.clock.Cancel(e.pendingEvt)
		e.hasEvt = false
	}
	if e.deferResched {
		// Mid-cascade (inside advanceTo's completion-listener loop): the
		// caller that entered advanceTo always reschedules again before
		// the clock pops another event, so recomputing rates here is
		// wasted work and the armed time is irrelevant — the trailing
		// reschedule cancels it. A placeholder is armed anyway, under
		// exactly the eager path's conditions, because every
		// AfterCancellable call consumes a clock sequence number and
		// sequence numbers decide FIFO tie-breaking: skipping the call
		// would shift every later event's tiebreak order.
		if len(e.active) == 0 || e.speed <= 0 {
			return
		}
		e.pendingEvt = e.clock.AfterCancellable(minEventStep, e.completionFn)
		e.hasEvt = true
		return
	}
	next := e.recomputeRates()
	if len(e.active) == 0 {
		return
	}
	if e.speed <= 0 {
		return // stalled: no progress, so no completion event to arm
	}
	// Guard against a zero-length step looping forever on fp residue.
	if next < minEventStep {
		next = minEventStep
	}
	e.pendingEvt = e.clock.AfterCancellable(next, e.completionFn)
	e.hasEvt = true
}

const minEventStep = 1e-9

// onCompletionEvent is the engine's event-loop tick: every completion,
// rate recomputation, and reschedule in a steady-state run funnels
// through here.
//
//qlint:hotpath
func (e *Engine) onCompletionEvent() {
	e.hasEvt = false
	e.advanceTo(e.clock.Now())
	e.reschedule()
}

// Quiesce advances internal accounting to the current time without firing
// events — used by monitors that read utilization mid-interval.
func (e *Engine) Quiesce() {
	e.advanceTo(e.clock.Now())
	e.reschedule()
}
