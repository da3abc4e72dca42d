// Package fault is a deterministic, seeded fault-plan subsystem for the
// simulated testbed: it injects query aborts (per-class base rates plus
// scheduled bursts), optimizer cost misestimation (actual demand differs
// from the timeron estimate by a per-class multiplier), engine slowdown
// and stall windows, and monitor dropouts (snapshot polls and whole
// harvests). The control loop's robustness features — per-query timeout,
// bounded retry with refreshed cost, plan-hold degradation — are
// evaluated against exactly these faults (see experiment.RunFaultMatrix).
//
// Everything is driven by one Plan and one owned RNG stream, so a run
// with a given (workload seed, fault plan) pair is bit-reproducible: the
// injector draws only at deterministic simulation events (query starts,
// snapshot polls) and never from shared or global randomness.
package fault

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/engine"
	"repro/internal/rng"
	"repro/internal/simclock"
)

// Injection kinds, as reported through Injector.OnInject and counted in
// Stats. They double as the obs label values of fault_injected_total.
const (
	KindAbort        = "abort"
	KindMisestimate  = "misestimate"
	KindSlowdown     = "slowdown"
	KindSnapshotDrop = "snapshot_drop"
	KindHarvestDrop  = "harvest_drop"
	KindCrash        = "crash"
	// Backend-scoped kinds: faults that hit one fleet backend instead of
	// the whole run. Injected only by backend injectors (NewBackendInjector).
	KindBackendCrash    = "backend_crash"
	KindBackendRecover  = "backend_recover"
	KindBackendBrownout = "backend_brownout"
	KindBackendDropout  = "backend_dropout"
)

// Window is a half-open interval [Start, End) of virtual seconds.
type Window struct {
	Start float64
	End   float64
}

// Contains reports whether t falls inside the window.
func (w Window) Contains(t float64) bool { return t >= w.Start && t < w.End }

func (w Window) validate(what string) error {
	if math.IsNaN(w.Start) || math.IsNaN(w.End) || w.Start < 0 || w.End <= w.Start {
		return fmt.Errorf("fault: %s window [%v, %v) is invalid", what, w.Start, w.End)
	}
	return nil
}

// Burst raises the abort probability inside a window — a failure storm.
type Burst struct {
	Window Window
	// Class restricts the burst to one service class; 0 hits every class.
	Class engine.ClassID
	// Rate is the per-query abort probability while the burst is active.
	// It replaces (not adds to) the base rate when larger.
	Rate float64
}

// Slowdown scales the engine's progress rate inside a window. Factor 0 is
// a full stall (the engine freezes; queries neither progress nor finish).
type Slowdown struct {
	Window Window
	Factor float64
}

// BackendCrash kills one fleet backend at a virtual time: its engine
// stalls (SetSpeed 0) and the router's health model takes it out of
// scoring. A positive RecoverAt brings the backend back; zero means it
// stays dead for the rest of the run.
type BackendCrash struct {
	// Backend is the 1-based roster ID of the backend to kill.
	Backend   int
	At        float64
	RecoverAt float64
}

// BackendSlowdown is a brownout: one backend's engine runs at Factor
// speed inside the window (Factor 0 would be a crash; use BackendCrash
// for that, so brownout factors live in (0, 1)).
type BackendSlowdown struct {
	Backend int
	Window  Window
	Factor  float64
}

// BackendOutage severs one backend's monitor/planner reporting inside
// the window: every snapshot poll and control-interval harvest on that
// backend is lost, exactly as if its telemetry link dropped.
type BackendOutage struct {
	Backend int
	Window  Window
}

// Plan is one deterministic fault scenario. The zero value injects
// nothing.
type Plan struct {
	// Seed seeds the injector's private RNG stream (abort draws and
	// probabilistic snapshot drops). Zero is a valid seed.
	Seed uint64
	// AbortRate is the base per-query abort probability per class,
	// drawn once when a query starts executing.
	AbortRate map[engine.ClassID]float64
	// AbortBursts are scheduled failure storms layered over AbortRate.
	AbortBursts []Burst
	// Misestimate multiplies a class's actual resource demand relative
	// to its optimizer estimate: 3 means the query really needs 3x what
	// the timeron cost claims (the admission controller over-admits);
	// 0 or absent leaves the class alone.
	Misestimate map[engine.ClassID]float64
	// Slowdowns are engine-wide degradation windows. Windows must not
	// overlap.
	Slowdowns []Slowdown
	// SnapshotDrop is the probability that one snapshot-monitor poll is
	// lost (all clients, that tick).
	SnapshotDrop float64
	// SnapshotOutages are windows in which every snapshot poll is lost.
	SnapshotOutages []Window
	// HarvestOutages are windows in which the monitor's whole control-
	// interval harvest is lost: the planner receives a zeroed
	// measurement flagged Dropped.
	HarvestOutages []Window
	// Crash, when positive, kills the run at that virtual time: the clock
	// stops mid-simulation as if the process died. Used by the crash-
	// recovery experiments to exercise checkpoint/resume; a resumed run
	// does not re-arm the crash.
	Crash float64
	// BackendCrashes kill individual fleet backends (with optional
	// recovery). Fleet runs only; single-engine runs reject them.
	BackendCrashes []BackendCrash
	// BackendBrownouts degrade individual backends inside windows.
	BackendBrownouts []BackendSlowdown
	// BackendDropouts sever individual backends' monitor reporting.
	BackendDropouts []BackendOutage
}

// Empty reports whether the plan injects nothing at all.
func (p Plan) Empty() bool {
	return len(p.AbortRate) == 0 && len(p.AbortBursts) == 0 &&
		len(p.Misestimate) == 0 && len(p.Slowdowns) == 0 &&
		p.SnapshotDrop <= 0 && len(p.SnapshotOutages) == 0 && len(p.HarvestOutages) == 0 &&
		p.Crash <= 0 && !p.HasBackendFaults()
}

// HasBackendFaults reports whether the plan contains any backend-scoped
// faults — those require a fleet run (two or more backends).
func (p Plan) HasBackendFaults() bool {
	return len(p.BackendCrashes) > 0 || len(p.BackendBrownouts) > 0 || len(p.BackendDropouts) > 0
}

// MaxBackend returns the highest backend ID any backend-scoped fault
// references (0 when there are none), so a runner can reject plans that
// name backends outside its roster.
func (p Plan) MaxBackend() int {
	max := 0
	for _, bc := range p.BackendCrashes {
		if bc.Backend > max {
			max = bc.Backend
		}
	}
	for _, bs := range p.BackendBrownouts {
		if bs.Backend > max {
			max = bs.Backend
		}
	}
	for _, bo := range p.BackendDropouts {
		if bo.Backend > max {
			max = bo.Backend
		}
	}
	return max
}

// Validate checks rates, multipliers, and window shapes.
func (p Plan) Validate() error {
	for _, class := range sortedClassKeys(p.AbortRate) {
		if r := p.AbortRate[class]; r < 0 || r > 1 || math.IsNaN(r) {
			return fmt.Errorf("fault: abort rate %v for class %d out of [0, 1]", r, class)
		}
	}
	for i, b := range p.AbortBursts {
		if err := b.Window.validate("abort burst"); err != nil {
			return err
		}
		if b.Rate < 0 || b.Rate > 1 || math.IsNaN(b.Rate) {
			return fmt.Errorf("fault: burst %d rate %v out of [0, 1]", i, b.Rate)
		}
	}
	for _, class := range sortedClassKeys(p.Misestimate) {
		if m := p.Misestimate[class]; m < 0 || math.IsNaN(m) || math.IsInf(m, 0) {
			return fmt.Errorf("fault: misestimate factor %v for class %d is invalid", m, class)
		}
	}
	slow := append([]Slowdown(nil), p.Slowdowns...)
	sort.Slice(slow, func(i, j int) bool { return slow[i].Window.Start < slow[j].Window.Start })
	for i, s := range slow {
		if err := s.Window.validate("slowdown"); err != nil {
			return err
		}
		if s.Factor < 0 || s.Factor >= 1 || math.IsNaN(s.Factor) {
			return fmt.Errorf("fault: slowdown factor %v out of [0, 1)", s.Factor)
		}
		if i > 0 && s.Window.Start < slow[i-1].Window.End {
			return fmt.Errorf("fault: slowdown windows overlap at t=%v", s.Window.Start)
		}
	}
	if p.SnapshotDrop < 0 || p.SnapshotDrop > 1 || math.IsNaN(p.SnapshotDrop) {
		return fmt.Errorf("fault: snapshot drop %v out of [0, 1]", p.SnapshotDrop)
	}
	for _, w := range p.SnapshotOutages {
		if err := w.validate("snapshot outage"); err != nil {
			return err
		}
	}
	for _, w := range p.HarvestOutages {
		if err := w.validate("harvest outage"); err != nil {
			return err
		}
	}
	if p.Crash < 0 || math.IsNaN(p.Crash) || math.IsInf(p.Crash, 0) {
		return fmt.Errorf("fault: crash time %v is invalid", p.Crash)
	}
	crashes := append([]BackendCrash(nil), p.BackendCrashes...)
	sort.Slice(crashes, func(i, j int) bool {
		if crashes[i].Backend != crashes[j].Backend {
			return crashes[i].Backend < crashes[j].Backend
		}
		return crashes[i].At < crashes[j].At
	})
	for i, bc := range crashes {
		if bc.Backend < 1 {
			return fmt.Errorf("fault: backend crash references backend %d (IDs are 1-based)", bc.Backend)
		}
		if bc.At <= 0 || math.IsNaN(bc.At) || math.IsInf(bc.At, 0) {
			return fmt.Errorf("fault: backend %d crash time %v is invalid", bc.Backend, bc.At)
		}
		if bc.RecoverAt != 0 && (bc.RecoverAt <= bc.At || math.IsNaN(bc.RecoverAt) || math.IsInf(bc.RecoverAt, 0)) {
			return fmt.Errorf("fault: backend %d recovery time %v must follow crash time %v", bc.Backend, bc.RecoverAt, bc.At)
		}
		if i > 0 && crashes[i-1].Backend == bc.Backend {
			prev := crashes[i-1]
			if prev.RecoverAt == 0 || bc.At < prev.RecoverAt {
				return fmt.Errorf("fault: backend %d crash at t=%v overlaps an earlier outage", bc.Backend, bc.At)
			}
		}
	}
	brown := append([]BackendSlowdown(nil), p.BackendBrownouts...)
	sort.Slice(brown, func(i, j int) bool {
		if brown[i].Backend != brown[j].Backend {
			return brown[i].Backend < brown[j].Backend
		}
		return brown[i].Window.Start < brown[j].Window.Start
	})
	for i, bs := range brown {
		if bs.Backend < 1 {
			return fmt.Errorf("fault: backend brownout references backend %d (IDs are 1-based)", bs.Backend)
		}
		if err := bs.Window.validate("backend brownout"); err != nil {
			return err
		}
		if bs.Factor <= 0 || bs.Factor >= 1 || math.IsNaN(bs.Factor) {
			return fmt.Errorf("fault: backend brownout factor %v out of (0, 1)", bs.Factor)
		}
		if i > 0 && brown[i-1].Backend == bs.Backend && bs.Window.Start < brown[i-1].Window.End {
			return fmt.Errorf("fault: backend %d brownout windows overlap at t=%v", bs.Backend, bs.Window.Start)
		}
	}
	for _, bo := range p.BackendDropouts {
		if bo.Backend < 1 {
			return fmt.Errorf("fault: backend dropout references backend %d (IDs are 1-based)", bo.Backend)
		}
		if err := bo.Window.validate("backend dropout"); err != nil {
			return err
		}
	}
	return nil
}

// ValidateRoster is Validate for a run on a roster of n backends (n <= 1
// is the single engine): backend-scoped faults need a fleet and must
// name roster IDs, and the plan must never have every backend down at the
// same instant — a fleet with no survivor has nowhere to route. Crash
// outages are taken as closed intervals [At, RecoverAt], so a recovery
// and another backend's crash at the same instant count as overlapping.
func (p Plan) ValidateRoster(n int) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if n < 2 {
		if p.HasBackendFaults() {
			return fmt.Errorf("fault: backend-scoped faults require a fleet of two or more backends")
		}
		return nil
	}
	if mb := p.MaxBackend(); mb > n {
		return fmt.Errorf("fault: plan targets backend %d of a %d-backend fleet", mb, n)
	}
	downAt := func(b int, t float64) bool {
		for _, bc := range p.BackendCrashes {
			if bc.Backend == b && bc.At <= t && (bc.RecoverAt == 0 || t <= bc.RecoverAt) {
				return true
			}
		}
		return false
	}
	// If every backend is down at some instant, it is down at the latest
	// crash start among the covering outages, so those are the only
	// instants to check.
	for _, bc := range p.BackendCrashes {
		all := true
		for b := 1; b <= n && all; b++ {
			all = downAt(b, bc.At)
		}
		if all {
			return fmt.Errorf("fault: every one of the %d backends is down at t=%v", n, bc.At)
		}
	}
	return nil
}

// Stats counts injections, total and per kind.
type Stats struct {
	Aborts           uint64
	Misestimates     uint64
	Slowdowns        uint64
	SnapshotDrops    uint64
	HarvestDrops     uint64
	Crashes          uint64
	BackendCrashes   uint64
	BackendRecovers  uint64
	BackendBrownouts uint64
	BackendDropouts  uint64
}

// Total sums all injection counters.
func (s Stats) Total() uint64 {
	return s.Aborts + s.Misestimates + s.Slowdowns + s.SnapshotDrops + s.HarvestDrops + s.Crashes +
		s.BackendCrashes + s.BackendRecovers + s.BackendBrownouts + s.BackendDropouts
}

// Add folds another stats block into s — fleet runs sum their
// per-backend injectors' counters into one run-level block.
func (s *Stats) Add(o Stats) {
	s.Aborts += o.Aborts
	s.Misestimates += o.Misestimates
	s.Slowdowns += o.Slowdowns
	s.SnapshotDrops += o.SnapshotDrops
	s.HarvestDrops += o.HarvestDrops
	s.Crashes += o.Crashes
	s.BackendCrashes += o.BackendCrashes
	s.BackendRecovers += o.BackendRecovers
	s.BackendBrownouts += o.BackendBrownouts
	s.BackendDropouts += o.BackendDropouts
}

// Injector executes a Plan against one engine + monitor pair. Construct
// with NewInjector, call AttachEngine before the run starts, and hand the
// injector to the Query Scheduler config as its MonitorFaults source.
type Injector struct {
	plan  Plan
	clock *simclock.Clock
	//lint:ignore ckptcover wiring backref installed by AttachEngine on both fresh and restored runs
	eng   *engine.Engine
	src   *rng.Source
	stats Stats

	// backendID scopes the injector to one fleet backend (1-based); 0 is
	// a classic single-engine injector. Backend-scoped faults fire only
	// on the injector whose backendID matches, and the run-level crash is
	// armed only by backend 1 (exactly once per fleet).
	backendID int
	//lint:ignore ckptcover wiring installed by SetFleetHooks on both fresh and restored runs
	hooks FleetHooks

	// slowEvents records every scheduled slowdown transition with its
	// event ref; aborts tracks pending doomed-query aborts by event seq.
	// backendEvents records scheduled backend crash/recover/brownout
	// transitions the same way. All exist so a checkpoint can re-arm
	// exactly the still-pending fault events on resume.
	slowEvents    []slowEvent
	aborts        map[uint64]*pendingAbort
	backendEvents []backendEvent
	//lint:ignore ckptcover restore itself clears the crash flag; a restored injector is by definition post-crash
	crashed bool

	// OnInject, when set, observes every injection as (kind, class);
	// class is 0 for class-less kinds (slowdown, monitor drops). The obs
	// wiring uses this to expose fault_injected_total.
	OnInject func(kind string, class engine.ClassID)
}

// FleetHooks are the fleet-facing callbacks a backend injector fires on
// its backend's availability transitions — the experiment wiring routes
// them into the router's health model and the decision log. A crash or
// brownout always stalls/slows the local engine regardless of hooks, so
// a mitigation-off fleet still loses the capacity; the hooks are the
// mitigation.
type FleetHooks struct {
	Down     func()               // backend crash fired
	Up       func()               // backend recovered
	Degraded func(factor float64) // brownout window opened
	Restored func()               // brownout window closed
}

// slowEvent is one scheduled engine-speed transition.
type slowEvent struct {
	ref     simclock.EventRef
	factor  float64
	isStart bool // window start (counts as an injection) vs window end
}

// pendingAbort is one scheduled doomed-query abort.
type pendingAbort struct {
	ref     simclock.EventRef
	query   engine.QueryID
	class   engine.ClassID
	attempt int
}

// Backend transition codes, serialized in BackendEventRecord.
const (
	bevCrash = iota
	bevRecover
	bevBrownoutStart
	bevBrownoutEnd
)

// backendEvent is one scheduled backend availability transition.
type backendEvent struct {
	ref    simclock.EventRef
	code   int
	factor float64 // brownout speed factor; unused for crash/recover
}

// NewInjector builds an injector for the plan on the given clock. The
// plan must validate. Single-engine runs only: backend-scoped faults
// need NewBackendInjector (one per roster slot).
func NewInjector(plan Plan, clock *simclock.Clock) *Injector {
	if clock == nil {
		panic("fault: nil clock")
	}
	if err := plan.Validate(); err != nil {
		panic(err)
	}
	if plan.HasBackendFaults() {
		panic("fault: backend-scoped faults require a fleet (use NewBackendInjector)")
	}
	return &Injector{plan: plan, clock: clock, src: rng.New(plan.Seed)}
}

// NewBackendInjector builds the injector for one fleet backend
// (1-based roster ID). Class-scoped faults (aborts, misestimation,
// engine-wide slowdowns, monitor drops) apply to this backend's engine
// and monitor like any single-engine run; backend-scoped faults fire
// only where the plan's Backend field matches. Each backend draws from
// its own RNG stream, decorrelated from its siblings by the roster ID,
// so a fleet's abort storms don't strike every box in lockstep. The
// run-level Crash is armed by backend 1 alone.
func NewBackendInjector(plan Plan, clock *simclock.Clock, backendID int) *Injector {
	if clock == nil {
		panic("fault: nil clock")
	}
	if backendID < 1 {
		panic("fault: backend injector IDs are 1-based")
	}
	if err := plan.Validate(); err != nil {
		panic(err)
	}
	seed := plan.Seed + uint64(backendID)*0x9e3779b97f4a7c15
	return &Injector{plan: plan, clock: clock, src: rng.New(seed), backendID: backendID}
}

// SetFleetHooks installs the fleet-facing availability callbacks. Call
// before the simulation runs (fresh or resumed); unset hooks are
// simply skipped, which is the mitigation-off configuration.
func (in *Injector) SetFleetHooks(h FleetHooks) { in.hooks = h }

// Plan returns the injector's fault plan.
func (in *Injector) Plan() Plan { return in.plan }

// Stats returns cumulative injection counters.
func (in *Injector) Stats() Stats { return in.stats }

func (in *Injector) note(kind string, class engine.ClassID) {
	if in.OnInject != nil {
		in.OnInject(kind, class)
	}
}

// AttachEngine hooks the plan into an engine: misestimation rewrites
// demand at submit, abort draws happen at execution start, and slowdown
// windows are scheduled as clock events. Call exactly once, before the
// simulation runs.
func (in *Injector) AttachEngine(eng *engine.Engine) {
	if in.eng != nil {
		panic("fault: injector already attached to an engine")
	}
	in.eng = eng
	if len(in.plan.Misestimate) > 0 {
		eng.OnSubmit(func(q *engine.Query) {
			if q.Attempt > 0 {
				return // a retry's demand was already rewritten
			}
			m, ok := in.plan.Misestimate[q.Class]
			if !ok || m <= 0 {
				return
			}
			q.Demand.Work *= m
			in.stats.Misestimates++
			in.note(KindMisestimate, q.Class)
		})
	}
	if len(in.plan.AbortRate) > 0 || len(in.plan.AbortBursts) > 0 {
		eng.OnStart(func(q *engine.Query) { in.maybeScheduleAbort(q) })
	}
	for _, s := range in.plan.Slowdowns {
		in.armSlowdown(s.Window.Start, s.Factor, true)
		in.armSlowdown(s.Window.End, 1, false)
	}
	for _, bc := range in.plan.BackendCrashes {
		if bc.Backend != in.backendID {
			continue
		}
		in.armBackendEvent(bc.At, bevCrash, 0)
		if bc.RecoverAt > 0 {
			in.armBackendEvent(bc.RecoverAt, bevRecover, 1)
		}
	}
	for _, bs := range in.plan.BackendBrownouts {
		if bs.Backend != in.backendID {
			continue
		}
		in.armBackendEvent(bs.Window.Start, bevBrownoutStart, bs.Factor)
		in.armBackendEvent(bs.Window.End, bevBrownoutEnd, 1)
	}
	if in.plan.Crash > 0 && in.backendID <= 1 {
		in.clock.At(in.plan.Crash, func() {
			in.crashed = true
			in.stats.Crashes++
			in.note(KindCrash, 0)
			in.clock.Stop()
		})
	}
}

// armBackendEvent schedules one backend availability transition and
// records its ref for checkpointing.
func (in *Injector) armBackendEvent(at float64, code int, factor float64) {
	ref := in.clock.AtRef(at, in.backendEventFn(code, factor))
	in.backendEvents = append(in.backendEvents, backendEvent{ref: ref, code: code, factor: factor})
}

func (in *Injector) backendEventFn(code int, factor float64) simclock.EventFunc {
	return func() {
		switch code {
		case bevCrash:
			in.stats.BackendCrashes++
			in.note(KindBackendCrash, 0)
			in.eng.SetSpeed(0)
			if in.hooks.Down != nil {
				in.hooks.Down()
			}
		case bevRecover:
			in.stats.BackendRecovers++
			in.note(KindBackendRecover, 0)
			in.eng.SetSpeed(1)
			if in.hooks.Up != nil {
				in.hooks.Up()
			}
		case bevBrownoutStart:
			in.stats.BackendBrownouts++
			in.note(KindBackendBrownout, 0)
			in.eng.SetSpeed(factor)
			if in.hooks.Degraded != nil {
				in.hooks.Degraded(factor)
			}
		case bevBrownoutEnd:
			in.eng.SetSpeed(1)
			if in.hooks.Restored != nil {
				in.hooks.Restored()
			}
		}
	}
}

// Crashed reports whether the plan's crash event has fired — the run is
// dead and its driver must stop as if the process were killed.
func (in *Injector) Crashed() bool { return in.crashed }

// armSlowdown schedules one engine-speed transition and records its ref.
func (in *Injector) armSlowdown(at float64, factor float64, isStart bool) {
	ref := in.clock.AtRef(at, in.slowdownFn(factor, isStart))
	in.slowEvents = append(in.slowEvents, slowEvent{ref: ref, factor: factor, isStart: isStart})
}

func (in *Injector) slowdownFn(factor float64, isStart bool) simclock.EventFunc {
	return func() {
		if isStart {
			in.stats.Slowdowns++
			in.note(KindSlowdown, 0)
		}
		in.eng.SetSpeed(factor)
	}
}

// abortRateAt returns the effective abort probability for a class at time
// t: the largest of the base rate and any active burst covering the
// class.
func (in *Injector) abortRateAt(t float64, class engine.ClassID) float64 {
	rate := in.plan.AbortRate[class]
	for _, b := range in.plan.AbortBursts {
		if b.Window.Contains(t) && (b.Class == 0 || b.Class == class) && b.Rate > rate {
			rate = b.Rate
		}
	}
	return rate
}

// maybeScheduleAbort draws the query's fate at execution start; a doomed
// query gets an abort event at a uniform fraction of its stand-alone
// execution time, so the abort always lands mid-flight (a query running
// at rate <= 1 cannot finish before Work seconds have passed).
func (in *Injector) maybeScheduleAbort(q *engine.Query) {
	rate := in.abortRateAt(in.clock.Now(), q.Class)
	if rate <= 0 || in.src.Float64() >= rate {
		return
	}
	delay := in.src.Range(0.2, 0.9) * q.Demand.Work
	pa := &pendingAbort{query: q.ID, class: q.Class, attempt: q.Attempt}
	pa.ref = in.clock.AfterRef(delay, in.abortFn(pa, q))
	if in.aborts == nil {
		in.aborts = make(map[uint64]*pendingAbort)
	}
	in.aborts[pa.ref.Seq] = pa
}

// abortFn fires one scheduled abort against the query object the draw
// doomed. A stale fire (the attempt already finished, timed out, or was
// retried) must be a no-op, because the object itself may have been
// recycled into a different live query by the rig's query pool after
// the doomed attempt ended. The id/attempt guard decides it on this
// engine; a recycled query executing on another backend may repeat the
// id and attempt, and Engine.Abort refuses a query it does not hold.
func (in *Injector) abortFn(pa *pendingAbort, q *engine.Query) simclock.EventFunc {
	return func() {
		delete(in.aborts, pa.ref.Seq)
		if q.ID != pa.query || q.Attempt != pa.attempt {
			return
		}
		if in.eng.Abort(q) {
			in.stats.Aborts++
			in.note(KindAbort, pa.class)
		}
	}
}

// restoredAbortFn is abortFn rebuilt after a checkpoint restore: the
// original *Query pointer is gone, so the closure re-finds the query by
// id and guards on the attempt counter — an id whose doomed attempt
// already ended (and possibly retried under the same id) must no-op,
// exactly as the original closure's stale-pointer Abort would.
func (in *Injector) restoredAbortFn(pa *pendingAbort) simclock.EventFunc {
	return func() {
		delete(in.aborts, pa.ref.Seq)
		q := in.eng.ActiveQuery(pa.query)
		if q == nil || q.Attempt != pa.attempt {
			return
		}
		if in.eng.Abort(q) {
			in.stats.Aborts++
			in.note(KindAbort, pa.class)
		}
	}
}

// DropSnapshot reports whether the snapshot poll at time t is lost —
// part of the Query Scheduler's MonitorFaultInjector contract. Outage
// windows drop deterministically; otherwise SnapshotDrop draws from the
// injector's RNG.
func (in *Injector) DropSnapshot(t simclock.Time) bool {
	if in.inBackendDropout(t) {
		return true
	}
	for _, w := range in.plan.SnapshotOutages {
		if w.Contains(t) {
			in.stats.SnapshotDrops++
			in.note(KindSnapshotDrop, 0)
			return true
		}
	}
	if in.plan.SnapshotDrop > 0 && in.src.Float64() < in.plan.SnapshotDrop {
		in.stats.SnapshotDrops++
		in.note(KindSnapshotDrop, 0)
		return true
	}
	return false
}

// DropHarvest reports whether the whole control-interval harvest at time
// t is lost (windows only; losing an entire harvest is an outage-class
// event, not per-poll noise).
func (in *Injector) DropHarvest(t simclock.Time) bool {
	if in.inBackendDropout(t) {
		return true
	}
	for _, w := range in.plan.HarvestOutages {
		if w.Contains(t) {
			in.stats.HarvestDrops++
			in.note(KindHarvestDrop, 0)
			return true
		}
	}
	return false
}

// inBackendDropout reports whether this injector's backend is inside a
// dropout window at t — all of its monitor reporting (snapshot polls
// and whole harvests) is severed.
func (in *Injector) inBackendDropout(t simclock.Time) bool {
	if in.backendID == 0 {
		return false
	}
	for _, o := range in.plan.BackendDropouts {
		if o.Backend == in.backendID && o.Window.Contains(t) {
			in.stats.BackendDropouts++
			in.note(KindBackendDropout, 0)
			return true
		}
	}
	return false
}

// RefreshCost is the corrected timeron estimate for a retried query:
// the original estimate scaled by the class's misestimation factor —
// what a re-cost after a failed attempt would reveal. With no
// misestimation it returns the original cost unchanged. Wire it as
// patroller.RetryPolicy.RefreshCost so retries are admitted under their
// true footprint.
func (in *Injector) RefreshCost(q *engine.Query) float64 {
	if m, ok := in.plan.Misestimate[q.Class]; ok && m > 0 {
		return q.Cost * m
	}
	return q.Cost
}

// sortedClassKeys returns m's keys in ascending order so validation
// messages (and any per-class iteration) are deterministic.
func sortedClassKeys(m map[engine.ClassID]float64) []engine.ClassID {
	out := make([]engine.ClassID, 0, len(m))
	for c := range m {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
