// Package backend bundles one simulated engine with its admission-
// control stack — patroller, Query Scheduler, per-backend metrics
// collector — behind a single handle. Every experiment rig is a roster
// of these on one shared clock: the paper's single engine is a roster of
// one, and a fleet of N, each with its own capacity profile, sits behind
// the routing tier, which sends every query to one of them.
package backend

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/patroller"
	"repro/internal/simclock"
)

// Spec is one backend's capacity profile and routing bias — the
// heterogeneous part of a fleet configuration.
type Spec struct {
	// Name labels the backend in traces, decision logs, and metrics.
	Name string
	// CPUCapacity / IOCapacity / ContentionAlpha override the engine's
	// defaults (zero = paper default), so a fleet can mix fast and slow
	// boxes.
	CPUCapacity     float64
	IOCapacity      float64
	ContentionAlpha float64
	// Affinity biases the router's class-affinity scorer toward this
	// backend for the listed classes. Unlisted classes score 1 (no
	// preference); values must be positive.
	Affinity map[engine.ClassID]float64
}

// EngineConfig resolves the spec into a full engine configuration,
// filling unset fields from the paper defaults.
func (s Spec) EngineConfig() engine.Config {
	cfg := engine.DefaultConfig()
	if s.CPUCapacity > 0 {
		cfg.CPUCapacity = s.CPUCapacity
	}
	if s.IOCapacity > 0 {
		cfg.IOCapacity = s.IOCapacity
	}
	if s.ContentionAlpha > 0 {
		cfg.ContentionAlpha = s.ContentionAlpha
	}
	return cfg
}

// DefaultSpecs returns n identical paper-default backends named b1..bn —
// the -backends N fleet. A single default spec is a fleet of one: the
// paper's single engine, exactly.
func DefaultSpecs(n int) []Spec {
	out := make([]Spec, n)
	for i := range out {
		out[i].Name = fmt.Sprintf("b%d", i+1)
	}
	return out
}

// Backend is what the routing tier sees: identity, the engine queries
// execute on, and the queue/load signals the scorers read. Instance is
// the one concrete implementation; the interface keeps the router
// testable with stubs.
type Backend interface {
	// ID is the backend's 1-based fleet index.
	ID() int
	// Name is the spec's label.
	Name() string
	// Engine returns the backend's execution engine.
	Engine() *engine.Engine
	// QueueDepth is the number of queries held at the backend's
	// admission gate (0 when no patroller is attached).
	QueueDepth() int
	// Load is the backend's current demand relative to capacity: the
	// busier station's utilization (may exceed 1 when oversubscribed).
	Load() float64
	// Affinity is the spec's routing bias for a class (1 = neutral).
	Affinity(class engine.ClassID) float64
	// Evacuate pulls every query this backend holds — admission-held,
	// executing, and awaiting retry — off the backend for failover
	// re-dispatch, in deterministic order (held queue in arrival order,
	// then executing queries by ID, then pending retries by event
	// sequence). Each returned query is reset to StateNew.
	Evacuate() []*engine.Query
}

// Instance is one concrete backend: an engine plus (once the rig
// attaches them) its patroller, Query Scheduler (Query Scheduler mode
// only), and collector.
type Instance struct {
	id   int
	spec Spec

	Eng *engine.Engine
	Pat *patroller.Patroller
	QS  *core.QueryScheduler
	// Collector is the backend-local period × class view — what landed
	// here, as opposed to the fleet-global collector that sees all
	// backends at once.
	Collector *metrics.Collector
}

// New builds a backend's engine on the shared clock. Control
// (patroller + scheduler) and metrics are attached by the rig.
func New(id int, spec Spec, clock *simclock.Clock) *Instance {
	if id <= 0 {
		panic(fmt.Sprintf("backend: non-positive backend ID %d", id))
	}
	for class, w := range spec.Affinity {
		if w <= 0 {
			panic(fmt.Sprintf("backend: %s: non-positive affinity %v for class %d", spec.Name, w, class))
		}
	}
	return &Instance{id: id, spec: spec, Eng: engine.New(spec.EngineConfig(), clock)}
}

// ID returns the backend's 1-based fleet index.
func (b *Instance) ID() int { return b.id }

// Name returns the spec's label.
func (b *Instance) Name() string { return b.spec.Name }

// Spec returns the backend's configuration.
func (b *Instance) Spec() Spec { return b.spec }

// Engine returns the backend's execution engine.
func (b *Instance) Engine() *engine.Engine { return b.Eng }

// QueueDepth returns the patroller's held-queue length.
func (b *Instance) QueueDepth() int {
	if b.Pat == nil {
		return 0
	}
	return b.Pat.HeldCount()
}

// Load returns the busier station's demand relative to capacity.
func (b *Instance) Load() float64 {
	cpu, io := b.Eng.Utilization()
	if io > cpu {
		return io
	}
	return cpu
}

// Affinity returns the spec's routing bias for a class (1 = neutral).
func (b *Instance) Affinity(class engine.ClassID) float64 {
	if w, ok := b.spec.Affinity[class]; ok {
		return w
	}
	return 1
}

// Evacuate implements the failover drain: held queries first (arrival
// order), then executing queries (ID order, with their patroller rows
// closed), then pending retries (event-sequence order). The composite
// order is deterministic, so the survivors' submission sequence — and
// every event sequence number downstream of it — replays identically
// run to run and across checkpoint resume.
func (b *Instance) Evacuate() []*engine.Query {
	var out []*engine.Query
	if b.Pat != nil {
		out = append(out, b.Pat.EvacuateHeld()...)
	}
	for _, q := range b.Eng.Evacuate() {
		if b.Pat != nil {
			b.Pat.ForgetActive(q.ID)
		}
		out = append(out, q)
	}
	if b.Pat != nil {
		out = append(out, b.Pat.EvacuateRetries()...)
	}
	return out
}
