// Checkpoint state for one backend: the composed snapshot of its
// engine, patroller, scheduler, and collector. A rig stores one of these
// per backend, in roster order.
package backend

import (
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/patroller"
)

// CheckpointState is the backend's serializable state.
type CheckpointState struct {
	Engine engine.CheckpointState
	Pat    patroller.CheckpointState
	// HasQS records whether a Query Scheduler was attached (Query
	// Scheduler mode only).
	HasQS     bool
	QS        core.CheckpointState
	Collector metrics.CheckpointState
}

// CheckpointState captures the backend at a quiescent boundary.
func (b *Instance) CheckpointState() CheckpointState {
	st := CheckpointState{
		Engine:    b.Eng.CheckpointState(),
		Pat:       b.Pat.CheckpointState(),
		Collector: b.Collector.CheckpointState(),
	}
	if b.QS != nil {
		st.HasQS = true
		st.QS = b.QS.CheckpointState()
	}
	return st
}

// RestoreCheckpoint overwrites a freshly constructed backend with
// checkpointed state: the engine first (held/active patroller entries
// re-link to its rebuilt query objects), then the patroller, scheduler,
// and collector.
func (b *Instance) RestoreCheckpoint(st CheckpointState) {
	b.Eng.RestoreCheckpoint(st.Engine)
	b.Pat.RestoreCheckpoint(st.Pat)
	if b.QS != nil {
		b.QS.RestoreCheckpoint(st.QS)
	}
	b.Collector.RestoreCheckpoint(st.Collector)
}
