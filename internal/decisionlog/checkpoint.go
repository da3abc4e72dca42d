// Checkpoint state for the decision-log writer. The pending records are
// deliberately NOT flushed at capture: the sink offset stays at a
// written-record boundary, so crash recovery truncates the file to
// SinkBytes and the resumed writer — restored with the same tick
// counters and pending records — continues byte-identically.
package decisionlog

// CheckpointState is the writer's serializable state: the byte offset
// and every stream, indexed by backend (0 = the single-backend log).
type CheckpointState struct {
	SinkBytes int64
	Streams   []StreamState
}

// CheckpointState captures the writer at a quiescent boundary.
func (dw *Writer) CheckpointState() CheckpointState {
	return CheckpointState{SinkBytes: dw.out.CheckpointState(), Streams: copyStreams(dw.streams)}
}

// RestoreCheckpoint overwrites a fresh Writer with checkpointed state.
// The writer must be over the file rewound to st.SinkBytes (see
// trace.Rewind).
func (dw *Writer) RestoreCheckpoint(st CheckpointState) {
	if dw.streams != nil {
		panic("decisionlog: checkpoint restore onto a used writer")
	}
	dw.out.RestoreCheckpoint(st.SinkBytes)
	dw.streams = copyStreams(st.Streams)
}

// copyStreams deep-copies the pending records, so the writer's later
// back-fill of Actual never reaches a captured state.
func copyStreams(in []StreamState) []StreamState {
	out := make([]StreamState, len(in))
	for i, s := range in {
		out[i].Tick = s.Tick
		if s.Pending != nil {
			p := *s.Pending
			out[i].Pending = &p
		}
	}
	return out
}
