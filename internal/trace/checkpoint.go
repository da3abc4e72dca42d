// Checkpoint state for the tracer: counters, the retained ring, the plan
// version and dedup memory, and the sink byte offset the resumed run
// truncates its trace file to.
package trace

import "sort"

// KindCount is one cumulative event-kind counter.
type KindCount struct {
	Kind Kind
	N    uint64
}

// CheckpointState is the tracer's serializable state.
type CheckpointState struct {
	Seq       uint64
	Dropped   uint64
	Plan      int
	LastPlan  string
	SinkBytes int64
	Counts    []KindCount // sorted by kind
	Events    []Event     // retained ring, in emission order
}

// CheckpointState captures the tracer. Batched events are flushed first
// so the recorded sink offset covers everything emitted so far.
func (t *Tracer) CheckpointState() CheckpointState {
	t.Flush()
	st := CheckpointState{
		Seq:      t.seq,
		Dropped:  t.dropped,
		Plan:     t.plan,
		LastPlan: t.lastPlan,
		Events:   t.Events(),
	}
	if t.stream != nil {
		st.SinkBytes = t.stream.CheckpointState()
	}
	for k, n := range t.counts {
		if n > 0 {
			st.Counts = append(st.Counts, KindCount{Kind: Kind(k), N: n})
		}
	}
	for k, n := range t.farCounts {
		st.Counts = append(st.Counts, KindCount{Kind: k, N: n})
	}
	sort.Slice(st.Counts, func(i, j int) bool { return st.Counts[i].Kind < st.Counts[j].Kind })
	return st
}

// RestoreCheckpoint overwrites a freshly constructed tracer (same
// capacity as the checkpointed one). The period mapper is not restored,
// and the JSONL export must already be attached over the file rewound to
// st.SinkBytes (see Rewind).
func (t *Tracer) RestoreCheckpoint(st CheckpointState) {
	if t.seq != 0 {
		panic("trace: checkpoint restore onto a used tracer")
	}
	t.seq = st.Seq
	t.dropped = st.Dropped
	t.plan = st.Plan
	t.lastPlan = st.LastPlan
	if t.stream != nil {
		t.stream.RestoreCheckpoint(st.SinkBytes)
	}
	for _, kc := range st.Counts {
		if k := int(kc.Kind); k >= 0 && k < numKinds {
			t.counts[k] = kc.N
		} else {
			if t.farCounts == nil {
				t.farCounts = make(map[Kind]uint64)
			}
			t.farCounts[kc.Kind] = kc.N
		}
	}
	t.events = append(t.events[:0], st.Events...)
	t.start = 0
}
