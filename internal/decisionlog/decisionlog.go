// Package decisionlog writes the control plane's decision audit log: one
// JSONL record per control tick capturing what the Query Scheduler saw
// (the harvested measurement), what it predicted (per-class model
// outputs and their provenance), how the Performance Solver searched
// (candidates, iterations, runner-up utility, infeasibility and the
// binding class), what it actuated (the cost limits), and — one tick
// later — what actually happened (the back-filled Actual outcomes).
//
// The log is versioned, deterministic, and resumable: records are
// buffered one tick so the next harvest can close the prediction window,
// the buffered record is carried in checkpoint state rather than the
// file, and a resumed run truncates the sink to the checkpointed byte
// offset and continues byte-identically (the same contract the trace
// sink follows).
package decisionlog

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Version is the decision-log format version, stamped into every meta
// line. Bump on any change to record field sets or semantics.
const Version = 1

// ClassMeta describes one service class in the meta line: everything a
// reader needs to interpret the class's decision rows without the
// scenario in hand.
type ClassMeta struct {
	ID         int     `json:"id"`
	Name       string  `json:"name"`
	Kind       string  `json:"kind"`   // "OLAP" | "OLTP"
	Metric     string  `json:"metric"` // "velocity" | "avg-response-time"
	Target     float64 `json:"target"`
	Importance int     `json:"importance"`
}

// Meta is the log's first line: format version, run identity, and the
// class roster with goals.
type Meta struct {
	Type            string      `json:"type"` // always "meta"
	Version         int         `json:"version"`
	Experiment      string      `json:"experiment"`
	Seed            int64       `json:"seed"`
	ControlInterval float64     `json:"control_interval_seconds"`
	SLOWindow       int         `json:"slo_window"`
	SLOBudget       float64     `json:"slo_budget"`
	Classes         []ClassMeta `json:"classes"`
	// Backends is the fleet roster, as the trace header holds it (IDs
	// match Record.Backend); empty (and omitted) for single-backend runs,
	// keeping legacy logs byte-identical.
	Backends []trace.BackendMeta `json:"backends,omitempty"`
}

// ClassDecision is one class's row in a decision record: the measured
// anchor, the model's prediction and provenance, the goal analysis, the
// actuated limit, and the SLO accounting after this tick.
type ClassDecision struct {
	Class     int     `json:"class"`
	Limit     float64 `json:"limit"`
	PrevLimit float64 `json:"prev_limit"`
	Measured  float64 `json:"measured"`
	Samples   int     `json:"samples"`
	Idle      bool    `json:"idle,omitempty"`
	// Prediction and provenance — zero/empty on held ticks.
	Predicted   float64 `json:"predicted"`
	Ceiling     float64 `json:"ceiling"`
	Model       string  `json:"model,omitempty"`
	Anchor      float64 `json:"anchor"`
	AnchorLimit float64 `json:"anchor_limit"`
	// Goal analysis from the solver's search summary.
	Goal      float64 `json:"goal"`
	GoalMet   bool    `json:"goal_met"`
	Reachable bool    `json:"reachable"`
	Shortfall float64 `json:"shortfall"`
	// SLO accounting after this tick's measurement folded in.
	Attainment float64 `json:"attainment"`
	BurnRate   float64 `json:"burn_rate"`
}

// Outcome is the back-filled actual result for one class: what the next
// harvest measured over the window this record's plan governed.
type Outcome struct {
	Class    int     `json:"class"`
	Value    float64 `json:"value"`
	GoalMet  bool    `json:"goal_met"`
	AbsError float64 `json:"abs_error"` // |predicted - value|; 0 when no prediction existed
}

// Record is one control tick's decision, in audit order: inputs,
// predictions, search, actuation, and (back-filled) outcome.
type Record struct {
	Type string `json:"type"` // always "decision"
	// Backend is the 1-based fleet backend this tick belongs to; 0 (and
	// omitted) in single-backend logs. Each backend's ticks form an
	// independent stream with its own tick counter.
	Backend int     `json:"backend,omitempty"`
	Tick    int     `json:"tick"` // 1-based control tick index per stream
	T       float64 `json:"t"`    // sim time of the tick
	Held    bool    `json:"held,omitempty"`
	// Dropped / OLTPDropout flag fault-degraded harvests feeding the tick.
	Dropped     bool `json:"dropped,omitempty"`
	OLTPDropout bool `json:"oltp_dropout,omitempty"`
	// Solver search summary — zeros on held ticks.
	Utility     float64         `json:"utility"`
	RunnerUp    float64         `json:"runner_up"`
	HasRunnerUp bool            `json:"has_runner_up,omitempty"`
	Iterations  int             `json:"iterations"`
	Candidates  int             `json:"candidates"`
	Infeasible  bool            `json:"infeasible,omitempty"`
	Binding     int             `json:"binding,omitempty"`
	OLTPSlope   float64         `json:"oltp_slope"`
	Classes     []ClassDecision `json:"classes"`
	// Actual is back-filled from the next tick's harvest before the
	// record is written; the run's final record (flushed at shutdown)
	// and records followed by a fault-dropped harvest omit it.
	Actual []Outcome `json:"actual,omitempty"`
}

// FleetRecord is one fleet-level availability or mitigation event in
// the log: a backend failing over, recovering, degrading, or having its
// class demand migrated or shed. Unlike decision records these are not
// tick-buffered — there is no prediction window to close — so NoteFleet
// writes them immediately, interleaved with the decision streams in
// event order.
type FleetRecord struct {
	Type string  `json:"type"` // always "fleet"
	T    float64 `json:"t"`    // sim time of the event
	// Event: "failover" (backend crashed, queries re-dispatched),
	// "recover", "degraded", "restored", "migration", "migration-end",
	// "shed".
	Event   string `json:"event"`
	Backend int    `json:"backend"` // the event's subject, 1-based
	// Class / Target are set on migration and shed events.
	Class  int `json:"class,omitempty"`
	Target int `json:"target,omitempty"`
	// Factor is the brownout speed factor on degraded events.
	Factor float64 `json:"factor,omitempty"`
	// Moved counts queries re-dispatched to survivors on failover.
	Moved int `json:"moved,omitempty"`
}

// ClassesMeta renders a class roster into meta form, sorted by ID.
func ClassesMeta(classes []*workload.Class) []ClassMeta {
	out := make([]ClassMeta, 0, len(classes))
	for _, c := range classes {
		out = append(out, ClassMeta{
			ID:         int(c.ID),
			Name:       c.Name,
			Kind:       c.Kind.String(),
			Metric:     c.Goal.Metric.String(),
			Target:     c.Goal.Target,
			Importance: c.Importance,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Writer emits the decision log to a JSONL sink. Records lag one tick:
// NoteBackend buffers each stream's newest record and writes its
// predecessor once the new harvest has closed the predecessor's
// prediction window. Not safe for concurrent use — the schedulers' plan
// hooks are the only callers.
type Writer struct {
	out   *trace.Stream
	meta  Meta
	class map[engine.ClassID]ClassMeta
	ids   []engine.ClassID // sorted roster

	// streams[b] is backend b's tick counter and one-tick buffer. Stream
	// 0 is the single-backend log, whose records omit the backend; a
	// fleet log uses streams 1..N.
	streams []StreamState
}

// StreamState is one decision stream's tick counter and pending record.
type StreamState struct {
	Tick int
	// Pending is the buffered record awaiting the next tick's harvest
	// (nil before the first tick and after Flush).
	Pending *Record
}

// NewWriter starts a decision log on w: validates the meta, stamps
// type/version, and writes the meta line — unless w is a trace.Sink
// reopened by trace.Rewind, which already holds the log up to a
// checkpoint; RestoreCheckpoint then supplies the tick counters, byte
// offset and pending records.
func NewWriter(w io.Writer, meta Meta) (*Writer, error) {
	if len(meta.Classes) == 0 {
		return nil, fmt.Errorf("decisionlog: meta has no classes")
	}
	meta.Type = "meta"
	meta.Version = Version
	dw := &Writer{
		meta:  meta,
		class: make(map[engine.ClassID]ClassMeta, len(meta.Classes)),
	}
	for _, c := range meta.Classes {
		id := engine.ClassID(c.ID)
		if _, dup := dw.class[id]; dup {
			return nil, fmt.Errorf("decisionlog: duplicate class %d in meta", c.ID)
		}
		dw.class[id] = c
		dw.ids = append(dw.ids, id)
	}
	sort.Slice(dw.ids, func(i, j int) bool { return dw.ids[i] < dw.ids[j] })
	out, err := trace.NewStream(w, dw.meta)
	if err != nil {
		return nil, fmt.Errorf("decisionlog: %w", err)
	}
	dw.out = out
	return dw, nil
}

// NoteBackend folds one control tick of backend b's stream into the
// log: the stream's previous record gains its Actual outcomes from this
// tick's harvest and is written; the new record becomes pending. Each
// stream has its own tick counter and one-tick buffer, so N interleaved
// control loops share a single sink without clobbering each other's
// prediction windows. Install per backend with
// qs.OnPlan(func(rec core.PlanRecord) { dw.NoteBackend(b, rec) });
// b = 0 is the single-backend log.
func (dw *Writer) NoteBackend(b int, rec core.PlanRecord) {
	for len(dw.streams) <= b {
		dw.streams = append(dw.streams, StreamState{})
	}
	s := &dw.streams[b]
	s.Tick++
	if s.Pending != nil {
		s.Pending.Actual = dw.outcomes(s.Pending, rec.Measurement)
		dw.out.WriteJSON(json.Marshal(s.Pending))
	}
	r := dw.buildRecord(b, s.Tick, s.Pending, rec)
	s.Pending = &r
}

// NoteFleet writes one fleet availability/mitigation event immediately.
// No buffering: fleet events have no prediction window, and writing in
// event order keeps the log a faithful interleaving of what the control
// plane knew when. Fleet and decision records share one stream, so
// checkpoints taken after a fleet event resume byte-identically.
func (dw *Writer) NoteFleet(fr FleetRecord) {
	fr.Type = "fleet"
	dw.out.WriteJSON(json.Marshal(fr))
}

// Flush writes the trailing pending records (without Actual — no later
// harvest closed their windows), streams in ascending order. Call once
// at end of run; checkpoint capture deliberately does NOT flush, so the
// byte offset stays at a record boundary the resumed writer reproduces.
func (dw *Writer) Flush() {
	for i := range dw.streams {
		if p := dw.streams[i].Pending; p != nil {
			dw.out.WriteJSON(json.Marshal(p))
			dw.streams[i].Pending = nil
		}
	}
}

// Err returns the first write or encode error, latched.
func (dw *Writer) Err() error { return dw.out.Err() }

// Stream returns the log's JSONL stream.
func (dw *Writer) Stream() *trace.Stream { return dw.out }

// buildRecord renders a PlanRecord into its serialized form for one
// stream. Rows are emitted for every roster class in ID order; held
// ticks carry only the measured/limit columns. prev is the stream's
// previous record (the source of PrevLimit), tick its 1-based counter.
func (dw *Writer) buildRecord(backend, tick int, prev *Record, rec core.PlanRecord) Record {
	r := Record{
		Type:        "decision",
		Backend:     backend,
		Tick:        tick,
		T:           float64(rec.Time),
		Held:        rec.Held,
		Dropped:     rec.Measurement.Dropped,
		OLTPDropout: rec.Measurement.OLTPDropout,
		Utility:     rec.Utility,
		RunnerUp:    rec.Search.RunnerUp,
		HasRunnerUp: rec.Search.HasRunnerUp,
		Iterations:  rec.Search.Iterations,
		Candidates:  rec.Search.Candidates,
		Infeasible:  rec.Search.Infeasible,
		OLTPSlope:   rec.OLTPSlope,
	}
	if rec.Search.Infeasible {
		r.Binding = int(rec.Search.Binding)
	}
	for _, id := range dw.ids {
		cm := dw.class[id]
		cd := ClassDecision{
			Class: int(id),
			Limit: rec.Limits[id],
			Goal:  cm.Target,
		}
		if prev != nil {
			if row := prev.classRow(int(id)); row != nil {
				cd.PrevLimit = row.Limit
			}
		}
		cd.Measured, cd.Samples, cd.Idle = measuredValue(cm, rec.Measurement)
		if !rec.Held {
			cd.Predicted = rec.Predicted[id]
			if p, ok := rec.Provenance[id]; ok {
				cd.Model, cd.Anchor, cd.AnchorLimit = p.Model, p.Anchor, p.AnchorLimit
			}
			if cs, ok := rec.Search.Class(id); ok {
				cd.Ceiling = cs.Ceiling
				cd.GoalMet = cs.GoalMet
				cd.Reachable = cs.Reachable
				cd.Shortfall = cs.Shortfall
			}
			cd.Attainment = rec.Attainment[id]
			cd.BurnRate = rec.BurnRate[id]
		}
		r.Classes = append(r.Classes, cd)
	}
	return r
}

// classRow finds a class's row in a record (rows are sorted by class).
func (r *Record) classRow(class int) *ClassDecision {
	for i := range r.Classes {
		if r.Classes[i].Class == class {
			return &r.Classes[i]
		}
	}
	return nil
}

// measuredValue extracts one class's harvested metric: velocity for
// OLAP rows, mean response time for OLTP rows, with the sample count
// behind it and the idle flag.
func measuredValue(cm ClassMeta, meas core.Measurement) (v float64, samples int, idle bool) {
	id := engine.ClassID(cm.ID)
	if cm.Kind == workload.OLTP.String() {
		return meas.OLTPRespTime, meas.OLTPSamples, false
	}
	return meas.Velocity[id], meas.VelocitySamples[id], meas.Idle[id]
}

// outcomes closes a pending record's prediction window with the next
// tick's harvest: one Outcome per class the harvest actually observed
// (idle classes, empty OLTP intervals, and fault-dropped views yield
// none — mirroring the scheduler's SLO accounting).
func (dw *Writer) outcomes(pending *Record, meas core.Measurement) []Outcome {
	if meas.Dropped {
		return nil
	}
	var out []Outcome
	for _, id := range dw.ids {
		cm := dw.class[id]
		var v float64
		observed := false
		if cm.Kind == workload.OLTP.String() {
			if meas.OLTPSamples > 0 && !meas.OLTPDropout {
				v, observed = meas.OLTPRespTime, true
			}
		} else if !meas.Idle[id] {
			v, observed = meas.Velocity[id], true
		}
		if !observed {
			continue
		}
		o := Outcome{Class: int(id), Value: v, GoalMet: goalMet(cm, v)}
		if !pending.Held {
			if row := pending.classRow(int(id)); row != nil {
				o.AbsError = math.Abs(row.Predicted - v)
			}
		}
		out = append(out, o)
	}
	return out
}

// goalMet applies the class's goal direction: velocity goals are
// "at least", response-time goals "at most".
func goalMet(cm ClassMeta, v float64) bool {
	if cm.Metric == workload.Velocity.String() {
		return v >= cm.Target
	}
	return v <= cm.Target
}
