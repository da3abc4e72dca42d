// Observability wiring for experiment runs: attaches the tracer's JSONL
// sink and the obs metrics registry to a rig, honouring the one-tracer/
// one-registry-per-run isolation the parallel runner depends on. The
// writers are caller-owned; export errors are collected into the result
// rather than interrupting a simulation mid-run.
package experiment

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/decisionlog"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/patroller"
	"repro/internal/trace"
	"repro/internal/workload"
)

// traceRingCap bounds the tracer's in-memory ring during exports. The
// JSONL sink is lossless regardless; the ring only serves interactive
// inspection.
const traceRingCap = 4096

// runObs holds one run's observability attachments.
type runObs struct {
	tracer *trace.Tracer
	reg    *obs.Registry
	mw     io.Writer
	dlog   *decisionlog.Writer
}

// attach wires trace export, metrics and the decision log onto a rig
// whose controllers are already attached (hooks chain on top of the
// monitors'), backends in roster order within each. Attachment order is
// part of the resume contract. Nil writers disable the respective
// output. With resume=true the sinks attach without writing meta lines —
// the resumed files already carry the original headers. A fleet of one
// exports exactly the paper's single-engine streams: no backend meta, no
// backend labels, decision-log stream 0.
func (o *runObs) attach(rig *Rig, cfg MixedConfig, resume bool) error {
	if cfg.Trace != nil {
		tr := trace.New(traceRingCap)
		tr.SetPeriodMapper(cfg.Sched.PeriodAt)
		if resume {
			if err := tr.ResumeJSONL(cfg.Trace); err != nil {
				return err
			}
		} else {
			meta := traceMeta(cfg, rig.Classes)
			meta.Backends = rig.backendsMeta()
			if err := tr.StreamJSONL(cfg.Trace, meta); err != nil {
				return err
			}
		}
		for _, b := range rig.Backends {
			trace.AttachEngine(tr, b.Eng)
			if b.Pat != nil {
				trace.AttachPatroller(tr, b.Pat, rig.Clock)
			}
		}
		// A fleet traces its routing decisions; its per-backend plan
		// changes are not traced (the trace's plan events carry no
		// backend dimension — the decision log is the per-backend
		// planning record).
		if rig.Router != nil {
			trace.AttachRouter(tr, rig.Router, rig.Clock)
		} else if rig.QS != nil {
			trace.AttachScheduler(tr, rig.QS)
		}
		o.tracer = tr
	}
	if cfg.Metrics != nil {
		reg := obs.New(func() float64 { return rig.Clock.Now() })
		if rig.Router != nil {
			for _, b := range rig.Backends {
				instrumentEngine(reg, b.Eng, rig.Classes, obs.L("backend", b.Name()))
			}
		} else {
			instrumentEngine(reg, rig.Eng, rig.Classes)
			if rig.Faults != nil {
				instrumentFaults(reg, rig.Faults[0])
			}
			if rig.Pat != nil {
				instrumentRetries(reg, rig.Pat)
			}
			if rig.QS != nil {
				rig.QS.Instrument(reg)
			}
		}
		o.reg = reg
		o.mw = cfg.Metrics
	}
	if cfg.Decisions != nil {
		if rig.QS == nil {
			return fmt.Errorf("experiment: decision log requires a query-scheduler run")
		}
		meta := decisionMeta(cfg, rig)
		var dw *decisionlog.Writer
		var err error
		if resume {
			dw, err = decisionlog.ResumeWriter(cfg.Decisions, meta)
		} else {
			dw, err = decisionlog.NewWriter(cfg.Decisions, meta)
		}
		if err != nil {
			return err
		}
		for _, b := range rig.Backends {
			stream := 0
			if rig.Router != nil {
				stream = b.ID()
			}
			b.QS.OnPlan(func(rec core.PlanRecord) { dw.NoteBackend(stream, rec) })
		}
		o.dlog = dw
	}
	return nil
}

// finish flushes the metrics exposition and reports the first export
// error (trace sink or metrics write) the run hit.
func (o *runObs) finish() error {
	if o == nil {
		return nil
	}
	if o.tracer != nil {
		if err := o.tracer.SinkErr(); err != nil {
			return fmt.Errorf("experiment: trace export: %w", err)
		}
	}
	if o.dlog != nil {
		o.dlog.Flush()
		if err := o.dlog.Err(); err != nil {
			return fmt.Errorf("experiment: decision-log export: %w", err)
		}
	}
	if o.reg != nil {
		if err := o.reg.WriteText(o.mw); err != nil {
			return fmt.Errorf("experiment: metrics export: %w", err)
		}
	}
	return nil
}

// decisionMeta builds the decision log's meta line for a mixed run.
func decisionMeta(cfg MixedConfig, rig *Rig) decisionlog.Meta {
	qc := rig.QS.Config()
	m := decisionlog.Meta{
		Experiment:      cfg.Experiment,
		Seed:            int64(cfg.Seed),
		ControlInterval: qc.ControlInterval,
		SLOWindow:       qc.SLOWindow,
		SLOBudget:       qc.SLOBudget,
		Classes:         decisionlog.ClassesMeta(rig.Classes),
	}
	if m.Experiment == "" {
		m.Experiment = cfg.Mode.String()
	}
	for _, bm := range rig.backendsMeta() {
		m.Backends = append(m.Backends, decisionlog.BackendMeta(bm))
	}
	return m
}

// traceMeta builds the trace header for a mixed run.
func traceMeta(cfg MixedConfig, classes []*workload.Class) trace.Meta {
	m := trace.Meta{
		Experiment:    cfg.Experiment,
		Seed:          int64(cfg.Seed),
		PeriodSeconds: cfg.Sched.PeriodSeconds,
		Periods:       cfg.Sched.Periods(),
	}
	if m.Experiment == "" {
		m.Experiment = cfg.Mode.String()
	}
	for _, c := range classes {
		m.Classes = append(m.Classes, trace.ClassMeta{
			ID:     int(c.ID),
			Name:   c.Name,
			Kind:   c.Kind.String(),
			Goal:   c.Goal.String(),
			Target: c.Goal.Target,
		})
	}
	return m
}

// classDense caches a per-class instrument in a slice indexed by
// (class - base), falling back to a lazy map for classes outside the
// span the run was configured with. The engine's lifecycle hooks fire
// once per query, so these caches are on the allocation-free hot path.
type classDense[T any] struct {
	base  engine.ClassID
	dense []*T
	far   map[engine.ClassID]*T
}

func newClassDense[T any](classes []*workload.Class) *classDense[T] {
	d := &classDense[T]{}
	if len(classes) > 0 {
		lo, hi := classes[0].ID, classes[0].ID
		for _, c := range classes {
			if c.ID < lo {
				lo = c.ID
			}
			if c.ID > hi {
				hi = c.ID
			}
		}
		d.base = lo
		d.dense = make([]*T, int(hi-lo)+1)
	}
	return d
}

// get returns the cached instrument for id, or nil if make must be called.
func (d *classDense[T]) get(id engine.ClassID, mk func() *T) *T {
	if s := int(id - d.base); s >= 0 && s < len(d.dense) {
		if d.dense[s] == nil {
			d.dense[s] = mk()
		}
		return d.dense[s]
	}
	v, ok := d.far[id]
	if !ok {
		v = mk()
		if d.far == nil {
			d.far = make(map[engine.ClassID]*T)
		}
		d.far[id] = v
	}
	return v
}

// instrumentEngine registers run-level query counters and latency
// histograms fed from the engine's lifecycle hooks, so every mode — not
// just Query Scheduler runs — produces a metrics exposition. A fleet of
// two or more passes an extra backend label per engine; the instruments are created
// lazily once per class, so the label slice is built off the hot path.
func instrumentEngine(reg *obs.Registry, eng *engine.Engine, classes []*workload.Class, extra ...obs.Label) {
	submitted := newClassDense[obs.Counter](classes)
	completed := newClassDense[obs.Counter](classes)
	failed := newClassDense[obs.Counter](classes)
	resp := newClassDense[obs.Histogram](classes)
	labels := func(id engine.ClassID) []obs.Label {
		ls := append([]obs.Label{}, extra...)
		return append(ls, obs.L("class", fmt.Sprintf("%d", int(id))))
	}
	eng.OnSubmit(func(q *engine.Query) {
		submitted.get(q.Class, func() *obs.Counter {
			return reg.Counter("queries_submitted_total",
				"Queries submitted to the engine, per class.", labels(q.Class)...)
		}).Inc()
	})
	eng.OnDone(func(q *engine.Query) {
		if q.State != engine.StateDone {
			// Terminal failure: count separately, and keep the response
			// histogram honest (an aborted query has no response time).
			failed.get(q.Class, func() *obs.Counter {
				return reg.Counter("queries_failed_total",
					"Queries that ended in terminal failure (aborted, retries exhausted), per class.",
					labels(q.Class)...)
			}).Inc()
			return
		}
		completed.get(q.Class, func() *obs.Counter {
			return reg.Counter("queries_completed_total",
				"Queries completed by the engine, per class.", labels(q.Class)...)
		}).Inc()
		resp.get(q.Class, func() *obs.Histogram {
			return reg.Histogram("query_response_seconds",
				"End-to-end response time (submit to done), per class.",
				obs.DefaultDurationBuckets(), labels(q.Class)...)
		}).Observe(q.ResponseTime())
	})
}

// instrumentFaults exposes every injection as fault_injected_total{kind,
// class}, chaining any OnInject observer already installed.
func instrumentFaults(reg *obs.Registry, inj *fault.Injector) {
	counters := make(map[string]*obs.Counter)
	prev := inj.OnInject
	inj.OnInject = func(kind string, class engine.ClassID) {
		if prev != nil {
			prev(kind, class)
		}
		key := fmt.Sprintf("%s/%d", kind, int(class))
		c, ok := counters[key]
		if !ok {
			c = reg.Counter("fault_injected_total",
				"Faults injected, by kind and class (class 0 = system-wide).",
				obs.L("kind", kind), obs.L("class", fmt.Sprintf("%d", int(class))))
			counters[key] = c
		}
		c.Inc()
	}
}

// instrumentRetries exposes query_retries_total{class}, chaining the
// patroller's retry hook.
func instrumentRetries(reg *obs.Registry, pat *patroller.Patroller) {
	counters := make(map[engine.ClassID]*obs.Counter)
	prev := pat.OnRetry
	pat.OnRetry = func(qi *patroller.QueryInfo) {
		if prev != nil {
			prev(qi)
		}
		c, ok := counters[qi.Class]
		if !ok {
			c = reg.Counter("query_retries_total",
				"Failed managed queries resubmitted by the retry policy, per class.",
				obs.L("class", fmt.Sprintf("%d", int(qi.Class))))
			counters[qi.Class] = c
		}
		c.Inc()
	}
}
