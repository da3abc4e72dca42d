// The qtrace explain engine: answers "why did class X behave that way in
// period K?" from an exported JSONL trace — admission-wait vs execution
// breakdown, queue-depth timeline, plan-change markers, and a per-query
// lifetime Gantt. cmd/qtrace is a thin flag wrapper over this file so the
// logic stays testable.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/engine"
	"repro/internal/report"
	"repro/internal/simclock"
)

// ExplainQuery addresses one class/period cell of the report tables, or
// a contiguous run of periods ("period=3-5").
type ExplainQuery struct {
	Class  engine.ClassID
	Period int // 1-based, as report tables print it
	// PeriodEnd is the inclusive last period; equal to Period for a
	// single-period query.
	PeriodEnd int
}

// ParseExplainQuery parses an -explain spec like "class=B period=3" or
// "class=B period=3-5". Classes may be named by numeric ID, by letter
// (A = the first class in the trace header, B the second, ...), or by
// class name; periods are 1-based to match the period tables, singly or
// as an inclusive range.
func ParseExplainQuery(spec string, meta Meta) (ExplainQuery, error) {
	var q ExplainQuery
	f, err := ParseSpec(spec, "class", "period")
	if err != nil {
		return q, fmt.Errorf("explain: %w", err)
	}
	if f["class"] == "" || f["period"] == "" {
		return q, fmt.Errorf("explain: spec %q must set class= and period=", spec)
	}
	i, err := ResolveClass(f["class"], len(meta.Classes), func(i int) (int, string) {
		return meta.Classes[i].ID, meta.Classes[i].Name
	})
	if err != nil {
		return q, fmt.Errorf("explain: %w", err)
	}
	q.Class = engine.ClassID(meta.Classes[i].ID)
	if q.Period, q.PeriodEnd, err = ParseRange(f["period"]); err != nil {
		return q, fmt.Errorf("explain: period: %w", err)
	}
	if q.PeriodEnd > meta.Periods {
		return q, fmt.Errorf("explain: period %s out of range 1..%d", f["period"], meta.Periods)
	}
	return q, nil
}

// Explanation is the analyzed cell, ready to render.
type Explanation struct {
	Meta   Meta
	Class  ClassMeta
	Period int // 1-based
	// PeriodEnd is the inclusive last period of the analyzed window;
	// equal to Period for single-period queries.
	PeriodEnd int
	Start     simclock.Time
	End       simclock.Time

	// Completed spans of the class whose Done time falls in the window,
	// ordered by query ID — the same bucketing the metrics.Collector
	// period tables use.
	Completed []*Span
	// Submitted counts class queries first submitted during the window.
	Submitted int
	// PendingAtEnd counts class queries first submitted before the window
	// end that had neither completed nor failed by then (still held,
	// executing or awaiting a retry).
	PendingAtEnd int

	WaitMean, WaitMax, WaitTotal float64
	ExecMean, ExecMax, ExecTotal float64
	// VelocityMean is the mean per-query velocity (exec/response) of the
	// period's completions.
	VelocityMean float64

	// QueueDepth[i] samples how many class queries were held at the
	// patroller at the start of the i-th of QueueBins equal slices of
	// the period.
	QueueDepth []float64
	// PlanAtStart is the plan version in force when the period began.
	PlanAtStart int
	// PlanChanges lists the PlanChanged events inside the period.
	PlanChanges []Event
}

// QueueBins is the queue-depth timeline resolution.
const QueueBins = 60

// ExplainJSONL streams a JSONL export and explains one cell. It keeps the
// class's in-flight spans, the window's completions, the queue-depth
// bins and the window's plan changes, never the class's event history.
// Spec errors are wrapped in *SpecError.
func ExplainJSONL(r io.Reader, spec string) (*Explanation, error) {
	var x *explainer
	err := ScanJSONL(r,
		func(m Meta) error {
			q, err := ParseExplainQuery(spec, m)
			if err != nil {
				return &SpecError{Err: err}
			}
			x, err = newExplainer(m, q)
			return err
		},
		func(e Event) error { x.add(e); return nil })
	if err != nil {
		return nil, err
	}
	return x.finish(), nil
}

// explainer accumulates one cell's explanation from a trace's events.
type explainer struct {
	ex    *Explanation
	spans *Lifecycles
	// submitted and ended count the class's queries first submitted, and
	// completed or failed, before the window end.
	submitted, ended int
}

// newExplainer validates a query against the trace header and sets up
// its window. It rejects cells the spec parser would never produce, too.
func newExplainer(meta Meta, q ExplainQuery) (*explainer, error) {
	cm := meta.ClassByID(int(q.Class))
	if cm == nil {
		return nil, fmt.Errorf("explain: class %d not in trace header", q.Class)
	}
	if meta.PeriodSeconds <= 0 {
		return nil, fmt.Errorf("explain: trace header has no period length")
	}
	if q.PeriodEnd < q.Period {
		return nil, fmt.Errorf("explain: period range %d-%d out of order", q.Period, q.PeriodEnd)
	}
	ex := &Explanation{
		Meta:       meta,
		Class:      *cm,
		Period:     q.Period,
		PeriodEnd:  q.PeriodEnd,
		Start:      simclock.Time(q.Period-1) * meta.PeriodSeconds,
		End:        simclock.Time(q.PeriodEnd) * meta.PeriodSeconds,
		QueueDepth: make([]float64, QueueBins),
	}
	x := &explainer{ex: ex}
	x.spans = NewLifecycles(x.end)
	return x, nil
}

func (x *explainer) add(e Event) {
	ex := x.ex
	if e.Kind == PlanChanged {
		if e.Time < ex.Start {
			ex.PlanAtStart = e.Plan
		} else if e.Time < ex.End {
			ex.PlanChanges = append(ex.PlanChanges, e)
		}
		return
	}
	if e.Class != engine.ClassID(ex.Class.ID) {
		return
	}
	s := x.spans.Add(e)
	switch {
	case s == nil:
	case e.Kind == QuerySubmit && s.Attempts == 1 && s.FirstSubmit < ex.End:
		x.submitted++
		if s.FirstSubmit >= ex.Start {
			ex.Submitted++
		}
	case e.Kind == QueryIntercepted:
		x.held(e.Time, 1)
	case e.Kind == QueryReleased && s.Intercept >= 0:
		x.held(e.Time, -1)
	}
}

// held adds delta to every queue-depth sample at or after t. An attempt
// counts as held from its interception until its release, or to the end
// of the trace if it is never released, so intercepts add 1 and releases
// take it back.
func (x *explainer) held(t simclock.Time, delta float64) {
	ex := x.ex
	binLen := (ex.End - ex.Start) / QueueBins
	for i := range ex.QueueDepth {
		if ex.Start+simclock.Time(i)*binLen >= t {
			ex.QueueDepth[i] += delta
		}
	}
}

// end takes one class query that completed or failed.
func (x *explainer) end(s *Span) {
	ex := x.ex
	if s.Done >= ex.End {
		return
	}
	x.ended++
	if s.Completed() && s.Done >= ex.Start {
		ex.Completed = append(ex.Completed, s)
	}
}

func (x *explainer) finish() *Explanation {
	x.spans.Close()
	ex := x.ex
	ex.PendingAtEnd = x.submitted - x.ended
	sort.Slice(ex.Completed, func(i, j int) bool { return ex.Completed[i].Query < ex.Completed[j].Query })
	for _, s := range ex.Completed {
		w, xt := s.AdmissionWait(), s.ExecTime()
		ex.WaitTotal += w
		ex.ExecTotal += xt
		if w > ex.WaitMax {
			ex.WaitMax = w
		}
		if xt > ex.ExecMax {
			ex.ExecMax = xt
		}
		if resp := w + xt; resp > 0 {
			ex.VelocityMean += xt / resp
		}
	}
	if n := float64(len(ex.Completed)); n > 0 {
		ex.WaitMean = ex.WaitTotal / n
		ex.ExecMean = ex.ExecTotal / n
		ex.VelocityMean /= n
	}
	return ex
}

// ganttRows caps the lifetime Gantt at the longest-response completions.
const ganttRows = 12

// ganttWidth is the Gantt's time-axis resolution in columns.
const ganttWidth = 48

// periodLabel names the analyzed window: "period 3" or "periods 3-5".
func (ex *Explanation) periodLabel() string {
	if ex.PeriodEnd > ex.Period {
		return fmt.Sprintf("periods %d-%d", ex.Period, ex.PeriodEnd)
	}
	return fmt.Sprintf("period %d", ex.Period)
}

// Render writes the explanation as a terminal report.
func (ex *Explanation) Render(w io.Writer) {
	fmt.Fprintf(w, "Trace: %s (seed %d), %d × %.0fs periods\n",
		ex.Meta.Experiment, ex.Meta.Seed, ex.Meta.Periods, ex.Meta.PeriodSeconds)
	fmt.Fprintf(w, "Class %d %q (%s, %s), %s [%.0fs, %.0fs)\n\n",
		ex.Class.ID, ex.Class.Name, ex.Class.Kind, ex.Class.Goal,
		ex.periodLabel(), ex.Start, ex.End)

	fmt.Fprintf(w, "Lifecycle breakdown (completions in %s, done-time bucketing):\n", ex.periodLabel())
	fmt.Fprintf(w, "  completed:             %d\n", len(ex.Completed))
	if len(ex.Completed) > 0 {
		resp := ex.WaitTotal + ex.ExecTotal
		pct := func(part float64) float64 {
			if resp <= 0 {
				return 0
			}
			return 100 * part / resp
		}
		fmt.Fprintf(w, "  admission wait:        mean %8.1fs  max %8.1fs  total %10.1fs  (%4.1f%% of response)\n",
			ex.WaitMean, ex.WaitMax, ex.WaitTotal, pct(ex.WaitTotal))
		fmt.Fprintf(w, "  execution:             mean %8.1fs  max %8.1fs  total %10.1fs  (%4.1f%% of response)\n",
			ex.ExecMean, ex.ExecMax, ex.ExecTotal, pct(ex.ExecTotal))
		fmt.Fprintf(w, "  mean velocity:         %.2f\n", ex.VelocityMean)
	}
	fmt.Fprintf(w, "  submitted in window:   %d\n", ex.Submitted)
	fmt.Fprintf(w, "  pending at window end: %d (still held or executing)\n\n", ex.PendingAtEnd)

	depth := report.Chart{
		Title:  fmt.Sprintf("Queue depth (class %d held at patroller), %s", ex.Class.ID, ex.periodLabel()),
		YLabel: "queries held",
		XLabel: fmt.Sprintf("window sliced into %d bins", QueueBins),
		Height: 8,
		Series: []report.Series{{Name: fmt.Sprintf("class %d", ex.Class.ID), Values: ex.QueueDepth}},
	}
	fmt.Fprintln(w, depth.Render())

	fmt.Fprintf(w, "Plan changes in %s (plan v%d in force at window start):\n", ex.periodLabel(), ex.PlanAtStart)
	if len(ex.PlanChanges) == 0 {
		fmt.Fprintf(w, "  (none — limits stayed at plan v%d)\n", ex.PlanAtStart)
	}
	for _, e := range ex.PlanChanges {
		fmt.Fprintf(w, "  t=%8.1fs  v%-4d utility=%.3f  %s\n", e.Time, e.Plan, e.Value, e.Detail)
	}
	fmt.Fprintln(w)

	ex.renderGantt(w)
}

// renderGantt draws the period's longest-response completions as rows of
// '.' (admission wait) and '#' (execution) over the period's time axis.
func (ex *Explanation) renderGantt(w io.Writer) {
	spans := append([]*Span(nil), ex.Completed...)
	sort.Slice(spans, func(i, j int) bool {
		ri := spans[i].AdmissionWait() + spans[i].ExecTime()
		rj := spans[j].AdmissionWait() + spans[j].ExecTime()
		if ri > rj {
			return true
		}
		if rj > ri {
			return false
		}
		return spans[i].Query < spans[j].Query // deterministic tiebreak
	})
	if len(spans) > ganttRows {
		spans = spans[:ganttRows]
	}
	fmt.Fprintf(w, "Query lifetimes (longest %d responses completing in %s; '.' waiting, '#' executing):\n",
		len(spans), ex.periodLabel())
	if len(spans) == 0 {
		fmt.Fprintln(w, "  (no completions)")
		return
	}
	col := func(at simclock.Time) int {
		frac := float64(at-ex.Start) / float64(ex.End-ex.Start)
		c := int(frac * float64(ganttWidth))
		if c < 0 {
			c = 0
		}
		if c >= ganttWidth {
			c = ganttWidth - 1
		}
		return c
	}
	for _, s := range spans {
		row := []byte(strings.Repeat(" ", ganttWidth))
		start := s.Start
		if start < 0 {
			start = s.Done
		}
		for c := col(s.Submit); c <= col(start); c++ {
			row[c] = '.'
		}
		for c := col(start); c <= col(s.Done); c++ {
			row[c] = '#'
		}
		clip := ' '
		if s.Submit < ex.Start {
			clip = '<' // lifetime begins before the period window
		}
		fmt.Fprintf(w, "  q%-7d cost %7.0f %c|%s|  wait %8.1fs  exec %8.1fs\n",
			s.Query, s.Cost, clip, row,
			s.AdmissionWait(), s.ExecTime())
	}
}

// SummarizeJSONL streams a JSONL export and writes the trace's header
// and per-kind event counts — the default qtrace view when no -explain
// spec is given — in constant memory. Nothing is written until the scan
// succeeds, so a corrupt trace produces an error and no partial output.
func SummarizeJSONL(w io.Writer, r io.Reader) error {
	var meta Meta
	total := 0
	counts := make(map[Kind]int)
	byClass := make(map[engine.ClassID]int)
	err := ScanJSONL(r,
		func(m Meta) error { meta = m; return nil },
		func(e Event) error {
			total++
			counts[e.Kind]++
			if e.Kind == QueryDone {
				byClass[e.Class]++
			}
			return nil
		})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Trace: %s (seed %d), format v%d\n", meta.Experiment, meta.Seed, meta.Version)
	fmt.Fprintf(w, "Schedule: %d periods × %.0fs\n", meta.Periods, meta.PeriodSeconds)
	for i, c := range meta.Classes {
		fmt.Fprintf(w, "  class %d %q (%s): %s  [letter %c]\n", c.ID, c.Name, c.Kind, c.Goal, 'A'+i)
	}
	fmt.Fprintf(w, "Events: %d\n", total)
	for k := QuerySubmit; k <= lastKind; k++ {
		if counts[k] > 0 {
			fmt.Fprintf(w, "  %-10s %d\n", k.String(), counts[k])
		}
	}
	var ids []engine.ClassID
	for id := range byClass {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		fmt.Fprintf(w, "Completions class %d: %d\n", id, byClass[id])
	}
	return nil
}
