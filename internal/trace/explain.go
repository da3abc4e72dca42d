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
	"strconv"
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
	// PeriodEnd is the inclusive last period of a range selector; zero
	// means the single period named by Period.
	PeriodEnd int
}

// ParseExplainQuery parses an -explain spec like "class=B period=3" or
// "class=B period=3-5". Classes may be named by numeric ID, by letter
// (A = the first class in the trace header, B the second, ...), or by
// class name; periods are 1-based to match the period tables, singly or
// as an inclusive range.
func ParseExplainQuery(spec string, meta Meta) (ExplainQuery, error) {
	var q ExplainQuery
	sawClass, sawPeriod := false, false
	for _, field := range strings.Fields(spec) {
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return q, fmt.Errorf("explain: %q is not key=value", field)
		}
		switch key {
		case "class":
			id, err := resolveClass(val, meta)
			if err != nil {
				return q, err
			}
			q.Class = id
			sawClass = true
		case "period":
			lo, hi, ranged := strings.Cut(val, "-")
			p, err := strconv.Atoi(lo)
			if err != nil {
				return q, fmt.Errorf("explain: bad period %q", val)
			}
			if p < 1 || p > meta.Periods {
				return q, fmt.Errorf("explain: period %d out of range 1..%d", p, meta.Periods)
			}
			q.Period = p
			if ranged {
				pe, err := strconv.Atoi(hi)
				if err != nil {
					return q, fmt.Errorf("explain: bad period range %q", val)
				}
				if pe < p || pe > meta.Periods {
					return q, fmt.Errorf("explain: period range %q out of order or beyond 1..%d", val, meta.Periods)
				}
				q.PeriodEnd = pe
			}
			sawPeriod = true
		default:
			return q, fmt.Errorf("explain: unknown key %q (want class=, period=)", key)
		}
	}
	if !sawClass || !sawPeriod {
		return q, fmt.Errorf("explain: spec %q must set class= and period=", spec)
	}
	return q, nil
}

// resolveClass maps a class spec (ID, letter, or name) to a class ID.
func resolveClass(val string, meta Meta) (engine.ClassID, error) {
	if n, err := strconv.Atoi(val); err == nil {
		for _, c := range meta.Classes {
			if c.ID == n {
				return engine.ClassID(n), nil
			}
		}
		return 0, fmt.Errorf("explain: no class with ID %d in trace", n)
	}
	if len(val) == 1 && val[0] >= 'A' && val[0] <= 'Z' {
		i := int(val[0] - 'A')
		if i < len(meta.Classes) {
			return engine.ClassID(meta.Classes[i].ID), nil
		}
		return 0, fmt.Errorf("explain: class %q but trace has only %d classes", val, len(meta.Classes))
	}
	for _, c := range meta.Classes {
		if strings.EqualFold(c.Name, val) {
			return engine.ClassID(c.ID), nil
		}
	}
	return 0, fmt.Errorf("explain: unknown class %q", val)
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
	// Horizon is the trace's last event time (spans still open accrue
	// wait/execution against it).
	Horizon simclock.Time

	// Completed spans of the class whose DoneTime falls in the period —
	// the same bucketing the metrics.Collector period tables use.
	Completed []*Span
	// Submitted counts class queries arriving during the period.
	Submitted int
	// PendingAtEnd counts class queries submitted by period end and not
	// completed by then (still held or executing).
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

// SpecError marks a malformed or out-of-range -explain spec, so callers
// can distinguish usage mistakes from trace problems.
type SpecError struct{ Err error }

func (e *SpecError) Error() string { return e.Err.Error() }
func (e *SpecError) Unwrap() error { return e.Err }

// ExplainJSONL streams a JSONL export and explains one cell, holding
// only the target class's events and the trace's plan changes in memory
// rather than the whole event list. Spec errors are wrapped in
// *SpecError.
func ExplainJSONL(r io.Reader, spec string) (*Explanation, error) {
	var (
		meta    Meta
		q       ExplainQuery
		events  []Event
		horizon simclock.Time
	)
	err := ScanJSONL(r,
		func(m Meta) error {
			meta = m
			var perr error
			if q, perr = ParseExplainQuery(spec, m); perr != nil {
				return &SpecError{Err: perr}
			}
			return nil
		},
		func(e Event) error {
			// The horizon is the last event time of the WHOLE trace, not
			// of the kept subset — open spans accrue wait against it.
			if e.Time > horizon {
				horizon = e.Time
			}
			if e.Class == q.Class || e.Kind == PlanChanged {
				events = append(events, e)
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	return explainCell(meta, events, horizon, q)
}

// explainCell analyzes a cell from the trace header, an event slice,
// and the trace-wide horizon (max event time over all events). events
// may be the full trace or any superset of the target class's events
// plus every PlanChanged event — BuildSpans skips non-lifecycle kinds
// and the analysis filters spans by class, so both give the same
// answer.
func explainCell(meta Meta, events []Event, horizon simclock.Time, q ExplainQuery) (*Explanation, error) {
	cm := meta.ClassByID(int(q.Class))
	if cm == nil {
		return nil, fmt.Errorf("explain: class %d not in trace header", q.Class)
	}
	if meta.PeriodSeconds <= 0 {
		return nil, fmt.Errorf("explain: trace header has no period length")
	}
	pe := q.PeriodEnd
	if pe == 0 {
		pe = q.Period
	}
	if pe < q.Period {
		return nil, fmt.Errorf("explain: period range %d-%d out of order", q.Period, pe)
	}
	ex := &Explanation{
		Meta:      meta,
		Class:     *cm,
		Period:    q.Period,
		PeriodEnd: pe,
		Start:     simclock.Time(q.Period-1) * meta.PeriodSeconds,
		End:       simclock.Time(pe) * meta.PeriodSeconds,
		Horizon:   horizon,
	}
	if ex.Horizon < ex.End {
		ex.Horizon = ex.End
	}

	spans := BuildSpans(events)
	for _, s := range spans {
		if s.Class != q.Class {
			continue
		}
		if s.Submit >= ex.Start && s.Submit < ex.End {
			ex.Submitted++
		}
		if s.Submit < ex.End && (!s.Completed() || s.Done >= ex.End) {
			ex.PendingAtEnd++
		}
		if s.Completed() && s.Done >= ex.Start && s.Done < ex.End {
			ex.Completed = append(ex.Completed, s)
		}
	}
	for _, s := range ex.Completed {
		w, x := s.AdmissionWait(ex.Horizon), s.ExecTime(ex.Horizon)
		ex.WaitTotal += w
		ex.ExecTotal += x
		if w > ex.WaitMax {
			ex.WaitMax = w
		}
		if x > ex.ExecMax {
			ex.ExecMax = x
		}
		if resp := w + x; resp > 0 {
			ex.VelocityMean += x / resp
		}
	}
	if n := float64(len(ex.Completed)); n > 0 {
		ex.WaitMean = ex.WaitTotal / n
		ex.ExecMean = ex.ExecTotal / n
		ex.VelocityMean /= n
	}

	// Queue depth: a query is "held" from interception to release (or the
	// horizon, if never released).
	ex.QueueDepth = make([]float64, QueueBins)
	binLen := (ex.End - ex.Start) / QueueBins
	for _, s := range spans {
		if s.Class != q.Class || !s.Managed() {
			continue
		}
		held0 := s.Intercept
		held1 := ex.Horizon
		if s.Release >= 0 {
			held1 = s.Release
		}
		for i := 0; i < QueueBins; i++ {
			at := ex.Start + simclock.Time(i)*binLen
			if at >= held0 && at < held1 {
				ex.QueueDepth[i]++
			}
		}
	}

	for _, e := range events {
		if e.Kind != PlanChanged {
			continue
		}
		if e.Time < ex.Start {
			ex.PlanAtStart = e.Plan
		} else if e.Time < ex.End {
			ex.PlanChanges = append(ex.PlanChanges, e)
		}
	}
	return ex, nil
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
		ri := spans[i].AdmissionWait(ex.Horizon) + spans[i].ExecTime(ex.Horizon)
		rj := spans[j].AdmissionWait(ex.Horizon) + spans[j].ExecTime(ex.Horizon)
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
			s.AdmissionWait(ex.Horizon), s.ExecTime(ex.Horizon))
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
	for k := QuerySubmit; k <= WorkloadShift; k++ {
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
