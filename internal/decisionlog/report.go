// The qreport engine: turns a decision audit log (plus optionally a
// trace and a metrics exposition) into an operator report — run summary
// with SLO attainment accounting, per-tick plan timeline, per-class
// "why" lines, and violation attribution that decomposes each missed
// goal into infeasible-goal vs fault/retry vs admission-wait vs
// execution-time shares. cmd/qreport is a thin flag wrapper over this
// file so the logic stays testable. Every view streams its input:
// memory is bounded by the answer (per-class tallies), not by the log
// or trace size.
package decisionlog

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/engine"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TickRange selects an inclusive 1-based tick window; zero bounds are
// open ("" selects everything, "7" one tick, "3-5" a range).
type TickRange struct{ From, To int }

// ParseTickRange parses "", "N", or "N-M".
func ParseTickRange(spec string) (TickRange, error) {
	if spec == "" {
		return TickRange{}, nil
	}
	from, to, err := trace.ParseRange(spec)
	if err != nil {
		return TickRange{}, fmt.Errorf("report: tick: %w", err)
	}
	return TickRange{From: from, To: to}, nil
}

// Validate rejects a window whose explicit bounds lie beyond the log's
// last tick. A request like tick=3-99 against a 57-tick log is a spec
// mistake; rendering a silently empty (or silently truncated) breakdown
// would hide it, so report it as an error instead.
func (tr TickRange) Validate(lastTick int) error {
	hi := tr.To
	if hi == 0 {
		hi = tr.From
	}
	if hi == 0 || hi <= lastTick {
		return nil
	}
	if tr.From == tr.To {
		return fmt.Errorf("report: tick %d out of range 1..%d", hi, lastTick)
	}
	return fmt.Errorf("report: tick range %d-%d extends past last tick %d", tr.From, tr.To, lastTick)
}

// Contains reports whether tick falls in the window.
func (tr TickRange) Contains(tick int) bool {
	if tr.From > 0 && tick < tr.From {
		return false
	}
	if tr.To > 0 && tick > tr.To {
		return false
	}
	return true
}

// velocityGoal reports whether a roster class carries a velocity
// ("at least") goal rather than a response-time ("at most") one.
func velocityGoal(cm ClassMeta) bool {
	return cm.Metric == workload.Velocity.String()
}

// metricLabel is the short metric tag used in report lines.
func metricLabel(cm ClassMeta) string {
	if velocityGoal(cm) {
		return "v"
	}
	return "rt"
}

// classSummary accumulates one class's tallies over the whole log.
type classSummary struct {
	observed, met int // back-filled Actual outcomes and how many met goal
	errSum        float64
	errMax        float64
	errN          int // planned-tick outcomes with a prediction behind them
	attainment    float64
	burnRate      float64
	hasWindow     bool // saw at least one planned tick
}

// summaryAcc folds decision records into the report summary.
type summaryAcc struct {
	meta       Meta
	ticks      int
	held       int
	dropped    int
	infeasible int
	binding    map[int]int
	candidates int
	iterations int
	churn      int // ticks where at least one limit moved
	class      map[int]*classSummary
}

func newSummaryAcc(meta Meta) *summaryAcc {
	a := &summaryAcc{meta: meta, binding: make(map[int]int), class: make(map[int]*classSummary)}
	for _, c := range meta.Classes {
		a.class[c.ID] = &classSummary{}
	}
	return a
}

func (a *summaryAcc) add(r Record) {
	a.ticks++
	if r.Dropped {
		a.dropped++
	}
	if r.Held {
		a.held++
	} else {
		a.candidates += r.Candidates
		a.iterations += r.Iterations
		if r.Infeasible {
			a.infeasible++
			a.binding[r.Binding]++
		}
		moved := false
		for _, cd := range r.Classes {
			//lint:ignore floateq limits are actuated values copied verbatim between records; any bit change is a real plan change
			if cd.Limit != cd.PrevLimit {
				moved = true
			}
			if cs := a.class[cd.Class]; cs != nil {
				cs.attainment, cs.burnRate, cs.hasWindow = cd.Attainment, cd.BurnRate, true
			}
		}
		if moved {
			a.churn++
		}
	}
	for _, o := range r.Actual {
		cs := a.class[o.Class]
		if cs == nil {
			continue
		}
		cs.observed++
		if o.GoalMet {
			cs.met++
		}
		if !r.Held {
			cs.errN++
			cs.errSum += o.AbsError
			if o.AbsError > cs.errMax {
				cs.errMax = o.AbsError
			}
		}
	}
}

func (a *summaryAcc) render(w io.Writer) {
	m := a.meta
	fmt.Fprintf(w, "Decision log: %s (seed %d), format v%d\n", m.Experiment, m.Seed, m.Version)
	fmt.Fprintf(w, "Control: interval %.0fs, SLO window %d ticks, budget %.2f\n", m.ControlInterval, m.SLOWindow, m.SLOBudget)
	for i, c := range m.Classes {
		dir := ">="
		if !velocityGoal(c) {
			dir = "<="
		}
		fmt.Fprintf(w, "  class %d %q (%s): %s %s %g, importance %d  [letter %c]\n",
			c.ID, c.Name, c.Kind, metricLabel(c), dir, c.Target, c.Importance, 'A'+i)
	}
	planned := a.ticks - a.held
	fmt.Fprintf(w, "Ticks: %d total, %d held, %d degraded harvests\n", a.ticks, a.held, a.dropped)
	if planned > 0 {
		fmt.Fprintf(w, "Solver: mean candidates %.1f, mean iterations %.1f over %d planned ticks; plan changed on %d\n",
			float64(a.candidates)/float64(planned), float64(a.iterations)/float64(planned), planned, a.churn)
		fmt.Fprintf(w, "Feasibility: no plan met all goals on %d/%d planned ticks", a.infeasible, planned)
		if a.infeasible > 0 {
			var ids []int
			for id := range a.binding {
				ids = append(ids, id)
			}
			sort.Ints(ids)
			parts := make([]string, 0, len(ids))
			for _, id := range ids {
				parts = append(parts, fmt.Sprintf("%s x%d", metaClassName(a.meta, id), a.binding[id]))
			}
			fmt.Fprintf(w, " (binding: %s)", strings.Join(parts, ", "))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "\nSLO attainment (goal-met outcomes over the whole log; window columns from the last planned tick):\n")
	fmt.Fprintf(w, "  %-12s %9s %6s %10s %8s %8s %10s %10s\n",
		"class", "observed", "met", "attainment", "window", "burn", "mean|err|", "max|err|")
	for _, c := range m.Classes {
		cs := a.class[c.ID]
		att, errMean := "-", "-"
		if cs.observed > 0 {
			att = fmt.Sprintf("%.2f", float64(cs.met)/float64(cs.observed))
		}
		if cs.errN > 0 {
			errMean = fmt.Sprintf("%.4f", cs.errSum/float64(cs.errN))
		}
		win, burn := "-", "-"
		if cs.hasWindow {
			win = fmt.Sprintf("%.2f", cs.attainment)
			burn = fmt.Sprintf("%.2f", cs.burnRate)
		}
		fmt.Fprintf(w, "  %-12s %9d %6d %10s %8s %8s %10s %10.4f\n",
			c.Name, cs.observed, cs.met, att, win, burn, errMean, cs.errMax)
	}
}

// Summarize streams a decision log and writes the run summary: header,
// solver/feasibility tallies, and the SLO attainment table. Nothing is
// written until the scan succeeds. Fleet logs (meta carrying a backend
// roster) get one summary section per backend stream, plus the roster.
func Summarize(w io.Writer, r io.Reader) error {
	var meta Meta
	accs := make(map[int]*summaryAcc)
	err := ScanJSONL(r,
		func(m Meta) error { meta = m; return nil },
		func(rec Record) error {
			a := accs[rec.Backend]
			if a == nil {
				a = newSummaryAcc(meta)
				accs[rec.Backend] = a
			}
			a.add(rec)
			return nil
		}, nil)
	if err != nil {
		return err
	}
	if len(meta.Backends) == 0 {
		a := accs[0]
		if a == nil {
			a = newSummaryAcc(meta)
		}
		a.render(w)
		return nil
	}
	fmt.Fprintf(w, "Fleet decision log: %s (seed %d), format v%d — %d backends\n",
		meta.Experiment, meta.Seed, meta.Version, len(meta.Backends))
	for _, b := range meta.Backends {
		fmt.Fprintf(w, "  backend %d %q: cpu %g, io %g\n", b.ID, b.Name, b.CPU, b.IO)
	}
	for _, b := range meta.Backends {
		fmt.Fprintf(w, "\n=== backend %d: %s ===\n", b.ID, b.Name)
		a := accs[b.ID]
		if a == nil {
			fmt.Fprintf(w, "(no decision records)\n")
			continue
		}
		a.render(w)
	}
	return nil
}

// Timeline streams a decision log and writes one line per control tick
// in the window: time, utility, search effort, actuated limits, and
// feasibility/outcome flags. Lines print as records are scanned, so
// memory stays constant; corrupt input can leave partial output behind
// the returned error. Fleet logs get their availability spans and
// failover/migration markers appended after the tick lines.
func Timeline(w io.Writer, r io.Reader, window TickRange) error {
	var meta Meta
	var health fleetHealth
	lastTick := 0
	err := ScanJSONL(r,
		func(m Meta) error {
			meta = m
			fmt.Fprintf(w, "Decision timeline: %s (seed %d)\n", m.Experiment, m.Seed)
			return nil
		},
		func(rec Record) error {
			if rec.Tick > lastTick {
				lastTick = rec.Tick
			}
			if !window.Contains(rec.Tick) {
				return nil
			}
			writeTimelineLine(w, meta, rec)
			return nil
		},
		func(fr FleetRecord) error { health.add(fr); return nil })
	if err != nil {
		return err
	}
	if verr := window.Validate(lastTick); verr != nil {
		return &trace.SpecError{Err: verr}
	}
	health.render(w, meta)
	return nil
}

func writeTimelineLine(w io.Writer, meta Meta, rec Record) {
	var b strings.Builder
	fmt.Fprintf(&b, "tick %4d", rec.Tick)
	if rec.Backend > 0 {
		fmt.Fprintf(&b, " b%d", rec.Backend)
	}
	fmt.Fprintf(&b, "  t=%9.1fs", rec.T)
	if rec.Held {
		b.WriteString("  held (degraded harvest, limits frozen)")
	} else {
		fmt.Fprintf(&b, "  util %8.3f  cand %3d  limits:", rec.Utility, rec.Candidates)
		for _, cd := range rec.Classes {
			fmt.Fprintf(&b, " %d=%.0f", cd.Class, cd.Limit)
		}
		if rec.Infeasible {
			fmt.Fprintf(&b, "  INFEASIBLE binding=%s", metaClassName(meta, rec.Binding))
		}
	}
	if missed := missedClasses(rec); len(missed) > 0 {
		fmt.Fprintf(&b, "  missed:%s", joinInts(missed))
	}
	fmt.Fprintln(w, b.String())
}

// fleetHealth collects the fleet records interleaved in a fleet decision
// log. NoteFleet writes them unbuffered at event time, so they arrive in
// time order and every event at or before a decision record's T precedes
// that record in the file — which is what lets Why annotate streamed
// INFEASIBLE verdicts with the capacity already known to be lost.
type fleetHealth struct {
	events []FleetRecord
}

func (fh *fleetHealth) add(fr FleetRecord) { fh.events = append(fh.events, fr) }

// availability transitions map a fleet event to the backend state it
// enters; migration markers return "" (they move demand, not capacity).
func availabilityState(fr FleetRecord) string {
	switch fr.Event {
	case "failover":
		return "DOWN"
	case "recover", "restored":
		return "UP"
	case "degraded":
		return fmt.Sprintf("DEGRADED x%.2f", fr.Factor)
	}
	return ""
}

// render writes the backend availability spans and the fleet event
// markers. A log with no fleet records (single engine, or a fleet that
// never saw a fault) renders nothing.
func (fh *fleetHealth) render(w io.Writer, meta Meta) {
	if len(fh.events) == 0 || len(meta.Backends) == 0 {
		return
	}
	fmt.Fprintln(w, "Backend availability:")
	for _, bk := range meta.Backends {
		state, from := "UP", 0.0
		redispatched := 0
		var spans []string
		for _, fr := range fh.events {
			if fr.Backend != bk.ID {
				continue
			}
			if fr.Event == "failover" {
				redispatched += fr.Moved
			}
			next := availabilityState(fr)
			if next == "" || next == state {
				continue
			}
			spans = append(spans, fmt.Sprintf("%s %.0fs-%.0fs", state, from, fr.T))
			state, from = next, fr.T
		}
		spans = append(spans, fmt.Sprintf("%s %.0fs-end", state, from))
		line := fmt.Sprintf("  backend %d: %s", bk.ID, strings.Join(spans, ", "))
		if redispatched > 0 {
			line += fmt.Sprintf("  (%d queries re-dispatched on failover)", redispatched)
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintln(w, "Fleet events:")
	for _, fr := range fh.events {
		fmt.Fprintf(w, "  t=%9.1fs  %s\n", fr.T, fleetEventLine(meta, fr))
	}
}

// fleetEventLine renders one fleet record as an operator-readable marker.
func fleetEventLine(meta Meta, fr FleetRecord) string {
	switch fr.Event {
	case "failover":
		return fmt.Sprintf("backend %d DOWN — failover, %d queries re-dispatched to survivors", fr.Backend, fr.Moved)
	case "recover":
		return fmt.Sprintf("backend %d UP — rejoined with warm-up share", fr.Backend)
	case "degraded":
		return fmt.Sprintf("backend %d DEGRADED — running at x%.2f speed", fr.Backend, fr.Factor)
	case "restored":
		return fmt.Sprintf("backend %d restored to full speed", fr.Backend)
	case "migration":
		return fmt.Sprintf("backend %d infeasible — migrating %s to backend %d", fr.Backend, metaClassName(meta, fr.Class), fr.Target)
	case "migration-end":
		// Ends either because the source plans feasibly again or because
		// it died; the record does not distinguish.
		return fmt.Sprintf("migration of %s off backend %d ended", metaClassName(meta, fr.Class), fr.Backend)
	case "shed":
		return fmt.Sprintf("backend %d infeasible, no healthy peer — shedding %s", fr.Backend, metaClassName(meta, fr.Class))
	}
	return fmt.Sprintf("backend %d %s", fr.Backend, fr.Event)
}

// capacityNote names the capacity lost as of time t — the backends down
// or degraded — so an INFEASIBLE verdict can say what broke the plan.
// Returns "" when the fleet was whole.
func (fh *fleetHealth) capacityNote(t float64) string {
	type bkState struct {
		state  string // "" = up
		since  float64
		factor float64
	}
	states := make(map[int]*bkState)
	order := []int{}
	for _, fr := range fh.events {
		if fr.T > t {
			break // events are time-ordered
		}
		st := states[fr.Backend]
		if st == nil {
			st = &bkState{}
			states[fr.Backend] = st
			order = append(order, fr.Backend)
		}
		switch fr.Event {
		case "failover":
			st.state, st.since = "down", fr.T
		case "degraded":
			st.state, st.since, st.factor = "degraded", fr.T, fr.Factor
		case "recover", "restored":
			st.state = ""
		}
	}
	var parts []string
	for _, id := range order {
		st := states[id]
		switch st.state {
		case "down":
			parts = append(parts, fmt.Sprintf("backend %d down since t=%.0fs", id, st.since))
		case "degraded":
			parts = append(parts, fmt.Sprintf("backend %d at x%.2f speed since t=%.0fs", id, st.factor, st.since))
		}
	}
	if len(parts) == 0 {
		return ""
	}
	return "capacity lost: " + strings.Join(parts, ", ")
}

// metaClassName names a roster class, or falls back to its ID.
func metaClassName(meta Meta, id int) string {
	if c, ok := metaClass(meta, id); ok {
		return c.Name
	}
	return fmt.Sprintf("class %d", id)
}

// missedClasses lists the classes whose back-filled outcome missed goal.
func missedClasses(rec Record) []int {
	var out []int
	for _, o := range rec.Actual {
		if !o.GoalMet {
			out = append(out, o.Class)
		}
	}
	return out
}

func joinInts(ids []int) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = strconv.Itoa(id)
	}
	return strings.Join(parts, ",")
}

// WhyQuery addresses one class (and optionally a tick window) of the
// decision log, parsed from a spec like "class=B tick=3-5".
type WhyQuery struct {
	Class  ClassMeta
	Window TickRange
}

// ParseWhyQuery parses a -why spec against the log's roster. Classes may
// be named by numeric ID, letter (A = first roster class), or name;
// ticks are 1-based, singly ("tick=4") or as a range ("tick=3-5").
func ParseWhyQuery(spec string, meta Meta) (WhyQuery, error) {
	var q WhyQuery
	f, err := trace.ParseSpec(spec, "class", "tick")
	if err != nil {
		return q, fmt.Errorf("report: %w", err)
	}
	if f["class"] == "" {
		return q, fmt.Errorf("report: spec %q must set class=", spec)
	}
	i, err := trace.ResolveClass(f["class"], len(meta.Classes), func(i int) (int, string) {
		return meta.Classes[i].ID, meta.Classes[i].Name
	})
	if err != nil {
		return q, fmt.Errorf("report: %w", err)
	}
	q.Class = meta.Classes[i]
	q.Window, err = ParseTickRange(f["tick"])
	return q, err
}

// Why streams a decision log and writes one explanation block per tick
// in the query's window: what the controller did to the class and why —
// the actuation verb, the prediction against the goal, reachability,
// the utility margin over the runner-up plan, and the back-filled
// actual outcome. On fleet logs an INFEASIBLE verdict also names the
// capacity lost (backends down or degraded at that tick), so "the plan
// can't meet the goal" reads as "because a backend died", not as a
// solver mystery. Spec errors are wrapped in *trace.SpecError.
func Why(w io.Writer, r io.Reader, spec string, window TickRange) error {
	var q WhyQuery
	var health fleetHealth
	lastTick := 0
	err := ScanJSONL(r,
		func(m Meta) error {
			var err error
			if q, err = ParseWhyQuery(spec, m); err != nil {
				return &trace.SpecError{Err: err}
			}
			cm := q.Class
			dir := ">="
			if !velocityGoal(cm) {
				dir = "<="
			}
			fmt.Fprintf(w, "Why %s (%s, goal %s %s %g): %s (seed %d)\n",
				cm.Name, cm.Kind, metricLabel(cm), dir, cm.Target, m.Experiment, m.Seed)
			return nil
		},
		func(rec Record) error {
			if rec.Tick > lastTick {
				lastTick = rec.Tick
			}
			if !window.Contains(rec.Tick) || !q.Window.Contains(rec.Tick) {
				return nil
			}
			writeWhyLine(w, q.Class, rec, &health)
			return nil
		},
		func(fr FleetRecord) error { health.add(fr); return nil })
	if err != nil {
		return err
	}
	for _, tr := range []TickRange{window, q.Window} {
		if verr := tr.Validate(lastTick); verr != nil {
			return &trace.SpecError{Err: verr}
		}
	}
	return nil
}

// writeWhyLine renders one tick's decision for one class.
func writeWhyLine(w io.Writer, cm ClassMeta, rec Record, health *fleetHealth) {
	cd := rec.classRow(cm.ID)
	if cd == nil {
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, "tick %4d  t=%9.1fs  ", rec.Tick, rec.T)
	tag := metricLabel(cm)
	if rec.Held {
		fmt.Fprintf(&b, "held: degraded harvest (dropped=%v oltp_dropout=%v), limit frozen at %.0f",
			rec.Dropped, rec.OLTPDropout, cd.Limit)
	} else {
		verb := "held steady at"
		switch {
		case cd.Limit < cd.PrevLimit:
			verb = "throttled"
		case cd.Limit > cd.PrevLimit:
			verb = "boosted"
		}
		if verb == "held steady at" {
			fmt.Fprintf(&b, "%s %s %.0f: ", cm.Name, verb, cd.Limit)
		} else {
			fmt.Fprintf(&b, "%s %s %.0f->%.0f: ", cm.Name, verb, cd.PrevLimit, cd.Limit)
		}
		rel := ">="
		miss := "<"
		if !velocityGoal(cm) {
			rel, miss = "<=", ">"
		}
		if cd.GoalMet {
			fmt.Fprintf(&b, "predicted %s=%.3f %s goal %g", tag, cd.Predicted, rel, cd.Goal)
		} else {
			fmt.Fprintf(&b, "predicted %s=%.3f %s goal %g", tag, cd.Predicted, miss, cd.Goal)
			if cd.Reachable {
				fmt.Fprintf(&b, " (reachable: ceiling %.3f, conceded to higher utility)", cd.Ceiling)
			} else {
				fmt.Fprintf(&b, " (unreachable: ceiling %.3f)", cd.Ceiling)
			}
		}
		if cd.Model != "" {
			fmt.Fprintf(&b, "; model %s@%.0f", cd.Model, cd.AnchorLimit)
		}
		fmt.Fprintf(&b, "; utility %.3f", rec.Utility)
		if rec.HasRunnerUp {
			fmt.Fprintf(&b, ", gap to runner-up %.3f", rec.Utility-rec.RunnerUp)
		}
		if rec.Infeasible {
			fmt.Fprintf(&b, "; INFEASIBLE (binding class %d)", rec.Binding)
			if note := health.capacityNote(rec.T); note != "" {
				fmt.Fprintf(&b, "; %s", note)
			}
		}
	}
	fmt.Fprintln(w, b.String())
	for _, o := range rec.Actual {
		if o.Class != cm.ID {
			continue
		}
		verdict := "ok"
		if !o.GoalMet {
			verdict = "MISS"
		}
		fmt.Fprintf(w, "%26s  actual %s=%.3f %s (|pred-actual|=%.4f)", "",
			tag, o.Value, verdict, o.AbsError)
		if !rec.Held {
			if cd := rec.classRow(cm.ID); cd != nil {
				fmt.Fprintf(w, "; attainment %.2f, burn %.2f", cd.Attainment, cd.BurnRate)
			}
		}
		fmt.Fprintln(w)
	}
}

// Attribution decomposes one class's observed goal miss into additive
// shares: the part no plan could have fixed (infeasible goal), the part
// lost to faults and retries, the part spent waiting for admission, and
// the part spent executing. Shares sum exactly to Miss by construction.
type Attribution struct {
	Class     ClassMeta
	Completed int // logical queries completing inside the trace
	// Submitted counts logical queries first submitted inside the trace
	// and Aborted counts abort events; together they let a class whose
	// every query was lost to faults (zero completions) still carry its
	// miss instead of silently reporting 0.
	Submitted, Aborted int

	// Per-logical-query time totals from the trace: fault time (failed
	// attempts and retry backoff, first submit to last submit), admission
	// wait (last submit to start), and execution (start to done).
	FaultTime, WaitTime, ExecTime float64

	// Observed is the trace-derived goal metric over completed logical
	// queries: velocity = exec/(fault+wait+exec), RT = mean response.
	Observed float64
	// Miss is the directional gap from Observed to the goal (0 if met).
	Miss float64

	InfeasibleShare, FaultShare, WaitShare, ExecShare float64

	// BestCeiling is the best model ceiling seen across planned ticks
	// (max for velocity goals, min for RT goals); the infeasible share is
	// the part of the miss beyond it. HasCeiling is false when the log
	// had no planned ticks.
	BestCeiling float64
	HasCeiling  bool
}

// Attribute joins a decision log (for the goal roster and model
// ceilings) with a trace (for per-query lifecycle time) into per-class
// violation attributions, in roster order. Both inputs are streamed;
// state is bounded by the roster and the queries in flight.
func Attribute(decisions, tr io.Reader) ([]Attribution, Meta, error) {
	var meta Meta
	type ceiling struct {
		best float64
		seen bool
	}
	ceilings := make(map[int]*ceiling)
	err := ScanJSONL(decisions,
		func(m Meta) error {
			meta = m
			for _, c := range m.Classes {
				ceilings[c.ID] = &ceiling{}
			}
			return nil
		},
		func(rec Record) error {
			if rec.Held {
				return nil
			}
			for _, cd := range rec.Classes {
				c := ceilings[cd.Class]
				if c == nil {
					continue
				}
				cm, _ := metaClass(meta, cd.Class)
				better := cd.Ceiling > c.best
				if !velocityGoal(cm) {
					better = cd.Ceiling < c.best
				}
				if !c.seen || better {
					c.best, c.seen = cd.Ceiling, true
				}
			}
			return nil
		}, nil)
	if err != nil {
		return nil, meta, err
	}

	out := make([]Attribution, len(meta.Classes))
	byID := make(map[engine.ClassID]*Attribution, len(meta.Classes))
	for i, c := range meta.Classes {
		out[i].Class = c
		if ce := ceilings[c.ID]; ce.seen {
			out[i].BestCeiling, out[i].HasCeiling = ce.best, true
		}
		byID[engine.ClassID(c.ID)] = &out[i]
	}
	// Per logical query: fault time (failed attempts and retry backoff,
	// first submit to last submit), admission wait (last submit to
	// start) and execution (start to done).
	spans := trace.NewLifecycles(func(s *trace.Span) {
		at := byID[s.Class]
		if at == nil || !s.Completed() || !s.Started() {
			return
		}
		at.Completed++
		at.FaultTime += float64(s.Submit - s.FirstSubmit)
		at.WaitTime += s.AdmissionWait()
		at.ExecTime += s.ExecTime()
	})
	err = trace.ScanJSONL(tr, nil, func(e trace.Event) error {
		s := spans.Add(e)
		if at := byID[e.Class]; at != nil {
			switch {
			case e.Kind == trace.QueryAborted:
				at.Aborted++
			case e.Kind == trace.QuerySubmit && s.Attempts == 1:
				at.Submitted++
			}
		}
		return nil
	})
	if err != nil {
		return nil, meta, err
	}
	spans.Close()
	for i := range out {
		out[i].attribute()
	}
	return out, meta, nil
}

// metaClass finds a roster class by ID.
func metaClass(meta Meta, id int) (ClassMeta, bool) {
	for _, c := range meta.Classes {
		if c.ID == id {
			return c, true
		}
	}
	return ClassMeta{}, false
}

// attribute turns the accumulated time totals into additive miss shares.
// The infeasible share is peeled off first (the part of the miss beyond
// the best plan's ceiling), then the remainder is charged to fault,
// wait, and execution in that order, each capped by the recovery that
// eliminating it alone could deliver; whatever is left lands on
// execution. The sequential split guarantees the shares sum to Miss.
func (at *Attribution) attribute() {
	resp := at.FaultTime + at.WaitTime + at.ExecTime
	if at.Completed == 0 || resp <= 0 {
		at.attributeLost()
		return
	}
	target := at.Class.Target
	var faultRecovery, waitRecovery float64
	if velocityGoal(at.Class) {
		at.Observed = at.ExecTime / resp
		at.Miss = math.Max(0, target-at.Observed)
		if at.HasCeiling {
			at.InfeasibleShare = clamp(target-at.BestCeiling, 0, at.Miss)
		}
		// Velocity with fault time removed, then with wait also removed
		// (pure execution is velocity 1 by definition).
		vNoFault := 1.0
		if at.WaitTime+at.ExecTime > 0 {
			vNoFault = at.ExecTime / (at.WaitTime + at.ExecTime)
		}
		faultRecovery = vNoFault - at.Observed
		waitRecovery = 1 - vNoFault
	} else {
		n := float64(at.Completed)
		at.Observed = resp / n
		at.Miss = math.Max(0, at.Observed-target)
		if at.HasCeiling {
			at.InfeasibleShare = clamp(at.BestCeiling-target, 0, at.Miss)
		}
		faultRecovery = at.FaultTime / n
		waitRecovery = at.WaitTime / n
	}
	rem := at.Miss - at.InfeasibleShare
	at.FaultShare = clamp(faultRecovery, 0, rem)
	rem -= at.FaultShare
	at.WaitShare = clamp(waitRecovery, 0, rem)
	at.ExecShare = rem - at.WaitShare
}

// attributeLost handles the all-lost window: a class that submitted
// queries but completed none because every attempt aborted under fault
// injection. A velocity goal counts lost queries as velocity-0
// deliveries (mirroring metrics.Collector), so the whole target is
// missed; the miss is peeled into the infeasible share and the
// remainder charged to faults, keeping the sum-to-miss invariant with
// no division by the zero completion count. Response-time classes have
// no honest number for a lost query and stay unmeasured, exactly like
// the collector.
func (at *Attribution) attributeLost() {
	if at.Submitted == 0 || at.Aborted == 0 || !velocityGoal(at.Class) {
		return
	}
	at.Observed = 0
	at.Miss = at.Class.Target
	if at.HasCeiling {
		at.InfeasibleShare = clamp(at.Class.Target-at.BestCeiling, 0, at.Miss)
	}
	at.FaultShare = at.Miss - at.InfeasibleShare
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// RenderAttribution writes the violation attribution table plus one
// explanatory line per missed goal.
func RenderAttribution(w io.Writer, meta Meta, rows []Attribution) {
	fmt.Fprintf(w, "Violation attribution: %s (seed %d), completed logical queries\n", meta.Experiment, meta.Seed)
	fmt.Fprintf(w, "  %-12s %6s %4s %9s %9s %7s %11s %8s %8s %8s\n",
		"class", "done", "", "observed", "goal", "miss", "infeasible", "fault", "wait", "exec")
	for _, at := range rows {
		fmt.Fprintf(w, "  %-12s %6d %4s %9.3f %9g %7.3f %11.3f %8.3f %8.3f %8.3f\n",
			at.Class.Name, at.Completed, metricLabel(at.Class), at.Observed,
			at.Class.Target, at.Miss, at.InfeasibleShare, at.FaultShare, at.WaitShare, at.ExecShare)
	}
	for _, at := range rows {
		if at.Miss <= 0 {
			continue
		}
		fmt.Fprintf(w, "  %s: %s\n", at.Class.Name, at.explain())
	}
}

// explain renders a one-line cause ranking for a missed goal.
func (at *Attribution) explain() string {
	type share struct {
		name string
		v    float64
	}
	shares := []share{
		{"infeasible goal", at.InfeasibleShare},
		{"faults/retries", at.FaultShare},
		{"admission wait", at.WaitShare},
		{"execution time", at.ExecShare},
	}
	sort.SliceStable(shares, func(i, j int) bool { return shares[i].v > shares[j].v })
	var parts []string
	for _, s := range shares {
		if s.v <= 0 {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s %.3f (%.0f%%)", s.name, s.v, 100*s.v/at.Miss))
	}
	msg := fmt.Sprintf("missed %s goal by %.3f", metricLabel(at.Class), at.Miss)
	if at.InfeasibleShare > 0 && at.HasCeiling {
		msg += fmt.Sprintf(" (best plan ceiling %.3f)", at.BestCeiling)
	}
	if len(parts) > 0 {
		msg += ": " + strings.Join(parts, ", ")
	}
	return msg
}

// metricsFamilies are the exposition families qreport echoes in its
// metrics cross-check section.
var metricsFamilies = []string{
	"qs_slo_attainment_ratio",
	"qs_slo_burn_rate",
	"qs_infeasible_ticks_total",
	"qs_infeasible_binding_total",
}

// MetricsCrossCheck streams a Prometheus text exposition, plain or
// gzipped, and echoes the SLO and feasibility families, so an operator
// can eyeball the decision log's accounting against the run's exported
// metrics.
func MetricsCrossCheck(w io.Writer, r io.Reader) error {
	in, err := trace.OpenInput(r)
	if err != nil {
		return fmt.Errorf("report: metrics: %w", err)
	}
	fmt.Fprintln(w, "Metrics cross-check (qs_slo_* / qs_infeasible_* families):")
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	matched := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		for _, fam := range metricsFamilies {
			if strings.HasPrefix(line, fam) {
				fmt.Fprintf(w, "  %s\n", line)
				matched = true
				break
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("report: metrics: %w", err)
	}
	if !matched {
		fmt.Fprintln(w, "  (none found — was the run in query-scheduler mode?)")
	}
	return nil
}
