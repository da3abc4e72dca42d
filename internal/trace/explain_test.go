package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine"
)

// explainMeta is a two-class header for spec-parsing and explain tests.
func explainMeta() Meta {
	return Meta{
		Experiment:    "test",
		Seed:          7,
		PeriodSeconds: 100,
		Periods:       3,
		Classes: []ClassMeta{
			{ID: 1, Name: "Class 1", Kind: "OLAP", Goal: "velocity >= 0.40", Target: 0.4},
			{ID: 2, Name: "Class 2", Kind: "OLAP", Goal: "velocity >= 0.60", Target: 0.6},
		},
	}
}

func TestParseExplainQuery(t *testing.T) {
	meta := explainMeta()
	cases := []struct {
		spec  string
		class engine.ClassID
		per   int
	}{
		{"class=1 period=1", 1, 1},
		{"class=B period=3", 2, 3}, // letter B = second class in header = ID 2
		{"period=2 class=A", 1, 2},
		{"class=Class 2 period=1", 0, 0}, // space splits the name: error
	}
	for _, c := range cases {
		q, err := ParseExplainQuery(c.spec, meta)
		if c.class == 0 {
			if err == nil {
				t.Errorf("%q: want error, got %+v", c.spec, q)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", c.spec, err)
			continue
		}
		if q.Class != c.class || q.Period != c.per {
			t.Errorf("%q: got class=%d period=%d, want class=%d period=%d",
				c.spec, q.Class, q.Period, c.class, c.per)
		}
	}
	for _, bad := range []string{
		"", "class=1", "period=1", "class=9 period=1", "class=Z period=1",
		"class=1 period=0", "class=1 period=4", "class=1 period=x",
		"class=1 period=1 bogus=2", "class=1period=1",
	} {
		if _, err := ParseExplainQuery(bad, meta); err == nil {
			t.Errorf("spec %q: want error", bad)
		}
	}
	// Name resolution works when the name has no spaces.
	meta.Classes[1].Name = "batch"
	if q, err := ParseExplainQuery("class=batch period=2", meta); err != nil || q.Class != 2 {
		t.Errorf("name lookup: got %+v, %v", q, err)
	}
}

// explainEvents builds a small three-period lifecycle history for class 2:
//   - q1: submit 10, intercept 10, release 40, start 40, done 90
//     (wait 30, exec 50, completes in period 1)
//   - q2: submit 50, intercept 50, release 120, start 120, done 180
//     (wait 70, exec 60, completes in period 2)
//   - q3: submit 150, intercepted, never released (pending forever)
//
// Plus one class-1 query completing in period 1 (must not leak into
// class-2 cells) and a plan change at t=110.
func explainEvents() []Event {
	return []Event{
		{Time: 5, Kind: QuerySubmit, Class: 1, Query: 9, Value: 100},
		{Time: 5, Kind: QueryStart, Class: 1, Query: 9},
		{Time: 10, Kind: QuerySubmit, Class: 2, Query: 1, Value: 5000},
		{Time: 10, Kind: QueryIntercepted, Class: 2, Query: 1},
		{Time: 20, Kind: QueryDone, Class: 1, Query: 9, Period: 0},
		{Time: 40, Kind: QueryReleased, Class: 2, Query: 1},
		{Time: 40, Kind: QueryStart, Class: 2, Query: 1},
		{Time: 50, Kind: QuerySubmit, Class: 2, Query: 2, Value: 8000},
		{Time: 50, Kind: QueryIntercepted, Class: 2, Query: 2},
		{Time: 90, Kind: QueryDone, Class: 2, Query: 1, Period: 0},
		{Time: 110, Kind: PlanChanged, Plan: 1, Value: 2.5, Detail: "limits: 1=5000 2=9000"},
		{Time: 120, Kind: QueryReleased, Class: 2, Query: 2},
		{Time: 120, Kind: QueryStart, Class: 2, Query: 2},
		{Time: 150, Kind: QuerySubmit, Class: 2, Query: 3, Value: 12000},
		{Time: 150, Kind: QueryIntercepted, Class: 2, Query: 3},
		{Time: 180, Kind: QueryDone, Class: 2, Query: 2, Period: 1},
		{Time: 250, Kind: WorkloadShift, Value: 1},
	}
}

// explainSpec exports (meta, events) as JSONL and explains one cell of
// it through ExplainJSONL.
func explainSpec(t *testing.T, meta Meta, events []Event, spec string) *Explanation {
	t.Helper()
	ex, err := ExplainJSONL(bytes.NewReader(encodeJSONL(t, meta, events)), spec)
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

func TestExplainBreakdown(t *testing.T) {
	meta, events := explainMeta(), explainEvents()

	// Period 1, class 2: only q1 completes there.
	ex := explainSpec(t, meta, events, "class=2 period=1")
	if len(ex.Completed) != 1 || ex.Completed[0].Query != 1 {
		t.Fatalf("period 1 completions = %+v, want just q1", ex.Completed)
	}
	if ex.WaitMean != 30 || ex.ExecMean != 50 {
		t.Errorf("q1 wait/exec = %g/%g, want 30/50", ex.WaitMean, ex.ExecMean)
	}
	if ex.VelocityMean != 50.0/80 {
		t.Errorf("velocity = %g, want %g", ex.VelocityMean, 50.0/80)
	}
	// q1 and q2 submitted in [0,100); only q2 is pending at t=100 (q3
	// arrives later, in period 2).
	if ex.Submitted != 2 || ex.PendingAtEnd != 1 {
		t.Errorf("submitted=%d pending=%d, want 2/1", ex.Submitted, ex.PendingAtEnd)
	}
	if ex.PlanAtStart != 0 || len(ex.PlanChanges) != 0 {
		t.Errorf("period 1 plan state: v%d with %d changes, want v0 with none",
			ex.PlanAtStart, len(ex.PlanChanges))
	}
	// Queue depth: q1 held [10,40), q2 held [50,100-end). With 60 bins over
	// [0,100), bin 6 samples t=10 (depth 1) and bin 36 samples t=60.
	if ex.QueueDepth[0] != 0 || ex.QueueDepth[6] != 1 || ex.QueueDepth[36] != 1 {
		t.Errorf("queue depth samples = %v/%v/%v, want 0/1/1",
			ex.QueueDepth[0], ex.QueueDepth[6], ex.QueueDepth[36])
	}

	// Period 2: q2 completes; the plan change at t=110 is in-window.
	ex2 := explainSpec(t, meta, events, "class=2 period=2")
	if len(ex2.Completed) != 1 || ex2.Completed[0].Query != 2 {
		t.Fatalf("period 2 completions = %+v, want just q2", ex2.Completed)
	}
	if ex2.WaitMean != 70 || ex2.ExecMean != 60 {
		t.Errorf("q2 wait/exec = %g/%g, want 70/60", ex2.WaitMean, ex2.ExecMean)
	}
	if len(ex2.PlanChanges) != 1 || ex2.PlanChanges[0].Plan != 1 {
		t.Errorf("period 2 plan changes = %+v, want the v1 change", ex2.PlanChanges)
	}
	// q3 (never done) and nothing else pending at t=200.
	if ex2.PendingAtEnd != 1 {
		t.Errorf("period 2 pending = %d, want 1 (q3)", ex2.PendingAtEnd)
	}

	// Period 3: no completions; plan v1 in force at start.
	ex3 := explainSpec(t, meta, events, "class=2 period=3")
	if len(ex3.Completed) != 0 || ex3.PlanAtStart != 1 {
		t.Errorf("period 3: %d completions plan v%d, want 0 completions v1",
			len(ex3.Completed), ex3.PlanAtStart)
	}
}

func TestExplainRender(t *testing.T) {
	ex := explainSpec(t, explainMeta(), explainEvents(), "class=2 period=2")
	var sb strings.Builder
	ex.Render(&sb)
	out := sb.String()
	for _, want := range []string{
		"admission wait", "execution", "Queue depth", "Plan changes",
		"limits: 1=5000 2=9000", "Query lifetimes", "q2", "#",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// Rendering must be deterministic (it feeds golden CI assertions).
	var sb2 strings.Builder
	ex2 := explainSpec(t, explainMeta(), explainEvents(), "class=2 period=2")
	ex2.Render(&sb2)
	if sb2.String() != out {
		t.Error("render not deterministic across explain calls")
	}
}

// The analysis rejects cells the spec parser would never produce, too.
func TestExplainErrors(t *testing.T) {
	meta := explainMeta()
	if _, err := newExplainer(meta, ExplainQuery{Class: 99, Period: 1, PeriodEnd: 1}); err == nil {
		t.Error("unknown class: want error")
	}
	meta.PeriodSeconds = 0
	if _, err := ExplainJSONL(bytes.NewReader(encodeJSONL(t, meta, nil)), "class=1 period=1"); err == nil {
		t.Error("no period length: want error")
	}
}

func TestSummarize(t *testing.T) {
	var sb strings.Builder
	if err := SummarizeJSONL(&sb, bytes.NewReader(encodeJSONL(t, explainMeta(), explainEvents()))); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"test (seed 7)", "3 periods", "Class 2", "[letter B]",
		"submit", "done", "plan", "Completions class 2: 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}

	// The per-kind list covers every kind, fleet and fault ones included.
	var every []Event
	for k := QuerySubmit; k <= lastKind; k++ {
		every = append(every, Event{Time: 1, Kind: k, Class: 1, Query: 1})
	}
	sb.Reset()
	if err := SummarizeJSONL(&sb, bytes.NewReader(encodeJSONL(t, explainMeta(), every))); err != nil {
		t.Fatal(err)
	}
	for _, e := range every {
		if line := fmt.Sprintf("  %-10s 1\n", e.Kind); !strings.Contains(sb.String(), line) {
			t.Errorf("summary lacks the %q line:\n%s", e.Kind, sb.String())
		}
	}
}

// encodeJSONL renders a (meta, events) pair exactly as a StreamJSONL
// sink would.
func encodeJSONL(t *testing.T, meta Meta, events []Event) []byte {
	t.Helper()
	line, err := json.Marshal(jsonMeta{Type: "meta", Meta: meta})
	if err != nil {
		t.Fatal(err)
	}
	buf := append(line, '\n')
	for i := range events {
		buf = appendEventLine(buf, &events[i])
	}
	return buf
}

func TestParseExplainQueryRange(t *testing.T) {
	meta := explainMeta()
	cases := []struct {
		spec     string
		per, end int
	}{
		{"class=B period=1-3", 1, 3},
		{"class=1 period=2-3", 2, 3},
		{"class=A period=2-2", 2, 2}, // degenerate range is allowed
	}
	for _, c := range cases {
		q, err := ParseExplainQuery(c.spec, meta)
		if err != nil {
			t.Errorf("%q: %v", c.spec, err)
			continue
		}
		if q.Period != c.per || q.PeriodEnd != c.end {
			t.Errorf("%q: got period=%d end=%d, want %d-%d",
				c.spec, q.Period, q.PeriodEnd, c.per, c.end)
		}
	}
	for _, bad := range []string{
		"class=1 period=3-1", // reversed
		"class=1 period=1-4", // end beyond meta.Periods
		"class=1 period=0-2", // start out of range
		"class=1 period=1-x", // non-numeric end
		"class=1 period=-2",  // missing start
	} {
		if _, err := ParseExplainQuery(bad, meta); err == nil {
			t.Errorf("spec %q: want error", bad)
		}
	}
}

func TestExplainPeriodRange(t *testing.T) {
	ex := explainSpec(t, explainMeta(), explainEvents(), "class=2 period=1-2")
	// The [0,200) window aggregates q1 (period 1) and q2 (period 2).
	if ex.Start != 0 || ex.End != 200 {
		t.Errorf("window = [%g,%g), want [0,200)", ex.Start, ex.End)
	}
	if len(ex.Completed) != 2 || ex.Completed[0].Query != 1 || ex.Completed[1].Query != 2 {
		t.Fatalf("range completions = %+v, want q1+q2", ex.Completed)
	}
	if ex.WaitTotal != 100 || ex.ExecTotal != 110 {
		t.Errorf("wait/exec totals = %g/%g, want 100/110", ex.WaitTotal, ex.ExecTotal)
	}
	// All three class-2 submissions land in [0,200); only q3 is pending at t=200.
	if ex.Submitted != 3 || ex.PendingAtEnd != 1 {
		t.Errorf("submitted=%d pending=%d, want 3/1", ex.Submitted, ex.PendingAtEnd)
	}
	// The t=110 plan change is inside the range window; none precede it.
	if ex.PlanAtStart != 0 || len(ex.PlanChanges) != 1 || ex.PlanChanges[0].Plan != 1 {
		t.Errorf("plan state: v%d with changes %+v, want v0 with the v1 change",
			ex.PlanAtStart, ex.PlanChanges)
	}

	var sb strings.Builder
	ex.Render(&sb)
	out := sb.String()
	for _, want := range []string{
		"periods 1-2 [0s, 200s)", "completions in periods 1-2",
		"submitted in window:   3", "Plan changes in periods 1-2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("range render missing %q:\n%s", want, out)
		}
	}

	// A reversed range handed directly to the analysis (bypassing the
	// parser) must still be rejected.
	if _, err := newExplainer(explainMeta(), ExplainQuery{Class: 2, Period: 3, PeriodEnd: 1}); err == nil {
		t.Error("reversed range: want error")
	}
}

// oltpMeta/oltpEvents model an unmanaged OLTP class: queries start the
// instant they are submitted (no interception), so admission wait comes
// only from engine queueing. Times are binary-exact so the breakdown
// asserts equality without tolerances.
func oltpMeta() Meta {
	m := explainMeta()
	m.Classes = append(m.Classes, ClassMeta{
		ID: 3, Name: "orders", Kind: "OLTP",
		Goal: "avg response <= 0.25", Target: 0.25,
	})
	return m
}

func oltpEvents() []Event {
	return []Event{
		// q11: zero wait, exec 0.25, completes in period 1.
		{Time: 10, Kind: QuerySubmit, Class: 3, Query: 11, Value: 40},
		{Time: 10, Kind: QueryStart, Class: 3, Query: 11},
		{Time: 10.25, Kind: QueryDone, Class: 3, Query: 11, Period: 0},
		// q12: wait 0.5 (engine queueing), exec 0.5, completes in period 2.
		{Time: 150, Kind: QuerySubmit, Class: 3, Query: 12, Value: 40},
		{Time: 150.5, Kind: QueryStart, Class: 3, Query: 12},
		{Time: 151, Kind: QueryDone, Class: 3, Query: 12, Period: 1},
		// An OLAP completion that must not leak into the OLTP cell.
		{Time: 20, Kind: QuerySubmit, Class: 2, Query: 1, Value: 5000},
		{Time: 20, Kind: QueryStart, Class: 2, Query: 1},
		{Time: 90, Kind: QueryDone, Class: 2, Query: 1, Period: 0},
	}
}

func TestExplainOLTPClass(t *testing.T) {
	q, err := ParseExplainQuery("class=C period=1-2", oltpMeta())
	if err != nil {
		t.Fatal(err)
	}
	if q.Class != 3 || q.Period != 1 || q.PeriodEnd != 2 {
		t.Fatalf("parsed %+v, want class 3 periods 1-2", q)
	}
	ex := explainSpec(t, oltpMeta(), oltpEvents(), "class=C period=1-2")
	if len(ex.Completed) != 2 {
		t.Fatalf("OLTP completions = %+v, want q11+q12", ex.Completed)
	}
	if ex.WaitTotal != 0.5 || ex.ExecTotal != 0.75 {
		t.Errorf("wait/exec totals = %g/%g, want 0.5/0.75", ex.WaitTotal, ex.ExecTotal)
	}
	// Per-query velocities: q11 = 1 (no wait), q12 = 0.5.
	if ex.VelocityMean != 0.75 {
		t.Errorf("velocity mean = %g, want 0.75", ex.VelocityMean)
	}
	// OLTP queries are never held at the patroller: flat queue depth.
	for i, d := range ex.QueueDepth {
		if d != 0 {
			t.Errorf("queue depth bin %d = %g, want 0 (unmanaged class)", i, d)
		}
	}
	var sb strings.Builder
	ex.Render(&sb)
	out := sb.String()
	for _, want := range []string{
		`Class 3 "orders" (OLTP, avg response <= 0.25)`, "periods 1-2",
		"completed:             2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("OLTP render missing %q:\n%s", want, out)
		}
	}
}

func TestExplainJSONLSpecError(t *testing.T) {
	raw := encodeJSONL(t, explainMeta(), explainEvents())
	var spec *SpecError
	for _, bad := range []string{"class=9 period=1", "class=1 period=3-1"} {
		if _, err := ExplainJSONL(bytes.NewReader(raw), bad); !errors.As(err, &spec) {
			t.Fatalf("%q: got %v, want *SpecError", bad, err)
		}
	}
	// A corrupt trace is NOT a spec error (qtrace exits 1, not 2).
	_, err := ExplainJSONL(strings.NewReader("{\"type\":\"bogus\"}\n"), "class=2 period=1")
	if err == nil || errors.As(err, &spec) {
		t.Fatalf("corrupt trace: got %v, want non-spec error", err)
	}
}
