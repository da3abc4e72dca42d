package decisionlog

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/trace"
)

func TestParseTickRange(t *testing.T) {
	for _, tc := range []struct {
		spec     string
		from, to int
		bad      bool
	}{
		{spec: "", from: 0, to: 0},
		{spec: "7", from: 7, to: 7},
		{spec: "3-5", from: 3, to: 5},
		{spec: "0", bad: true},
		{spec: "5-3", bad: true},
		{spec: "x", bad: true},
		{spec: "3-", bad: true},
	} {
		tr, err := ParseTickRange(tc.spec)
		if tc.bad {
			if err == nil {
				t.Errorf("ParseTickRange(%q) accepted", tc.spec)
			}
			continue
		}
		if err != nil || tr.From != tc.from || tr.To != tc.to {
			t.Errorf("ParseTickRange(%q) = %+v, %v", tc.spec, tr, err)
		}
	}
	tr := TickRange{From: 3, To: 5}
	for tick, want := range map[int]bool{2: false, 3: true, 5: true, 6: false} {
		if tr.Contains(tick) != want {
			t.Errorf("Contains(%d) = %v", tick, !want)
		}
	}
	if open := (TickRange{}); !open.Contains(1) || !open.Contains(1<<20) {
		t.Error("open range excluded ticks")
	}
}

func TestParseWhyQuery(t *testing.T) {
	meta := testMeta()
	for _, spec := range []string{"class=1", "class=A", "class=Class1", "class=class1"} {
		q, err := ParseWhyQuery(spec, meta)
		if err != nil || q.Class.ID != 1 {
			t.Errorf("ParseWhyQuery(%q) = %+v, %v", spec, q, err)
		}
	}
	// Letter B is the second roster class (ID 3), not class ID 2.
	q, err := ParseWhyQuery("class=B tick=3-5", meta)
	if err != nil || q.Class.ID != 3 || q.Window.From != 3 || q.Window.To != 5 {
		t.Fatalf("ParseWhyQuery(class=B tick=3-5) = %+v, %v", q, err)
	}
	for _, spec := range []string{"", "tick=3", "class=9", "class=Z", "class=1 tick=0", "class=1 foo=bar", "class"} {
		if _, err := ParseWhyQuery(spec, meta); err == nil {
			t.Errorf("ParseWhyQuery(%q) accepted", spec)
		}
	}
}

// buildTestLog writes a small log: tick 1 meets both goals, tick 2
// misses both (closing tick 1's window), tick 3 closes tick 2's.
func buildTestLog(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	dw, err := NewWriter(&buf, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	dw.NoteBackend(0, testRec(60, 0.45, 0.2))
	rec := testRec(120, 0.35, 0.3)
	rec.Limits = solver0(18000, 12000)
	dw.NoteBackend(0, rec)
	dw.NoteBackend(0, testRec(180, 0.5, 0.21))
	dw.Flush()
	if dw.Err() != nil {
		t.Fatal(dw.Err())
	}
	return buf.Bytes()
}

// solver0 builds a 2-class plan for the test roster.
func solver0(l1, l3 float64) map[engine.ClassID]float64 {
	return map[engine.ClassID]float64{1: l1, 3: l3}
}

func TestSummarize(t *testing.T) {
	log := buildTestLog(t)
	var out bytes.Buffer
	if err := Summarize(&out, bytes.NewReader(log)); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"Decision log: unit (seed 7)",
		"Ticks: 3 total, 0 held",
		"Class1",
		"Class3",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
	// Two closed windows per class: tick 1 met, tick 2 missed → 1/2.
	if !strings.Contains(s, "0.50") {
		t.Errorf("summary missing 0.50 attainment:\n%s", s)
	}
}

func TestSummarizeRejectsCorruptLog(t *testing.T) {
	var out bytes.Buffer
	if err := Summarize(&out, strings.NewReader("not json\n")); err == nil {
		t.Fatal("corrupt log accepted")
	}
	if out.Len() != 0 {
		t.Fatalf("partial output on error: %q", out.String())
	}
}

func TestTimelineWindow(t *testing.T) {
	log := buildTestLog(t)
	var out bytes.Buffer
	if err := Timeline(&out, bytes.NewReader(log), TickRange{From: 2, To: 2}); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if strings.Contains(s, "tick    1") || strings.Contains(s, "tick    3") {
		t.Fatalf("window leak:\n%s", s)
	}
	if !strings.Contains(s, "tick    2") || !strings.Contains(s, "limits: 1=18000 3=12000") {
		t.Fatalf("timeline line malformed:\n%s", s)
	}
	// Tick 2's harvest closed tick 1's window with misses on both classes
	// — but the missed marker belongs to tick 2's record (its own window,
	// closed by tick 3, was met again). Tick 2's actual: 0.5 velocity ok,
	// 0.21 RT ok → no missed marker.
	if strings.Contains(s, "missed:") {
		t.Fatalf("unexpected miss marker:\n%s", s)
	}
}

func TestTimelineMissMarker(t *testing.T) {
	log := buildTestLog(t)
	var out bytes.Buffer
	if err := Timeline(&out, bytes.NewReader(log), TickRange{From: 1, To: 1}); err != nil {
		t.Fatal(err)
	}
	// Tick 1's window was closed by the missing harvest (0.35 < 0.4,
	// 0.3 > 0.25): both classes missed.
	if !strings.Contains(out.String(), "missed:1,3") {
		t.Fatalf("tick 1 should carry missed:1,3:\n%s", out.String())
	}
}

func TestWhy(t *testing.T) {
	log := buildTestLog(t)
	var out bytes.Buffer
	if err := Why(&out, bytes.NewReader(log), "class=A", TickRange{}); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"Why Class1 (OLAP, goal v >= 0.4)",
		"throttled 20000->18000",    // tick 2 cut the limit
		"actual v=0.350 MISS",       // tick 1's back-filled outcome
		"actual v=0.500 ok",         // tick 2's back-filled outcome
		"model olap-velocity@20000", // provenance
		"gap to runner-up 0.300",    // 3.5 - 3.2
	} {
		if !strings.Contains(s, want) {
			t.Errorf("why output missing %q:\n%s", want, s)
		}
	}

	out.Reset()
	err := Why(&out, bytes.NewReader(log), "class=9", TickRange{})
	var spec *trace.SpecError
	if !errors.As(err, &spec) {
		t.Fatalf("bad spec error = %v", err)
	}
}

func TestWhyHeldTick(t *testing.T) {
	var buf bytes.Buffer
	dw, err := NewWriter(&buf, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	dw.NoteBackend(0, testRec(60, 0.45, 0.2))
	held := testRec(120, 0, 0)
	held.Held = true
	held.Measurement.Dropped = true
	dw.NoteBackend(0, held)
	dw.Flush()

	var out bytes.Buffer
	if err := Why(&out, bytes.NewReader(buf.Bytes()), "class=A tick=2", TickRange{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "held: degraded harvest") {
		t.Fatalf("held tick not explained:\n%s", out.String())
	}
}

// traceJSONL handcrafts a trace export; the format is pinned by the
// trace package's golden tests, so building lines directly is safe.
func traceJSONL(events ...string) string {
	var b strings.Builder
	b.WriteString(`{"type":"meta","v":1,"experiment":"unit","seed":7,"period_seconds":600,"periods":1,` +
		`"classes":[{"id":1,"name":"Class1","kind":"OLAP","goal":"velocity >= 0.40","target":0.4},` +
		`{"id":3,"name":"Class3","kind":"OLTP","goal":"avg RT <= 0.25s","target":0.25}]}` + "\n")
	for i, e := range events {
		b.WriteString(fmt.Sprintf(`{"type":"event","seq":%d,%s}`, i+1, e))
		b.WriteByte('\n')
	}
	return b.String()
}

func ev(t float64, kind string, class, query, client int) string {
	return fmt.Sprintf(`"t":%g,"kind":%q,"class":%d,"query":%d,"client":%d`, t, kind, class, query, client)
}

func TestAttributeSharesSumToMiss(t *testing.T) {
	log := buildTestLog(t)
	// One OLAP logical query with a retry: submit t=0, aborted and
	// re-queued, resubmitted as query 2 at t=10, starts t=12, done t=20.
	// fault=10, wait=2, exec=8 → v = 8/20 = 0.4... make exec 10 (done 22):
	// v = 10/22 ≈ 0.4545 which meets the 0.4 goal. Use done t=18: exec 6,
	// resp 18, v=1/3 < 0.4 → miss.
	// One OLTP query: submit/start t=0, done t=0.5 → rt 0.5 > 0.25 → miss.
	tr := traceJSONL(
		ev(0, "submit", 1, 1, 1),
		ev(0, "start", 1, 1, 1),
		ev(0, "submit", 3, 10, 40),
		ev(0, "start", 3, 10, 40),
		ev(0.5, "done", 3, 10, 40),
		ev(5, "abort", 1, 1, 1),
		ev(5, "retry", 1, 1, 1),
		ev(10, "submit", 1, 2, 1),
		ev(12, "start", 1, 2, 1),
		ev(18, "done", 1, 2, 1),
	)
	rows, meta, err := Attribute(bytes.NewReader(log), strings.NewReader(tr))
	if err != nil {
		t.Fatal(err)
	}
	if meta.Experiment != "unit" || len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}

	olap := rows[0]
	if olap.Completed != 1 || olap.FaultTime != 10 || olap.WaitTime != 2 || olap.ExecTime != 6 {
		t.Fatalf("OLAP times: %+v", olap)
	}
	if want := 6.0 / 18.0; !close1e9(olap.Observed, want) {
		t.Fatalf("OLAP observed %v, want %v", olap.Observed, want)
	}
	checkShares(t, olap)
	// Goal 0.4 is reachable (ceiling 0.8 in the log) → no infeasible
	// share; fault removal alone recovers to 6/8 = 0.75 ≥ 0.4, so the
	// whole miss lands on faults.
	if olap.InfeasibleShare != 0 || !close1e9(olap.FaultShare, olap.Miss) {
		t.Fatalf("OLAP shares: %+v", olap)
	}

	oltp := rows[1]
	if oltp.Completed != 1 || !close1e9(oltp.Observed, 0.5) {
		t.Fatalf("OLTP row: %+v", oltp)
	}
	checkShares(t, oltp)
	// No faults, no wait → the whole miss is execution time (the log's
	// best RT ceiling 0.1 beats the 0.25 goal, so nothing is infeasible).
	if !close1e9(oltp.ExecShare, oltp.Miss) || oltp.Miss != 0.25 {
		t.Fatalf("OLTP shares: %+v", oltp)
	}
}

func TestAttributeInfeasibleShare(t *testing.T) {
	// A log whose best OLAP ceiling (0.3) sits below the 0.4 goal: the
	// gap is structurally unfixable and must be peeled off first.
	var buf bytes.Buffer
	dw, err := NewWriter(&buf, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	rec := testRec(60, 0.2, 0.2)
	rec.Search.Classes[0].Ceiling = 0.3
	rec.Search.Classes[0].GoalMet = false
	rec.Search.Classes[0].Reachable = false
	rec.Search.Infeasible = true
	rec.Search.Binding = 1
	dw.NoteBackend(0, rec)
	dw.Flush()

	// velocity = 2/10 = 0.2: miss 0.2, of which 0.4-0.3 = 0.1 infeasible;
	// no faults; removing wait recovers to 1.0, so the rest is wait.
	tr := traceJSONL(
		ev(0, "submit", 1, 1, 1),
		ev(8, "start", 1, 1, 1),
		ev(10, "done", 1, 1, 1),
	)
	rows, _, err := Attribute(bytes.NewReader(buf.Bytes()), strings.NewReader(tr))
	if err != nil {
		t.Fatal(err)
	}
	olap := rows[0]
	checkShares(t, olap)
	if !close1e9(olap.InfeasibleShare, 0.1) || !close1e9(olap.WaitShare, 0.1) ||
		olap.FaultShare != 0 || !close1e9(olap.ExecShare, 0) {
		t.Fatalf("shares: %+v", olap)
	}
	if !olap.HasCeiling || olap.BestCeiling != 0.3 {
		t.Fatalf("ceiling: %+v", olap)
	}
}

// TestAttributeSameInstantHandoff pins the regression where a client's
// next submit+start are emitted before the previous query's done at the
// same timestamp (the engine's closed-loop clients do this): per-query
// state must not be clobbered by the successor.
func TestAttributeSameInstantHandoff(t *testing.T) {
	log := buildTestLog(t)
	tr := traceJSONL(
		ev(0, "submit", 3, 1, 40),
		ev(0, "start", 3, 1, 40),
		ev(0.5, "submit", 3, 2, 40), // successor lands before q1's done
		ev(0.5, "start", 3, 2, 40),
		ev(0.5, "done", 3, 1, 40),
		ev(0.6, "done", 3, 2, 40),
	)
	rows, _, err := Attribute(bytes.NewReader(log), strings.NewReader(tr))
	if err != nil {
		t.Fatal(err)
	}
	oltp := rows[1]
	if oltp.Completed != 2 || !close1e9(oltp.ExecTime, 0.6) {
		t.Fatalf("handoff broke per-query state: %+v", oltp)
	}
	if !close1e9(oltp.Observed, 0.3) {
		t.Fatalf("observed rt %v, want 0.3", oltp.Observed)
	}
}

func TestTickRangeValidate(t *testing.T) {
	for _, tc := range []struct {
		tr       TickRange
		lastTick int
		bad      bool
	}{
		{tr: TickRange{}, lastTick: 3},               // open window always fits
		{tr: TickRange{From: 3, To: 3}, lastTick: 3}, // last tick inclusive
		{tr: TickRange{From: 1, To: 3}, lastTick: 3}, // full range
		{tr: TickRange{From: 4, To: 4}, lastTick: 3, bad: true},
		{tr: TickRange{From: 3, To: 99}, lastTick: 3, bad: true},
		{tr: TickRange{From: 1, To: 2}, lastTick: 0, bad: true}, // empty log
	} {
		err := tc.tr.Validate(tc.lastTick)
		if (err != nil) != tc.bad {
			t.Errorf("Validate(%+v, last=%d) = %v", tc.tr, tc.lastTick, err)
		}
	}
}

// A window reaching past the log's last tick is a spec mistake, not an
// empty result: both -timeline and -why must fail with a SpecError so
// qreport exits 2 instead of printing a silently truncated breakdown.
func TestTimelineRejectsWindowPastLastTick(t *testing.T) {
	log := buildTestLog(t) // 3 ticks
	for _, tr := range []TickRange{{From: 99, To: 99}, {From: 3, To: 99}} {
		var out bytes.Buffer
		err := Timeline(&out, bytes.NewReader(log), tr)
		var spec *trace.SpecError
		if !errors.As(err, &spec) {
			t.Errorf("Timeline(%+v) = %v, want SpecError", tr, err)
		}
	}
	// The full in-range window still renders.
	var out bytes.Buffer
	if err := Timeline(&out, bytes.NewReader(log), TickRange{From: 1, To: 3}); err != nil {
		t.Fatalf("in-range window rejected: %v", err)
	}
}

func TestWhyRejectsWindowPastLastTick(t *testing.T) {
	log := buildTestLog(t) // 3 ticks
	var out bytes.Buffer
	err := Why(&out, bytes.NewReader(log), "class=A tick=3-99", TickRange{})
	var spec *trace.SpecError
	if !errors.As(err, &spec) {
		t.Fatalf("spec window past end = %v, want SpecError", err)
	}
	// The -window flag's range is validated too.
	err = Why(&out, bytes.NewReader(log), "class=A", TickRange{From: 7, To: 7})
	if !errors.As(err, &spec) {
		t.Fatalf("flag window past end = %v, want SpecError", err)
	}
	if err = Why(&out, bytes.NewReader(log), "class=A tick=2-3", TickRange{}); err != nil {
		t.Fatalf("in-range window rejected: %v", err)
	}
}

// TestAttributeAllAbortedClass pins the fault-injection corner where a
// class submits queries but completes none (every attempt aborted): the
// shares must carry the full miss instead of silently reporting zero,
// and nothing may divide by the zero completion count.
func TestAttributeAllAbortedClass(t *testing.T) {
	log := buildTestLog(t)
	// Class 1 (velocity goal 0.4): two submits, both aborted, no done.
	// Class 3 (RT goal): one normal query so the roster stays measurable.
	tr := traceJSONL(
		ev(0, "submit", 1, 1, 1),
		ev(0, "submit", 3, 10, 40),
		ev(0, "start", 3, 10, 40),
		ev(0.1, "done", 3, 10, 40),
		ev(5, "abort", 1, 1, 1),
		ev(10, "submit", 1, 2, 2),
		ev(15, "abort", 1, 2, 2),
	)
	rows, _, err := Attribute(bytes.NewReader(log), strings.NewReader(tr))
	if err != nil {
		t.Fatal(err)
	}
	olap := rows[0]
	if olap.Completed != 0 || olap.Submitted != 2 || olap.Aborted != 2 {
		t.Fatalf("OLAP tallies: %+v", olap)
	}
	checkShares(t, olap)
	// All-lost velocity counts as velocity-0 deliveries (mirroring the
	// metrics collector): the whole target is missed, and with the log's
	// ceiling (0.8) above the goal nothing is infeasible — the miss lands
	// entirely on faults.
	if olap.Observed != 0 || !close1e9(olap.Miss, 0.4) {
		t.Fatalf("OLAP observed/miss: %+v", olap)
	}
	if olap.InfeasibleShare != 0 || !close1e9(olap.FaultShare, 0.4) {
		t.Fatalf("OLAP shares: %+v", olap)
	}
	// NaN in any share would poison the table render.
	for _, v := range []float64{olap.Observed, olap.Miss, olap.FaultShare, olap.ExecShare} {
		if v != v {
			t.Fatalf("NaN share: %+v", olap)
		}
	}
}

// An all-aborted class under an unreachable goal peels the infeasible
// part off first, exactly like the completed-query path.
func TestAttributeAllAbortedInfeasibleClass(t *testing.T) {
	var buf bytes.Buffer
	dw, err := NewWriter(&buf, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	rec := testRec(60, 0.2, 0.2)
	rec.Search.Classes[0].Ceiling = 0.3
	rec.Search.Classes[0].GoalMet = false
	rec.Search.Classes[0].Reachable = false
	dw.NoteBackend(0, rec)
	dw.Flush()

	tr := traceJSONL(
		ev(0, "submit", 1, 1, 1),
		ev(5, "abort", 1, 1, 1),
	)
	rows, _, err := Attribute(bytes.NewReader(buf.Bytes()), strings.NewReader(tr))
	if err != nil {
		t.Fatal(err)
	}
	olap := rows[0]
	checkShares(t, olap)
	// Miss 0.4: ceiling 0.3 makes 0.1 structurally unfixable, the
	// remaining 0.3 is charged to the faults that ate every query.
	if !close1e9(olap.Miss, 0.4) || !close1e9(olap.InfeasibleShare, 0.1) || !close1e9(olap.FaultShare, 0.3) {
		t.Fatalf("shares: %+v", olap)
	}
	// An RT class with zero completions has no honest observed number:
	// it stays unmeasured rather than inventing a miss.
	if oltp := rows[1]; oltp.Miss != 0 || oltp.Observed != 0 {
		t.Fatalf("OLTP row should stay unmeasured: %+v", oltp)
	}
}

func checkShares(t *testing.T, at Attribution) {
	t.Helper()
	sum := at.InfeasibleShare + at.FaultShare + at.WaitShare + at.ExecShare
	if !close1e9(sum, at.Miss) {
		t.Fatalf("shares sum %v != miss %v: %+v", sum, at.Miss, at)
	}
	for _, v := range []float64{at.InfeasibleShare, at.FaultShare, at.WaitShare, at.ExecShare} {
		if v < 0 {
			t.Fatalf("negative share: %+v", at)
		}
	}
}

func close1e9(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

func TestMetricsCrossCheck(t *testing.T) {
	expo := strings.Join([]string{
		"# HELP qs_slo_attainment_ratio x",
		`qs_slo_attainment_ratio{class="1"} 0.5`,
		`qs_plan_held_total 3`,
		`qs_infeasible_ticks_total 7`,
	}, "\n") + "\n"
	var out bytes.Buffer
	if err := MetricsCrossCheck(&out, strings.NewReader(expo)); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, `qs_slo_attainment_ratio{class="1"} 0.5`) ||
		!strings.Contains(s, "qs_infeasible_ticks_total 7") {
		t.Fatalf("families missing:\n%s", s)
	}
	if strings.Contains(s, "qs_plan_held_total") || strings.Contains(s, "# HELP") {
		t.Fatalf("unrelated lines leaked:\n%s", s)
	}

	out.Reset()
	if err := MetricsCrossCheck(&out, strings.NewReader("other_metric 1\n")); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "none found") {
		t.Fatalf("empty cross-check not flagged:\n%s", out.String())
	}
}

// buildFleetTestLog writes a 2-backend log with a failover, a recovery,
// a brownout, and a migration interleaved between the tick records.
func buildFleetTestLog(t *testing.T, infeasibleTick2 bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	meta := testMeta()
	meta.Backends = []trace.BackendMeta{{ID: 1, Name: "b1"}, {ID: 2, Name: "b2"}}
	dw, err := NewWriter(&buf, meta)
	if err != nil {
		t.Fatal(err)
	}
	dw.NoteBackend(1, testRec(60, 0.45, 0.2))
	dw.NoteBackend(2, testRec(60, 0.45, 0.2))
	dw.NoteFleet(FleetRecord{T: 90, Event: "failover", Backend: 2, Moved: 3})
	rec := testRec(120, 0.35, 0.3)
	if infeasibleTick2 {
		rec.Search.Infeasible = true
		rec.Search.Binding = 1
	}
	dw.NoteBackend(1, rec)
	dw.NoteBackend(2, testRec(120, 0.35, 0.3))
	dw.NoteFleet(FleetRecord{T: 150, Event: "recover", Backend: 2})
	dw.NoteFleet(FleetRecord{T: 155, Event: "degraded", Backend: 1, Factor: 0.25})
	dw.NoteFleet(FleetRecord{T: 170, Event: "restored", Backend: 1})
	dw.NoteFleet(FleetRecord{T: 175, Event: "migration", Backend: 1, Class: 1, Target: 2})
	dw.NoteBackend(1, testRec(180, 0.5, 0.21))
	dw.NoteBackend(2, testRec(180, 0.5, 0.21))
	dw.Flush()
	if dw.Err() != nil {
		t.Fatal(dw.Err())
	}
	return buf.Bytes()
}

func TestTimelineRendersFleetAvailability(t *testing.T) {
	log := buildFleetTestLog(t, false)
	var out bytes.Buffer
	if err := Timeline(&out, bytes.NewReader(log), TickRange{}); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"Backend availability:",
		"backend 1: UP 0s-155s, DEGRADED x0.25 155s-170s, UP 170s-end",
		"backend 2: UP 0s-90s, DOWN 90s-150s, UP 150s-end  (3 queries re-dispatched on failover)",
		"Fleet events:",
		"backend 2 DOWN — failover, 3 queries re-dispatched to survivors",
		"backend 2 UP — rejoined with warm-up share",
		"backend 1 DEGRADED — running at x0.25 speed",
		"backend 1 restored to full speed",
		"backend 1 infeasible — migrating Class1 to backend 2",
		"tick    1 b2", // fleet tick lines carry the backend tag
	} {
		if !strings.Contains(s, want) {
			t.Errorf("fleet timeline missing %q:\n%s", want, s)
		}
	}
}

// An INFEASIBLE verdict at a tick where a backend is down must name the
// capacity loss; the same verdict before any fleet event must not.
func TestWhyNamesCapacityLoss(t *testing.T) {
	log := buildFleetTestLog(t, true)
	var out bytes.Buffer
	if err := Why(&out, bytes.NewReader(log), "class=1 tick=2", TickRange{}); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "INFEASIBLE") {
		t.Fatalf("why output missing the INFEASIBLE verdict:\n%s", s)
	}
	if !strings.Contains(s, "capacity lost: backend 2 down since t=90s") {
		t.Errorf("why output does not name the capacity loss:\n%s", s)
	}
}

// A single-engine log must render exactly as before: no availability
// section, no backend tags.
func TestTimelineSingleEngineUnchangedByFleetSupport(t *testing.T) {
	log := buildTestLog(t)
	var out bytes.Buffer
	if err := Timeline(&out, bytes.NewReader(log), TickRange{}); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if strings.Contains(s, "Backend availability") || strings.Contains(s, " b1 ") {
		t.Errorf("single-engine timeline grew fleet artifacts:\n%s", s)
	}
}
