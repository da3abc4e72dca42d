package trace

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"repro/internal/simclock"
)

func TestPeriodAndPlanStamping(t *testing.T) {
	tr := New(16)
	tr.SetPeriodMapper(func(at simclock.Time) int { return int(at) / 100 })
	tr.Emit(Event{Time: 50, Kind: QuerySubmit, Query: 1})
	tr.Emit(Event{Time: 150, Kind: PlanChanged})
	tr.Emit(Event{Time: 250, Kind: QueryDone, Query: 1})
	ev := tr.Events()
	if ev[0].Period != 0 || ev[1].Period != 1 || ev[2].Period != 2 {
		t.Fatalf("periods = %d,%d,%d", ev[0].Period, ev[1].Period, ev[2].Period)
	}
	if ev[0].Plan != 0 {
		t.Fatalf("pre-change plan = %d, want 0", ev[0].Plan)
	}
	if ev[1].Plan != 1 || ev[2].Plan != 1 {
		t.Fatalf("post-change plans = %d,%d, want 1,1", ev[1].Plan, ev[2].Plan)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := New(2) // smaller than the event count: export must be lossless anyway
	meta := Meta{Experiment: "fig6", Seed: 7, PeriodSeconds: 100, Periods: 3,
		Classes: []ClassMeta{{ID: 1, Name: "Class 1", Kind: "olap", Goal: "velocity >= 0.40", Target: 0.4}}}
	if err := tr.StreamJSONL(&buf, meta); err != nil {
		t.Fatal(err)
	}
	tr.SetPeriodMapper(func(at simclock.Time) int { return int(at) / 100 })
	tr.Emit(Event{Time: 10, Kind: QuerySubmit, Class: 1, Query: 5, Client: 2, Value: 42.5, Detail: "Q9"})
	tr.Emit(Event{Time: 120, Kind: PlanChanged, Value: 1.5, Detail: "limits: 1=300"})
	tr.Emit(Event{Time: 130, Kind: QueryStart, Class: 1, Query: 5, Client: 2, Value: 42.5})
	tr.Emit(Event{Time: 220, Kind: QueryDone, Class: 1, Query: 5, Client: 2, Value: 42.5})
	if err := tr.SinkErr(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 {
		t.Fatalf("ring retained %d, want 2", tr.Len())
	}

	m, events, err := scanAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if m.Version != FormatVersion || m.Experiment != "fig6" || m.Seed != 7 {
		t.Fatalf("meta = %+v", m)
	}
	if c := m.ClassByID(1); c == nil || c.Name != "Class 1" || c.Target != 0.4 {
		t.Fatalf("class meta = %+v", c)
	}
	if len(events) != 4 {
		t.Fatalf("%d events exported, want 4 (lossless)", len(events))
	}
	e := events[0]
	if e.Seq != 1 || e.Time != 10 || e.Kind != QuerySubmit || e.Class != 1 ||
		e.Query != 5 || e.Client != 2 || e.Period != 0 || e.Plan != 0 ||
		e.Value != 42.5 || e.Detail != "Q9" {
		t.Fatalf("event[0] = %+v", e)
	}
	if events[2].Plan != 1 || events[2].Period != 1 {
		t.Fatalf("event[2] = %+v", events[2])
	}
}

// scanAll collects a whole JSONL export through ScanJSONL.
func scanAll(r io.Reader) (Meta, []Event, error) {
	var meta Meta
	var events []Event
	err := ScanJSONL(r,
		func(m Meta) error { meta = m; return nil },
		func(e Event) error { events = append(events, e); return nil })
	return meta, events, err
}

func TestJSONLExportDeterministic(t *testing.T) {
	run := func() string {
		var buf bytes.Buffer
		tr := New(8)
		if err := tr.StreamJSONL(&buf, Meta{Experiment: "x", Seed: 1}); err != nil {
			t.Fatal(err)
		}
		tr.Emit(Event{Time: 1.0 / 3.0, Kind: QuerySubmit, Query: 1, Value: 0.1 + 0.2})
		tr.Emit(Event{Time: 2, Kind: QueryDone, Query: 1})
		tr.Flush()
		return buf.String()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("export not byte-stable:\n%q\n%q", a, b)
	}
}

func TestScanJSONLRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"no meta":      `{"type":"event","seq":1}`,
		"bad json":     "{not json}",
		"unknown type": `{"type":"wat"}`,
		"bad kind":     "{\"type\":\"meta\",\"v\":1}\n{\"type\":\"event\",\"kind\":\"zap\"}",
		"empty":        "",
	}
	for name, in := range cases {
		if _, _, err := scanAll(strings.NewReader(in)); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

func TestLifecycles(t *testing.T) {
	var ended []*Span
	l := NewLifecycles(func(s *Span) { ended = append(ended, s) })
	var open *Span
	for _, e := range []Event{
		{Kind: QuerySubmit, Query: 2, Class: 1, Client: 4, Time: 0, Value: 50},
		{Kind: QuerySubmit, Query: 1, Class: 2, Client: 3, Time: 1, Value: 9},
		{Kind: QueryIntercepted, Query: 2, Class: 1, Client: 4, Time: 0},
		{Kind: QueryStart, Query: 1, Class: 2, Client: 3, Time: 1},
		{Kind: PlanChanged, Time: 5, Value: 2},
		{Kind: QueryReleased, Query: 2, Class: 1, Client: 4, Time: 10},
		{Kind: QueryStart, Query: 2, Class: 1, Client: 4, Time: 10},
		// q2 aborts and is retried: the client's next submit (q3, with a
		// refreshed cost) continues the same logical query.
		{Kind: QueryAborted, Query: 2, Class: 1, Client: 4, Time: 20},
		{Kind: QueryRetried, Query: 2, Class: 1, Client: 4, Time: 20},
		{Kind: QuerySubmit, Query: 3, Class: 1, Client: 4, Time: 25, Value: 60},
		{Kind: QueryStart, Query: 3, Class: 1, Client: 4, Time: 26},
		{Kind: QueryDone, Query: 3, Class: 1, Client: 4, Time: 30},
		// q4 aborts with no retry after it: it ends as failed.
		{Kind: QuerySubmit, Query: 4, Class: 1, Client: 5, Time: 31},
		{Kind: QueryStart, Query: 4, Class: 1, Client: 5, Time: 31},
		{Kind: QueryAborted, Query: 4, Class: 1, Client: 5, Time: 32},
		{Kind: QueryDone, Query: 99, Time: 33}, // no submit seen: ignored
		// q5 aborts as the trace's last event; Close ends it.
		{Kind: QuerySubmit, Query: 5, Class: 1, Client: 6, Time: 40},
		{Kind: QueryStart, Query: 5, Class: 1, Client: 6, Time: 40},
		{Kind: QueryAborted, Query: 5, Class: 1, Client: 6, Time: 41},
	} {
		if s := l.Add(e); e.Query == 1 {
			open = s
		}
	}
	l.Close()
	if len(ended) != 3 {
		t.Fatalf("%d spans ended, want 3 (q3 done, q4 and q5 failed)", len(ended))
	}
	done := ended[0]
	if done.Query != 3 || done.Attempts != 2 || done.Cost != 60 || !done.Completed() {
		t.Fatalf("retried span = %+v", done)
	}
	if done.FirstSubmit != 0 || done.Submit != 25 || done.Intercept >= 0 {
		t.Fatalf("retried span edges = %+v, want first submit 0 and the resubmission's edges", done)
	}
	if done.AdmissionWait() != 1 || done.ExecTime() != 4 {
		t.Fatalf("wait=%v exec=%v, want 1, 4", done.AdmissionWait(), done.ExecTime())
	}
	for _, f := range ended[1:] {
		if !f.Failed || f.Completed() || f.Done != f.Start+1 {
			t.Fatalf("aborted span = %+v, want failed at its abort time", f)
		}
	}
	if open == nil || open.Completed() || !open.Started() || open.Done >= 0 {
		t.Fatalf("open span = %+v", open)
	}
}
