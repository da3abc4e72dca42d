package trace

import (
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/patroller"
	"repro/internal/simclock"
)

func TestEmitAndOrder(t *testing.T) {
	tr := New(10)
	for i := 0; i < 5; i++ {
		tr.Emit(Event{Time: float64(i), Kind: QuerySubmit})
	}
	events := tr.Events()
	if len(events) != 5 {
		t.Fatalf("Len = %d", len(events))
	}
	for i, e := range events {
		if e.Time != float64(i) {
			t.Fatalf("order broken: %v", events)
		}
		if e.Seq != uint64(i+1) {
			t.Fatalf("seq = %d at %d", e.Seq, i)
		}
	}
}

func TestRingEviction(t *testing.T) {
	tr := New(3)
	for i := 0; i < 7; i++ {
		tr.Emit(Event{Time: float64(i)})
	}
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want capacity 3", tr.Len())
	}
	if tr.Dropped() != 4 {
		t.Fatalf("Dropped = %d, want 4", tr.Dropped())
	}
	if tr.Total() != 7 {
		t.Fatalf("Total = %d", tr.Total())
	}
	events := tr.Events()
	want := []float64{4, 5, 6}
	for i, e := range events {
		if e.Time != want[i] {
			t.Fatalf("retained %v, want last three", events)
		}
	}
}

func TestCountsSurviveEviction(t *testing.T) {
	tr := New(2)
	for i := 0; i < 5; i++ {
		tr.Emit(Event{Kind: QuerySubmit})
	}
	tr.Emit(Event{Kind: QueryDone})
	counts := tr.CountByKind()
	if counts[QuerySubmit] != 5 || counts[QueryDone] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestFilterAndQueryHistory(t *testing.T) {
	tr := New(16)
	tr.Emit(Event{Kind: QuerySubmit, Query: 1})
	tr.Emit(Event{Kind: QuerySubmit, Query: 2})
	tr.Emit(Event{Kind: QueryDone, Query: 1})
	hist := tr.QueryHistory(1)
	if len(hist) != 2 || hist[0].Kind != QuerySubmit || hist[1].Kind != QueryDone {
		t.Fatalf("history = %v", hist)
	}
	dones := tr.Filter(func(e Event) bool { return e.Kind == QueryDone })
	if len(dones) != 1 {
		t.Fatalf("filter = %v", dones)
	}
}

func TestWriteTo(t *testing.T) {
	tr := New(2)
	tr.Emit(Event{Time: 1, Kind: QuerySubmit, Detail: "alpha"})
	tr.Emit(Event{Time: 2, Kind: QueryDone, Detail: "beta"})
	tr.Emit(Event{Time: 3, Kind: QueryDone, Detail: "gamma"})
	var b strings.Builder
	tr.WriteTo(&b, 0)
	out := b.String()
	if strings.Contains(out, "alpha") {
		t.Fatal("evicted event rendered")
	}
	for _, want := range []string{"beta", "gamma", "evicted"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	b.Reset()
	tr.WriteTo(&b, 1)
	if strings.Contains(b.String(), "beta") {
		t.Fatal("max limit ignored")
	}
}

func TestInvalidCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("capacity 0 did not panic")
		}
	}()
	New(0)
}

func TestKindStrings(t *testing.T) {
	kinds := map[Kind]string{
		QuerySubmit: "submit", QueryStart: "start", QueryDone: "done",
		QueryIntercepted: "intercept", QueryReleased: "release",
		PlanChanged: "plan", WorkloadShift: "shift",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Fatalf("Kind(%d) = %q", int(k), k.String())
		}
	}
}

func TestAttachEngineRecordsLifecycle(t *testing.T) {
	clock := simclock.New()
	eng := engine.New(engine.Config{CPUCapacity: 10, IOCapacity: 10}, clock)
	tr := New(64)
	AttachEngine(tr, eng)
	q := &engine.Query{Class: 2, Client: 7, Cost: 42, Template: "Q1",
		Demand: engine.Demand{Work: 1, CPURate: 1}}
	eng.Submit(q)
	clock.Run()
	events := tr.Events()
	if len(events) != 3 {
		t.Fatalf("%d events, want submit+start+done", len(events))
	}
	if events[0].Kind != QuerySubmit || events[0].Detail != "Q1" || events[0].Value != 42 {
		t.Fatalf("submit event = %+v", events[0])
	}
	if events[1].Kind != QueryStart || events[1].Query != events[0].Query {
		t.Fatalf("start event = %+v", events[1])
	}
	if events[2].Kind != QueryDone || !strings.Contains(events[2].String(), "rt=1.000s exec=1.000s") {
		t.Fatalf("done event = %+v", events[2])
	}
}

func TestAttachPatrollerChainsHooks(t *testing.T) {
	clock := simclock.New()
	eng := engine.New(engine.Config{CPUCapacity: 10, IOCapacity: 10}, clock)
	pat := patroller.New(eng, 1)
	prior := 0
	pat.OnArrival = func(*patroller.QueryInfo) { prior++ }
	tr := New(64)
	AttachPatroller(tr, pat, clock)
	pat.SetPolicy(patroller.SystemLimit{Limit: 1000})

	q := &engine.Query{Class: 1, Cost: 10, Demand: engine.Demand{Work: 1, CPURate: 1}}
	eng.Submit(q)
	clock.Run()
	if prior != 1 {
		t.Fatal("pre-existing hook not chained")
	}
	kinds := tr.CountByKind()
	if kinds[QueryIntercepted] != 1 || kinds[QueryReleased] != 1 {
		t.Fatalf("counts = %v", kinds)
	}
}
