//go:build !race

package trace

import (
	"io"
	"testing"

	"repro/internal/backend"
	"repro/internal/engine"
	"repro/internal/router"
	"repro/internal/simclock"
)

// TestFleetCycleDoesNotAllocate pins the fleet's steady-state per-query
// path: once the shared query pool and the tracer's buffers are warm, a
// query acquired from the router, routed to one of three backends,
// executed and completed — its route, submit, start and done events
// streamed to a JSONL sink — allocates nothing. (Skipped under -race:
// instrumentation adds its own allocations.)
func TestFleetCycleDoesNotAllocate(t *testing.T) {
	clock := simclock.New()
	tr := New(64)
	if err := tr.StreamJSONL(io.Discard, Meta{Experiment: "allocs"}); err != nil {
		t.Fatal(err)
	}
	pool := new(engine.QueryPool)
	roster := make([]backend.Backend, 3)
	for i := range roster {
		b := backend.New(i+1, backend.Spec{Name: "b"}, clock, pool)
		AttachEngine(tr, b.Eng)
		roster[i] = b
	}
	r := router.New(roster, router.DefaultScorers())
	AttachRouter(tr, r, clock)
	n := 0
	cycle := func() {
		// Three back-to-back submissions: each one's load repels the
		// next, so every backend gets one.
		for i := 0; i < 3; i++ {
			q := r.AcquireQuery()
			q.Class = engine.ClassID(1 + n%3)
			q.Cost = 100
			q.Demand = engine.Demand{Work: 0.001, CPURate: 1, IORate: 0.2}
			n++
			r.Submit(q)
		}
		clock.RunUntil(clock.Now() + 0.01)
	}
	for i := 0; i < 4*traceBatchSize; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(4*traceBatchSize, cycle); allocs != 0 {
		t.Fatalf("fleet submit -> route -> complete cycle allocates %v times", allocs)
	}
	for i, got := range r.Routed() {
		if got == 0 {
			t.Fatalf("backend %d never routed to: %v", i+1, r.Routed())
		}
	}
	if c := tr.CountByKind(); c[QueryDone] != c[QueryRouted] {
		t.Fatalf("%d done events for %d routed", c[QueryDone], c[QueryRouted])
	}
	if err := tr.SinkErr(); err != nil {
		t.Fatal(err)
	}
}
