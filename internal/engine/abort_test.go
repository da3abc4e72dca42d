package engine

import (
	"testing"

	"repro/internal/simclock"
)

func TestAbortMidExecutionIsTerminal(t *testing.T) {
	e, clock := newTestEngine(1, 1)
	q := cpuQuery(10)
	var aborted, done []*Query
	e.OnAbort(func(q *Query) { aborted = append(aborted, q) })
	e.OnDone(func(q *Query) { done = append(done, q) })
	e.Submit(q)
	clock.After(4, func() {
		if !e.Abort(q) {
			t.Fatal("abort of executing query refused")
		}
	})
	clock.Run()
	if q.State != StateFailed {
		t.Fatalf("state = %v, want StateFailed", q.State)
	}
	if !almost(q.DoneTime, 4) {
		t.Fatalf("done time = %v, want 4", q.DoneTime)
	}
	if len(aborted) != 1 || aborted[0] != q {
		t.Fatalf("abort listeners saw %v", aborted)
	}
	if len(done) != 1 || done[0] != q {
		t.Fatalf("unclaimed abort must reach done listeners, saw %v", done)
	}
	if st := e.Stats(); st.Aborted != 1 || st.Completed != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAbortClaimedByHandlerSuppressesDone(t *testing.T) {
	e, clock := newTestEngine(1, 1)
	q := cpuQuery(10)
	var doneCalls, claims int
	e.OnDone(func(*Query) { doneCalls++ })
	e.SetAbortHandler(func(*Query) bool { claims++; return true })
	e.Submit(q)
	clock.After(4, func() { e.Abort(q) })
	clock.Run()
	if claims != 1 {
		t.Fatalf("handler claims = %d", claims)
	}
	if doneCalls != 0 {
		t.Fatalf("claimed abort reached done listeners %d times", doneCalls)
	}
}

func TestAbortNonExecutingQueryRefused(t *testing.T) {
	e, clock := newTestEngine(1, 1)
	q := cpuQuery(1)
	e.Submit(q)
	clock.Run()
	if q.State != StateDone {
		t.Fatalf("state = %v", q.State)
	}
	if e.Abort(q) {
		t.Fatal("abort of completed query accepted")
	}
	if e.Abort(nil) {
		t.Fatal("abort of nil query accepted")
	}
	if st := e.Stats(); st.Aborted != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSetSpeedScalesProgress(t *testing.T) {
	e, clock := newTestEngine(1, 1)
	q := cpuQuery(10)
	e.Submit(q)
	e.SetSpeed(0.5)
	clock.Run()
	if !almost(q.DoneTime, 20) {
		t.Fatalf("done = %v, want 20 at half speed", q.DoneTime)
	}
}

func TestStallWindowFreezesProgress(t *testing.T) {
	e, clock := newTestEngine(1, 1)
	q := cpuQuery(10)
	e.Submit(q)
	// Stall [4, 7): three frozen seconds push completion from 10 to 13.
	clock.At(4, func() { e.SetSpeed(0) })
	clock.At(7, func() { e.SetSpeed(1) })
	clock.Run()
	if q.State != StateDone {
		t.Fatalf("state = %v after stall window ended", q.State)
	}
	if !almost(q.DoneTime, 13) {
		t.Fatalf("done = %v, want 13 after a 3s stall", q.DoneTime)
	}
	if e.Speed() != 1 {
		t.Fatalf("speed = %v", e.Speed())
	}
}

func TestRetryAttemptCarriesThrough(t *testing.T) {
	e, clock := newTestEngine(1, 1)
	first := cpuQuery(10)
	var retried *Query
	e.SetAbortHandler(func(failed *Query) bool {
		retried = &Query{Demand: failed.Demand, Attempt: failed.Attempt + 1}
		e.Submit(retried)
		return true
	})
	e.Submit(first)
	clock.After(4, func() { e.Abort(first) })
	clock.Run()
	if retried == nil || retried.State != StateDone {
		t.Fatalf("retry did not complete: %+v", retried)
	}
	if retried.Attempt != 1 {
		t.Fatalf("attempt = %d", retried.Attempt)
	}
	// The retry restarts from scratch at the abort instant.
	if !almost(retried.DoneTime, 14) {
		t.Fatalf("retry done = %v, want 14", retried.DoneTime)
	}
}

// TestAbortRefusesQueryOwnedByAnotherEngine is the shared-pool ABA case:
// engines number their own queries, so a pooled object recycled by
// engine 1 can come back on engine 2 under the ID it had on engine 1. A
// stale abort aimed at the old attempt guards only on ID and attempt,
// so it reaches engine 1 with a query executing on engine 2; engine 1
// must refuse it and leave both active sets alone.
func TestAbortRefusesQueryOwnedByAnotherEngine(t *testing.T) {
	clock := simclock.New()
	pool := new(QueryPool)
	cfg := Config{CPUCapacity: 1, IOCapacity: 1}
	e1, e2 := NewWithPool(cfg, clock, pool), NewWithPool(cfg, clock, pool)
	submit := func(e *Engine, work float64) *Query {
		q := e.AcquireQuery()
		q.Class = 1
		q.Demand = Demand{Work: work, CPURate: 1}
		e.Submit(q)
		return q
	}
	a := submit(e1, 1)
	b := submit(e1, 100)
	clock.RunUntil(5) // a completes on engine 1 and is recycled
	if e1.Active() != 1 || e1.ActiveQueries()[0] != b {
		t.Fatalf("engine 1 active set %v, want just the long query", e1.ActiveQueries())
	}
	reused := submit(e2, 100)
	if reused != a || reused.ID != 1 {
		t.Fatalf("engine 2 got object %p with ID %d, want the recycled %p with ID 1", reused, reused.ID, a)
	}
	if e1.Abort(reused) {
		t.Fatal("engine 1 aborted a query executing on engine 2")
	}
	if e1.Active() != 1 || e1.ActiveQueries()[0] != b || b.State != StateExecuting {
		t.Fatalf("engine 1 active set %v, want the long query untouched", e1.ActiveQueries())
	}
	if e2.Active() != 1 || e2.ActiveQueries()[0] != reused || reused.State != StateExecuting {
		t.Fatalf("engine 2 active set %v, want the reused query still executing", e2.ActiveQueries())
	}
	if e1.Stats().Aborted != 0 {
		t.Fatalf("engine 1 counted %d aborts", e1.Stats().Aborted)
	}
	if !e2.Abort(reused) {
		t.Fatal("engine 2 refused to abort its own query")
	}
}
