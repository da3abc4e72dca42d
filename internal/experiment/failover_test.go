package experiment

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/decisionlog"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/trace"
)

// failoverFleetConfig is the fleet test config with backend 2 crashed
// mid-run and the mitigation stack on — the smallest rig that exercises
// failover re-dispatch, budget redistribution, and migration.
func failoverFleetConfig() MixedConfig {
	cfg := fleetTestConfig()
	cfg.Experiment = "fleet-failover-test"
	// The doomed backend carries a routing affinity (the E15 shape): the
	// stalled engine's queue and load scores repel organically, so
	// without the bias nothing would route into the black hole and the
	// mitigation-off arm would have nothing to measure.
	cfg.Backends[1].Affinity = map[engine.ClassID]float64{2: 2}
	cfg.Faults = &fault.Plan{
		Seed:           9,
		BackendCrashes: []fault.BackendCrash{{Backend: 2, At: 450}},
	}
	return cfg
}

// scanFleetRecords collects the fleet records out of a decision log.
func scanFleetRecords(t *testing.T, dec []byte) []decisionlog.FleetRecord {
	t.Helper()
	var out []decisionlog.FleetRecord
	err := decisionlog.ScanJSONL(bytes.NewReader(dec), nil, nil,
		func(fr decisionlog.FleetRecord) error { out = append(out, fr); return nil })
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// A backend crash on a mitigated fleet must surface everywhere the
// operator looks: a failover record in the decision log, reroute events
// in the trace matching the re-dispatch count, and a DOWN span in the
// qreport timeline.
func TestFleetFailoverIsObservable(t *testing.T) {
	_, traceBytes, dec := fleetOutputs(t, failoverFleetConfig())

	frs := scanFleetRecords(t, dec)
	var failover *decisionlog.FleetRecord
	for i, fr := range frs {
		if fr.Event == "failover" {
			if failover != nil {
				t.Fatalf("multiple failover records: %+v", frs)
			}
			failover = &frs[i]
		}
	}
	if failover == nil {
		t.Fatalf("no failover record in the decision log; fleet records: %+v", frs)
	}
	if failover.Backend != 2 || failover.T != 450 {
		t.Errorf("failover record %+v, want backend 2 at t=450", failover)
	}
	reroutes := bytes.Count(traceBytes, []byte(`"kind":"reroute"`))
	if reroutes != failover.Moved {
		t.Errorf("trace carries %d reroute events, decision log says %d queries moved", reroutes, failover.Moved)
	}

	var sb strings.Builder
	if err := decisionlog.Timeline(&sb, bytes.NewReader(dec), decisionlog.TickRange{}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"Backend availability:",
		"backend 2: UP 0s-450s, DOWN 450s-end",
		"backend 2 DOWN — failover",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q\n%s", want, out)
		}
	}
}

// With mitigation disabled the router is never told about the crash: no
// fleet records, no reroutes, and the dead backend keeps receiving
// queries after the crash — the black-hole control arm. (Whole-run
// tallies are not comparable between the arms — the migration policy is
// live from t=0 in the mitigated one — so the assertion is on
// post-crash routing specifically.)
func TestFleetMitigationOffKeepsRoutingToDeadBackend(t *testing.T) {
	_, mitTrace, _ := fleetOutputs(t, failoverFleetConfig())

	off := failoverFleetConfig()
	off.DisableFleetMitigation = true
	_, offTrace, offDec := fleetOutputs(t, off)

	if frs := scanFleetRecords(t, offDec); len(frs) != 0 {
		t.Errorf("mitigation-off run wrote %d fleet records, want none: %+v", len(frs), frs)
	}
	if n := bytes.Count(offTrace, []byte(`"kind":"reroute"`)); n != 0 {
		t.Errorf("mitigation-off trace carries %d reroute events, want none", n)
	}
	deadRoutesAfterCrash := func(traceBytes []byte) int {
		n := 0
		err := trace.ScanJSONL(bytes.NewReader(traceBytes),
			func(trace.Meta) error { return nil },
			func(e trace.Event) error {
				if e.Kind == trace.QueryRouted && int(e.Value) == 2 && float64(e.Time) > 450 {
					n++
				}
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	if n := deadRoutesAfterCrash(mitTrace); n != 0 {
		t.Errorf("mitigated run routed %d queries to the dead backend after the crash, want 0", n)
	}
	if n := deadRoutesAfterCrash(offTrace); n == 0 {
		t.Error("mitigation-off run routed nothing to the dead backend after the crash — no black hole to measure")
	}
}

// Resuming a faulted fleet from any checkpoint boundary — before or
// after the crash — must reproduce the uninterrupted run's outputs byte
// for byte. This is the failover extension of the fleet resume contract:
// router health, planner budget state, and the injector's remaining
// backend events all have to survive the round trip.
func TestFleetFailoverResumeIsByteIdentical(t *testing.T) {
	// With a 60s control interval and checkpoints every 2 boundaries, the
	// boundary times straddle the t=450 crash.
	dir := t.TempDir()
	cfg := failoverFleetConfig()
	cfg.CheckpointEvery = 2
	cfg.CheckpointDir = filepath.Join(dir, "ckpt")
	resumeEveryBoundary(t, dir, cfg)
}

// The E15 acceptance bar: with one of three backends dead for most of
// the measurement window, failover + migration keep the critical class's
// delivered attainment at >= 90% of the no-fault baseline, while the
// mitigation-off fleet lands visibly below both.
func TestFailoverExperimentQuickAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three full quick fleet simulations")
	}
	r := RunFailover(FailoverConfig{Seed: 1, Quick: true})
	if r.Baseline.Attainment < 0.8 {
		t.Errorf("baseline attainment %.3f: the healthy fleet should be comfortable", r.Baseline.Attainment)
	}
	if ret := r.Retention(r.Failover); ret < 0.9 {
		t.Errorf("failover retention %.3f, want >= 0.9 of baseline", ret)
	}
	if r.NoMitig.Attainment >= r.Failover.Attainment {
		t.Errorf("mitigation-off attainment %.3f >= failover %.3f: the control arm should collapse",
			r.NoMitig.Attainment, r.Failover.Attainment)
	}
	if r.NoMitig.Completed >= r.Failover.Completed {
		t.Errorf("mitigation-off completed %d >= failover %d: the black hole should swallow throughput",
			r.NoMitig.Completed, r.Failover.Completed)
	}
}
