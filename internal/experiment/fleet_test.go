package experiment

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/decisionlog"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/patroller"
	"repro/internal/workload"
)

// fleetTestConfig is a short heterogeneous fleet run: two paper-default
// backends plus a half-capacity one, heavy enough that routing and the
// budget split both have something to do.
func fleetTestConfig() MixedConfig {
	return MixedConfig{
		Mode: QueryScheduler,
		Sched: ConstantSchedule(300, 600, map[engine.ClassID]int{
			1: 6, 2: 4, 3: 20,
		}),
		Classes:    workload.PaperClasses(),
		Seed:       5,
		Experiment: "fleet-test",
		Backends: []backend.Spec{
			{Name: "fast-1"},
			{Name: "fast-2"},
			{Name: "slow", CPUCapacity: 1, IOCapacity: 7},
		},
	}
}

// fleetOutputs runs cfg with trace and decision log captured in memory.
func fleetOutputs(t *testing.T, cfg MixedConfig) (*FleetResult, []byte, []byte) {
	t.Helper()
	var tb, db bytes.Buffer
	cfg.Trace = &tb
	cfg.Decisions = &db
	res := RunFleet(cfg)
	if res.ExportErr != nil {
		t.Fatal(res.ExportErr)
	}
	return res, tb.Bytes(), db.Bytes()
}

// A single default backend spec is a fleet of one: trace, decision log,
// metrics exposition and tables byte-identical to a config that never
// mentions backends. This is what keeps `-backends 1` a no-op. The
// faulted case pins the rest of the fleet-of-one contract: the classic
// injector seed stream (abort draws would shift otherwise) and no
// backend label on any metric.
func TestSingleBackendSpecIsByteIdenticalToLegacy(t *testing.T) {
	base := MixedConfig{
		Mode:       QueryScheduler,
		Sched:      ConstantSchedule(300, 300, map[engine.ClassID]int{1: 4, 2: 2, 3: 12}),
		Seed:       3,
		Experiment: "legacy-equivalence",
	}
	faulted := base
	faulted.Faults = &fault.Plan{
		Seed:        11,
		AbortRate:   map[engine.ClassID]float64{1: 0.1},
		Misestimate: map[engine.ClassID]float64{2: 2},
		Slowdowns:   []fault.Slowdown{{Window: fault.Window{Start: 200, End: 400}, Factor: 0.5}},
	}
	faulted.Retry = &patroller.RetryPolicy{MaxAttempts: 2, Backoff: 30}

	type outputs struct {
		trace, dec, metrics []byte
		tables              string
	}
	run := func(cfg MixedConfig) outputs {
		var tb, db, mb bytes.Buffer
		cfg.Trace, cfg.Decisions, cfg.Metrics = &tb, &db, &mb
		res := RunMixed(cfg)
		if res.ExportErr != nil {
			t.Fatal(res.ExportErr)
		}
		return outputs{tb.Bytes(), db.Bytes(), mb.Bytes(), mixedTables(res)}
	}
	for _, c := range []struct {
		name string
		cfg  MixedConfig
	}{{"plain", base}, {"faulted", faulted}} {
		name, cfg := c.name, c.cfg
		legacy := run(cfg)
		speced := cfg
		speced.Backends = backend.DefaultSpecs(1)
		spec := run(speced)

		if !bytes.Equal(legacy.trace, spec.trace) {
			t.Errorf("%s: one default backend spec changed the trace bytes", name)
		}
		if !bytes.Equal(legacy.dec, spec.dec) {
			t.Errorf("%s: one default backend spec changed the decision log bytes", name)
		}
		if !bytes.Equal(legacy.metrics, spec.metrics) {
			t.Errorf("%s: one default backend spec changed the metrics exposition", name)
		}
		if legacy.tables != spec.tables {
			t.Errorf("%s: one default backend spec changed the period tables", name)
		}
		if bytes.Contains(spec.metrics, []byte("backend=")) {
			t.Errorf("%s: a fleet of one labelled its metrics with a backend", name)
		}
		if name == "faulted" && !bytes.Contains(spec.metrics, []byte("fault_injected_total")) {
			t.Errorf("%s: the fault plan injected nothing", name)
		}
	}
}

// A fleet run is as deterministic as a single-engine one: identical
// bytes for identical configs.
func TestFleetRunIsDeterministic(t *testing.T) {
	res1, trace1, dec1 := fleetOutputs(t, fleetTestConfig())
	res2, trace2, dec2 := fleetOutputs(t, fleetTestConfig())
	if !bytes.Equal(trace1, trace2) {
		t.Error("fleet trace bytes differ between identical runs")
	}
	if !bytes.Equal(dec1, dec2) {
		t.Error("fleet decision-log bytes differ between identical runs")
	}
	if mixedTables(res1.MixedResult) != mixedTables(res2.MixedResult) {
		t.Error("fleet period tables differ between identical runs")
	}
}

// The router must shift load away from the half-capacity backend: it
// reaches saturation sooner, so the load scorer repels work earlier
// than on the full-capacity boxes.
func TestFleetRoutingShiftsLoadOffSlowBackend(t *testing.T) {
	res, traceBytes, _ := fleetOutputs(t, fleetTestConfig())

	if len(res.Routed) != 3 {
		t.Fatalf("routed tallies for %d backends, want 3", len(res.Routed))
	}
	slow := res.Routed[2]
	for i := 0; i < 2; i++ {
		if res.Routed[i] <= slow {
			t.Errorf("backend %d (fast) routed %d queries, slow routed %d — router did not shift load",
				i+1, res.Routed[i], slow)
		}
	}
	var total int64
	for _, n := range res.Routed {
		total += n
	}
	if slow >= total/3 {
		t.Errorf("slow backend got %d of %d routed queries — at least a fair share", slow, total)
	}
	// Every routing decision lands in the trace.
	routeLines := bytes.Count(traceBytes, []byte(`"kind":"route"`))
	if int64(routeLines) != total {
		t.Errorf("trace carries %d route events for %d routed queries", routeLines, total)
	}

	// The planner actuates the split: by the end the slow backend's
	// budget share should not exceed either fast backend's.
	if len(res.Plans) == 0 {
		t.Fatal("no fleet plans recorded")
	}
	final := res.Plans[len(res.Plans)-1].Limits
	if final[2] > final[0] || final[2] > final[1] {
		t.Errorf("final budget split %v gives the slow backend the largest share", final)
	}
}

// The per-backend decision streams surface in qreport's summary, one
// section per backend with its own SLO accounting.
func TestFleetDecisionLogSummarizesPerBackend(t *testing.T) {
	_, _, dec := fleetOutputs(t, fleetTestConfig())
	var sb strings.Builder
	if err := decisionlog.Summarize(&sb, bytes.NewReader(dec)); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"3 backends",
		`backend 1 "fast-1"`,
		`backend 3 "slow": cpu 1, io 7`,
		"=== backend 1: fast-1 ===",
		"=== backend 2: fast-2 ===",
		"=== backend 3: slow ===",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("fleet summary missing %q\n%s", want, out)
		}
	}
}
