package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/experiment"
	"repro/internal/workload"
)

func TestLayerOfChargesInnermostModuleFrame(t *testing.T) {
	cases := []struct {
		name  string
		stack []frame
		want  string
	}{
		{"module leaf", []frame{
			{"repro/internal/engine.(*Engine).advanceTo", "/src/internal/engine/engine.go"},
			{"repro/internal/simclock.(*Clock).RunUntil", "/src/internal/simclock/simclock.go"},
		}, "engine"},
		{"stdlib charged to caller", []frame{
			{"strconv.AppendFloat", "/go/src/strconv/ftoa.go"},
			{"runtime.mapassign", "/go/src/runtime/map.go"},
			{"repro/internal/trace.(*Tracer).Emit", "/src/internal/trace/trace.go"},
			{"repro/internal/engine.(*Engine).finish", "/src/internal/engine/engine.go"},
		}, "trace"},
		{"grouped package", []frame{
			{"repro/internal/rng.(*Source).Float64", "/src/internal/rng/rng.go"},
			{"repro/internal/workload.(*Set).Generate", "/src/internal/workload/workload.go"},
		}, "workload"},
		{"shared toolkit charged to caller", []frame{
			{"repro/internal/stats.(*Reservoir).Add", "/src/internal/stats/stats.go"},
			{"repro/internal/metrics.(*Collector).onDone", "/src/internal/metrics/metrics.go"},
		}, "obs"},
		{"benchmark frames skipped", []frame{
			{"repro/perfbench.(*sink).Write", "/src/perfbench/sinks.go"},
			{"repro/internal/decisionlog.(*Writer).Note", "/src/internal/decisionlog/decisionlog.go"},
		}, "decisionlog"},
		{"checkpoint.go in another package", []frame{
			{"encoding/gob.(*Encoder).Encode", "/go/src/encoding/gob/encoder.go"},
			{"repro/internal/engine.(*Engine).CheckpointState", "/src/internal/engine/checkpoint.go"},
			{"repro/internal/experiment.snapshotRun", "/src/internal/experiment/checkpoint.go"},
		}, "checkpoint"},
		{"checkpoint.go only counts when innermost", []frame{
			{"repro/internal/simclock.(*Clock).RunUntil", "/src/internal/simclock/simclock.go"},
			{"repro/internal/experiment.runBoundaries", "/src/internal/experiment/checkpoint.go"},
		}, "simclock"},
		{"checkpoint package", []frame{
			{"repro/internal/checkpoint.Write", "/src/internal/checkpoint/file.go"},
		}, "checkpoint"},
		{"no module frame", []frame{
			{"runtime.gcBgMarkWorker", "/go/src/runtime/mgc.go"},
		}, "gc"},
		{"only benchmark frames", []frame{
			{"repro/perfbench.main", "/src/perfbench/main.go"},
		}, "gc"},
		{"empty stack", nil, "gc"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("%s: layerOf = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestEveryInternalPackageHasALayer(t *testing.T) {
	entries, err := os.ReadDir("../internal")
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, l := range layers {
		known[l] = true
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		layer, ok := packageLayer[e.Name()]
		if !ok {
			t.Errorf("internal/%s has no layer in packageLayer", e.Name())
			continue
		}
		if layer != "" && !known[layer] {
			t.Errorf("internal/%s maps to unknown layer %q", e.Name(), layer)
		}
	}
}

func TestCPUProfileFoldsToShares(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler busy: %v", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	x := 0.0
	for time.Now().Before(deadline) {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	pprof.StopCPUProfile()
	if x < 0 {
		t.Fatal("unreachable")
	}
	stacks, weights, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) == 0 || len(stacks) != len(weights) {
		t.Fatalf("parsed %d stacks, %d weights", len(stacks), len(weights))
	}
	foundTest := false
	for _, st := range stacks {
		for _, f := range st {
			if f.fn == "repro/perfbench.TestCPUProfileFoldsToShares" {
				foundTest = true
			}
		}
	}
	if !foundTest {
		t.Error("no sample names the spinning test function")
	}
	shares, err := cpuByLayer(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, l := range layers {
		sum += shares[l]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("layer shares sum to %v", sum)
	}
}

func TestPercentileAndMeans(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median of even count = %v, want 2.5", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
	if got := weightedMean([]float64{1, 3}, []float64{1, 3}); got != 2.5 {
		t.Errorf("weightedMean = %v, want 2.5", got)
	}
	if got := weightedMean([]float64{7}, []float64{0}); got != 0 {
		t.Errorf("weightedMean with no weight = %v, want 0", got)
	}
}

// metricName is the shape of a metric name in the result line.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func checkMetricName(name string) error {
	if !metricName.MatchString(name) {
		return fmt.Errorf("bad metric name %q", name)
	}
	return nil
}

func TestMetricNames(t *testing.T) {
	for _, bad := range []string{"", "a b", "router/alloc", "_lead", "é", string(make([]byte, 65))} {
		if checkMetricName(bad) == nil {
			t.Errorf("checkMetricName(%q) accepted", bad)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if err := checkMetricName(d.name); err != nil {
			t.Error(err)
		}
		if seen[d.name] {
			t.Errorf("metric %s defined twice", d.name)
		}
		seen[d.name] = true
	}
}

// TestBenchmarkJSONMatchesHarness keeps the metric list in BENCHMARK.json
// in step with what the harness prints.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, harness %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), harness %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, harness %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %s, harness %s", i, spec.Workloads[i].Name, w.name)
		}
	}
}

func TestSLOAttainmentCountsStarvedCells(t *testing.T) {
	classes := []*workload.Class{
		{ID: 1, Kind: workload.OLAP, Goal: workload.Goal{Metric: workload.Velocity, Target: 0.5}},
		{ID: 3, Kind: workload.OLTP, Goal: workload.Goal{Metric: workload.AvgResponseTime, Target: 0.25}},
	}
	// Class 1 meets its goal in period 0, then starves: clients but no
	// completions in periods 1 and 2. Class 3 has no clients in period 2.
	res := &experiment.MixedResult{
		Classes:      classes,
		Periods:      3,
		Metric:       [][]float64{{0.9, 0, 0}, {0.2, 0.3, 0}},
		Measurable:   [][]bool{{true, false, false}, {true, true, false}},
		GoalMet:      [][]bool{{true, false, false}, {true, false, false}},
		Satisfaction: []float64{1, 0.5},
		Completed:    [][]int{{10, 0, 0}, {100, 300, 0}},
		RespP95:      [][]float64{{0, 0, 0}, {0.4, 0.6, 0}},
		Pending:      [][]int{{1, 2, 2}, {0, 0, 0}},
	}
	clients := map[engine.ClassID][]int{1: {2, 2, 2}, 3: {5, 5, 0}}
	o := &outcome{res: res, demand: func(c engine.ClassID, p int) bool { return clients[c][p] > 0 }}
	m := simMetrics(o)
	// Cells with demand: class 1 × 3 periods, class 3 × 2 periods; met:
	// class 1 period 0 and class 3 period 0.
	if got, want := m["slo_attainment"], 2.0/5; math.Abs(got-want) > 1e-12 {
		t.Errorf("slo_attainment = %v, want %v (starved cells are misses)", got, want)
	}
	if got, want := m["oltp_rt_ms"], 1000*(0.2*100+0.3*300)/400; math.Abs(got-want) > 1e-9 {
		t.Errorf("oltp_rt_ms = %v, want %v", got, want)
	}
	if got := m["oltp_rt_p95_ms"]; math.Abs(got-600) > 1e-9 {
		t.Errorf("oltp_rt_p95_ms = %v, want the worst period's 600", got)
	}
	if got := m["olap_velocity"]; math.Abs(got-0.9) > 1e-12 {
		t.Errorf("olap_velocity = %v, want 0.9", got)
	}
	o.measuredFrom = 1
	if got, want := simMetrics(o)["slo_attainment"], 0.0; got != want {
		t.Errorf("slo_attainment from period 1 = %v, want %v", got, want)
	}
}

func TestSinkCountsAcrossWrites(t *testing.T) {
	s := newSink("kind", "done", "submit")
	first := 0
	s.firstWrite = func() { first++ }
	for _, w := range []string{
		`{"type":"meta"}` + "\n" + `{"kind":"sub`,
		`mit","x":1}` + "\n",
		`{"kind":"done"}` + "\n" + `{"kind":"done"}` + "\n",
		`{"kind":"abort"}` + "\n" + `{"kind":"do`,
	} {
		if n, err := s.Write([]byte(w)); n != len(w) || err != nil {
			t.Fatalf("Write = %d, %v", n, err)
		}
	}
	if first != 1 {
		t.Errorf("firstWrite ran %d times", first)
	}
	if s.lines != 5 || s.writes != 4 || s.endsInNewline {
		t.Errorf("lines %d writes %d endsInNewline %v", s.lines, s.writes, s.endsInNewline)
	}
	if s.count(0) != 2 || s.count(1) != 1 {
		t.Errorf("done %d submit %d, want 2 and 1", s.count(0), s.count(1))
	}
}

func TestExposedTotal(t *testing.T) {
	text := "# HELP x\nqueries_completed_total{backend=\"b1\"} 11\nqueries_completed_total{backend=\"b2\"} 4\nqueries_completed_totally 9\n"
	if n, err := exposedTotal(text, "queries_completed_total"); err != nil || n != 15 {
		t.Errorf("exposedTotal = %d, %v; want 15", n, err)
	}
	if _, err := exposedTotal(text, "missing"); err == nil {
		t.Error("exposedTotal found a missing metric")
	}
}

// shortSchedule is two 20-minute periods of the paper's mix.
func shortSchedule() workload.Schedule {
	s := workload.PaperSchedule()
	s.PeriodSeconds = 1200
	s.Clients = s.Clients[:2]
	return s
}

// TestRigRunMatchesRunMixed pins the harness's single-backend drive to
// the program's own: stepping the public Rig pieces per control interval
// and tabulating the collector must reproduce RunMixed exactly, traced or
// not.
func TestRigRunMatchesRunMixed(t *testing.T) {
	sched := shortSchedule()
	res := experiment.RunMixed(experiment.MixedConfig{Mode: experiment.QueryScheduler, Sched: sched, Seed: 5})
	want := digest(&outcome{res: res})
	for _, traced := range []bool{false, true} {
		p := &probe{traced: traced, setupDone: func() {}, simDone: func() {}}
		o := runRig(5, sched, p)
		if len(o.problems) > 0 {
			t.Errorf("traced=%v: checks failed: %v", traced, o.problems)
		}
		o.digestExtra = nil // engine counters RunMixed does not report
		if got := digest(o); got != want {
			t.Errorf("traced=%v: digest %s, RunMixed %s", traced, got, want)
		}
		if traced && (p.solveCalls == 0 || p.predictCalls == 0 || p.releaseCalls == 0 || len(p.stepMS) == 0) {
			t.Errorf("seams not timed: %+v", p)
		}
	}
}

// TestSeedReachesEveryWorkload runs each workload at two seeds; the
// digests must differ. Each run is a full workload, so this takes about
// a minute.
func TestSeedReachesEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, w := range workloads {
		var digests []string
		for _, seed := range []uint64{1, 2} {
			o, err := w.run(seed, &probe{tmpDir: t.TempDir(), setupDone: func() {}, simDone: func() {}})
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			if len(o.problems) > 0 {
				t.Errorf("%s seed %d: checks failed: %v", w.name, seed, o.problems)
			}
			digests = append(digests, digest(o))
		}
		if digests[0] == digests[1] {
			t.Errorf("%s: seeds 1 and 2 give the same digest %s", w.name, digests[0])
		}
	}
}

// TestTracedCPUSharesSumToOne checks the reduction keeps the per-layer
// CPU shares a partition when the traced processes disagree: per-layer
// medians of these three would sum to 1.5.
func TestTracedCPUSharesSumToOne(t *testing.T) {
	run := func(shares ...float64) *runOut {
		r := &runOut{WallS: 1, Layers: map[string]float64{}}
		for i, v := range shares {
			r.Layers[layers[i]+".cpu_frac"] = v
		}
		return r
	}
	procs := []*runOut{run(0.5, 0.5, 0), run(0.5, 0, 0.5), run(0, 0.5, 0.5)}
	m := tracedMetrics(procs, procs)
	sum := 0.0
	for _, l := range layers {
		sum += m[l+".cpu_frac"].Value
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("reduced CPU shares sum to %v", sum)
	}
}
