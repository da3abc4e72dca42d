// Byte-identity goldens for the hot-path overhaul: the files under
// testdata/golden were captured from the pre-optimization seed code, so
// any allocation work (query freelists, dense per-class slices, batched
// trace dispatch, the streaming client generator) that perturbs a table,
// the metrics exposition, or a single JSONL trace byte fails here. Each
// artifact is additionally produced under the parallel runner, extending
// the guarantee to -parallel 8 sweeps.
//
// Regenerate with: go test ./internal/experiment -run Golden -update-golden
// (only legitimate when an intentional output-format change lands).
package experiment

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/decisionlog"
	"repro/internal/engine"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden files from this build's output")

// goldenCompare checks got against the named golden file, reporting the
// first diverging byte with context.
func goldenCompare(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden %s unreadable (regenerate with -update-golden): %v", name, err)
	}
	if bytes.Equal(got, want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	window := func(b []byte) []byte {
		lo, hi := i-60, i+60
		if lo < 0 {
			lo = 0
		}
		if hi > len(b) {
			hi = len(b)
		}
		return b[lo:hi]
	}
	t.Errorf("%s deviates from the seed output at byte %d (got %d bytes, want %d)\n got: %q\nwant: %q",
		name, i, len(got), len(want), window(got), window(want))
}

// goldenTraceDigest pins a multi-megabyte JSONL trace without committing
// it: total length, SHA-256 of the whole stream, and the first 64 KiB
// verbatim (so head divergences still show in context). Equality of the
// digest is byte-identity of the trace.
func goldenTraceDigest(trace []byte) []byte {
	d := newTraceDigest()
	d.Write(trace)
	return d.Bytes()
}

// traceDigest computes goldenTraceDigest as the trace streams through
// it, so a run's trace is pinned without holding it in memory.
type traceDigest struct {
	n    int
	sum  hash.Hash
	head []byte
}

func newTraceDigest() *traceDigest { return &traceDigest{sum: sha256.New()} }

func (d *traceDigest) Write(p []byte) (int, error) {
	d.n += len(p)
	d.sum.Write(p)
	if room := 64*1024 - len(d.head); room > 0 {
		d.head = append(d.head, p[:min(room, len(p))]...)
	}
	return len(p), nil
}

// Bytes renders the digest of everything written so far.
func (d *traceDigest) Bytes() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "bytes=%d sha256=%x\n", d.n, d.sum.Sum(nil))
	b.Write(d.head)
	return b.Bytes()
}

// mixedGoldenArtifacts runs one mixed experiment with trace and metrics
// capture and renders the period tables. Query-scheduler runs also
// export the control plane's decision log (other modes have no control
// ticks to record).
func mixedGoldenArtifacts(t *testing.T, cfg MixedConfig) (trace, metrics, tables, decisions []byte) {
	t.Helper()
	var tb, mb, db bytes.Buffer
	cfg.Trace = &tb
	cfg.Metrics = &mb
	if cfg.Mode == QueryScheduler {
		cfg.Decisions = &db
	}
	res := RunMixed(cfg)
	if res.ExportErr != nil {
		t.Fatal(res.ExportErr)
	}
	return tb.Bytes(), mb.Bytes(), []byte(mixedTables(res)), db.Bytes()
}

// qreportRender runs the qreport views (summary, timeline, one -why
// query) over a decision log, so the operator-facing rendering is pinned
// alongside the log bytes themselves.
func qreportRender(t *testing.T, decisions []byte) []byte {
	t.Helper()
	var qb bytes.Buffer
	if err := decisionlog.Summarize(&qb, bytes.NewReader(decisions)); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(&qb)
	if err := decisionlog.Timeline(&qb, bytes.NewReader(decisions), decisionlog.TickRange{}); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(&qb)
	if err := decisionlog.Why(&qb, bytes.NewReader(decisions), "class=A", decisionlog.TickRange{}); err != nil {
		t.Fatal(err)
	}
	return qb.Bytes()
}

// TestGoldenMixedQuick pins the full observability surface of a mixed run
// — JSONL trace, metrics exposition, period tables — for the controller
// modes with distinct hot paths, against seed-path captures.
func TestGoldenMixedQuick(t *testing.T) {
	for _, mode := range []Mode{NoControl, QueryScheduler} {
		cfg := MixedConfig{Mode: mode, Sched: shortSchedule(), Seed: 1, Experiment: "golden"}
		trace, metrics, tables, decisions := mixedGoldenArtifacts(t, cfg)
		prefix := strings.ReplaceAll(mode.String(), "-", "_")
		goldenCompare(t, prefix+"_trace.digest", goldenTraceDigest(trace))
		goldenCompare(t, prefix+"_metrics.txt", metrics)
		goldenCompare(t, prefix+"_tables.txt", tables)
		if mode == QueryScheduler {
			goldenCompare(t, prefix+"_decisions.jsonl", decisions)
			goldenCompare(t, prefix+"_qreport.txt", qreportRender(t, decisions))
		}
	}
}

// TestGoldenMixedQuickParallel reruns the golden mixed runs on the
// 8-worker pool: per-run isolation must hold for the optimized path too.
func TestGoldenMixedQuickParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel golden sweep is slow under -race")
	}
	modes := []Mode{NoControl, QueryScheduler}
	type artifacts struct{ trace, metrics, tables, decisions []byte }
	outs := Map(8, modes, func(mode Mode, _ int) artifacts {
		var tb, mb, db bytes.Buffer
		cfg := MixedConfig{Mode: mode, Sched: shortSchedule(), Seed: 1,
			Experiment: "golden", Trace: &tb, Metrics: &mb}
		if mode == QueryScheduler {
			cfg.Decisions = &db
		}
		res := RunMixed(cfg)
		if res.ExportErr != nil {
			t.Error(res.ExportErr)
		}
		return artifacts{tb.Bytes(), mb.Bytes(), []byte(mixedTables(res)), db.Bytes()}
	})
	for i, mode := range modes {
		prefix := strings.ReplaceAll(mode.String(), "-", "_")
		goldenCompare(t, prefix+"_trace.digest", goldenTraceDigest(outs[i].trace))
		goldenCompare(t, prefix+"_metrics.txt", outs[i].metrics)
		goldenCompare(t, prefix+"_tables.txt", outs[i].tables)
		if mode == QueryScheduler {
			goldenCompare(t, prefix+"_decisions.jsonl", outs[i].decisions)
		}
	}
}

// fleetGoldenConfig is the quick E15 failover arm (backend 2 crashes at
// t=450 s and never recovers) with class abort faults on both OLAP
// classes and the mitigation stack on: routing, failover re-dispatch,
// aborts, timeouts and retries all run on every backend of one fleet.
func fleetGoldenConfig() MixedConfig {
	plan := FailoverPlan(1, true)
	plan.AbortRate = map[engine.ClassID]float64{1: 0.1, 2: 0.1}
	cfg := FailoverMixedConfig(FailoverConfig{Seed: 1, Quick: true}, &plan, false)
	qc := MitigatedQSConfig()
	qc.SystemCostLimit = cfg.QS.SystemCostLimit
	cfg.QS = &qc
	rp := DefaultRetryPolicy()
	cfg.Retry = &rp
	cfg.Experiment = "golden-fleet"
	return cfg
}

// TestGoldenFleetFailoverQuick pins the fleet path's observability
// surface — JSONL trace, decision log, metrics exposition, period and
// routing tables — the way TestGoldenMixedQuick pins a single backend.
func TestGoldenFleetFailoverQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet failover run is slow under -race")
	}
	cfg := fleetGoldenConfig()
	trace := newTraceDigest()
	var mb, db bytes.Buffer
	cfg.Trace, cfg.Metrics, cfg.Decisions = trace, &mb, &db
	res := RunFleet(cfg)
	if res.ExportErr != nil {
		t.Fatal(res.ExportErr)
	}
	if res.Faults.Total() == 0 || res.PatStats.Retried == 0 {
		t.Fatalf("fleet golden run injected %d faults and retried %d queries; want both", res.Faults.Total(), res.PatStats.Retried)
	}
	var tables strings.Builder
	tables.WriteString(mixedTables(res.MixedResult))
	WriteRouting(&tables, res)
	goldenCompare(t, "fleet_failover_trace.digest", trace.Bytes())
	goldenCompare(t, "fleet_failover_metrics.txt", mb.Bytes())
	goldenCompare(t, "fleet_failover_tables.txt", []byte(tables.String()))
	goldenCompare(t, "fleet_failover_decisions.jsonl", db.Bytes())
}

// TestGoldenFig2Quick pins a scaled-down Figure 2 sweep, serially and on
// the worker pool.
func TestGoldenFig2Quick(t *testing.T) {
	cfg := Fig2Config{
		Pairs:  [][2]int{{10, 2}, {20, 4}},
		Limits: []float64{5000, 15000, 25000},
		Window: 600,
		Seed:   2,
	}
	cfg.Parallel = 1
	serial := RunFig2(cfg)
	var table bytes.Buffer
	WriteFig2(&table, serial)
	goldenCompare(t, "fig2_quick.csv", []byte(Fig2CSV(serial)))
	goldenCompare(t, "fig2_quick_table.txt", table.Bytes())

	cfg.Parallel = 8
	if got := Fig2CSV(RunFig2(cfg)); got != Fig2CSV(serial) {
		t.Error("fig2 quick sweep diverges between -parallel 1 and -parallel 8")
	}
}

// TestGoldenFaultMatrixQuick pins the CI-sized fault matrix — the run
// shape with aborts, retries, misestimation, and degraded control ticks —
// serially and on the worker pool.
func TestGoldenFaultMatrixQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("fault matrix is slow under -race")
	}
	cfg := QuickFaultMatrixConfig()
	cfg.Parallel = 1
	serial := RunFaultMatrix(cfg)
	var table bytes.Buffer
	WriteFaultMatrix(&table, serial)
	goldenCompare(t, "faultmatrix_quick.csv", []byte(FaultMatrixCSV(serial)))
	goldenCompare(t, "faultmatrix_quick_table.txt", table.Bytes())

	cfg.Parallel = 8
	if got := FaultMatrixCSV(RunFaultMatrix(cfg)); got != FaultMatrixCSV(serial) {
		t.Error("fault matrix diverges between -parallel 1 and -parallel 8")
	}
}

// TestGoldenStreamingPoolMatchesEager is the streaming-generator identity
// property: a pool that materializes clients lazily from recorded
// generator cursors must reproduce the eager pool's runs byte for byte.
// (The golden files above pin the eager path; transitivity extends the
// guarantee to the seed output.)
func TestGoldenStreamingPoolMatchesEager(t *testing.T) {
	for _, mode := range []Mode{NoControl, QueryScheduler} {
		cfg := MixedConfig{Mode: mode, Sched: shortSchedule(), Seed: 1, Experiment: "golden"}
		eagerTrace, eagerMetrics, eagerTables, eagerDecisions := mixedGoldenArtifacts(t, cfg)
		cfg.StreamingClients = true
		lazyTrace, lazyMetrics, lazyTables, lazyDecisions := mixedGoldenArtifacts(t, cfg)
		if !bytes.Equal(eagerTrace, lazyTrace) {
			t.Errorf("%v: streaming pool perturbs the JSONL trace", mode)
		}
		if !bytes.Equal(eagerMetrics, lazyMetrics) {
			t.Errorf("%v: streaming pool perturbs the metrics exposition", mode)
		}
		if !bytes.Equal(eagerTables, lazyTables) {
			t.Errorf("%v: streaming pool perturbs the period tables", mode)
		}
		if !bytes.Equal(eagerDecisions, lazyDecisions) {
			t.Errorf("%v: streaming pool perturbs the decision log", mode)
		}
	}
}

// refOutputsWithDecisions mirrors refOutputs with the decision log also
// streamed (buffered) to its own file, returning its final bytes too.
func refOutputsWithDecisions(t *testing.T, cfg MixedConfig, tracePath, decPath string) (tables string, metrics, trace, decisions []byte) {
	t.Helper()
	df, err := os.Create(decPath)
	if err != nil {
		t.Fatal(err)
	}
	dw := bufio.NewWriterSize(df, 1<<20)
	cfg.Decisions = dw
	tables, metrics, trace = refOutputs(t, cfg, tracePath)
	if err := dw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := df.Close(); err != nil {
		t.Fatal(err)
	}
	decisions, err = os.ReadFile(decPath)
	if err != nil {
		t.Fatal(err)
	}
	return tables, metrics, trace, decisions
}

// TestGoldenResumeSurvivesPooling proves checkpoint/restore still works
// over pooled queries, generator cursors, and the decision log: checkpoint
// at every control boundary, resume from each, and demand byte-identity
// with the uninterrupted reference (which itself is pinned transitively
// through the checkpoint-neutrality test against the golden mixed runs).
func TestGoldenResumeSurvivesPooling(t *testing.T) {
	if testing.Short() {
		t.Skip("every-boundary resume sweep is slow under -race")
	}
	dir := t.TempDir()
	cfg := ckptTestConfig(filepath.Join(dir, "ckpt"), 1)
	cfg.StreamingClients = true
	resumeEveryBoundary(t, dir, cfg)
}
