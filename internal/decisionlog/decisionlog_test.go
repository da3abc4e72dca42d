package decisionlog

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/simclock"
	"repro/internal/solver"
	"repro/internal/trace"
)

func simTime(t float64) simclock.Time { return simclock.Time(t) }

func testMeta() Meta {
	return Meta{
		Experiment:      "unit",
		Seed:            7,
		ControlInterval: 60,
		SLOWindow:       10,
		SLOBudget:       0.1,
		Classes: []ClassMeta{
			{ID: 1, Name: "Class1", Kind: "OLAP", Metric: "velocity", Target: 0.4, Importance: 1},
			{ID: 3, Name: "Class3", Kind: "OLTP", Metric: "avg-response-time", Target: 0.25, Importance: 3},
		},
	}
}

// testRec builds a plausible non-held PlanRecord for tick at time t.
func testRec(t float64, vel, rt float64) core.PlanRecord {
	return core.PlanRecord{
		Time: simTime(t),
		Measurement: core.Measurement{
			Velocity:        map[engine.ClassID]float64{1: vel},
			VelocitySamples: map[engine.ClassID]int{1: 12},
			Idle:            map[engine.ClassID]bool{},
			OLTPRespTime:    rt,
			OLTPSamples:     40,
		},
		Limits:    solver.Plan{1: 20000, 3: 10000},
		Utility:   3.5,
		OLTPSlope: -5e-6,
		Predicted: map[engine.ClassID]float64{1: vel * 1.1, 3: rt * 0.9},
		Search: solver.Search{
			Iterations: 4, Candidates: 9, BestUtility: 3.5,
			RunnerUp: 3.2, HasRunnerUp: true,
			Classes: []solver.ClassSearch{
				{ID: 1, Alloc: 20000, Predicted: vel * 1.1, Ceiling: 0.8, GoalMet: true, Reachable: true},
				{ID: 3, Alloc: 10000, Predicted: rt * 0.9, Ceiling: 0.1, GoalMet: true, Reachable: true},
			},
		},
		Provenance: map[engine.ClassID]core.Provenance{
			1: {Model: "olap-velocity", Anchor: vel, AnchorLimit: 20000},
			3: {Model: "oltp-linear", Anchor: rt},
		},
		Attainment: map[engine.ClassID]float64{1: 1, 3: 0.5},
		BurnRate:   map[engine.ClassID]float64{1: 0, 3: 2},
	}
}

func mustLines(t *testing.T, buf *bytes.Buffer, want int) []string {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != want {
		t.Fatalf("got %d lines, want %d:\n%s", len(lines), want, buf.String())
	}
	return lines
}

func TestWriterBackfillsActual(t *testing.T) {
	var buf bytes.Buffer
	dw, err := NewWriter(&buf, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	dw.NoteBackend(0, testRec(60, 0.45, 0.2))
	dw.NoteBackend(0, testRec(120, 0.35, 0.3))
	dw.Flush()
	if dw.Err() != nil {
		t.Fatal(dw.Err())
	}
	mustLines(t, &buf, 3)

	var meta Meta
	var recs []Record
	err = ScanJSONL(bytes.NewReader(buf.Bytes()),
		func(m Meta) error { meta = m; return nil },
		func(r Record) error { recs = append(recs, r); return nil }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Version != Version || meta.Experiment != "unit" || len(meta.Classes) != 2 {
		t.Fatalf("meta round trip: %+v", meta)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records", len(recs))
	}
	// Tick 1 closed by tick 2's harvest: velocity 0.35 misses the 0.4
	// goal, RT 0.3 misses the 0.25 goal.
	r1 := recs[0]
	if r1.Tick != 1 || r1.T != 60 || len(r1.Actual) != 2 {
		t.Fatalf("record 1: %+v", r1)
	}
	if r1.Actual[0].Class != 1 || r1.Actual[0].Value != 0.35 || r1.Actual[0].GoalMet {
		t.Fatalf("record 1 OLAP outcome: %+v", r1.Actual[0])
	}
	if r1.Actual[1].Class != 3 || r1.Actual[1].Value != 0.3 || r1.Actual[1].GoalMet {
		t.Fatalf("record 1 OLTP outcome: %+v", r1.Actual[1])
	}
	wantErr := 0.45*1.1 - 0.35
	if d := r1.Actual[0].AbsError - wantErr; d > 1e-12 || d < -1e-12 {
		t.Fatalf("abs error %v, want %v", r1.Actual[0].AbsError, wantErr)
	}
	// Tick 2 flushed at end of run: window never closed.
	if recs[1].Tick != 2 || recs[1].Actual != nil {
		t.Fatalf("record 2: %+v", recs[1])
	}
	// PrevLimit chains from the prior tick's row.
	if recs[1].Classes[0].PrevLimit != 20000 || recs[0].Classes[0].PrevLimit != 0 {
		t.Fatalf("prev limits: %v then %v",
			recs[0].Classes[0].PrevLimit, recs[1].Classes[0].PrevLimit)
	}
}

func TestWriterHeldAndDroppedTicks(t *testing.T) {
	var buf bytes.Buffer
	dw, err := NewWriter(&buf, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	dw.NoteBackend(0, testRec(60, 0.45, 0.2))
	held := core.PlanRecord{
		Time:        simTime(120),
		Measurement: core.Measurement{Dropped: true},
		Limits:      solver.Plan{1: 20000, 3: 10000},
		Held:        true,
	}
	dw.NoteBackend(0, held)
	dw.NoteBackend(0, testRec(180, 0.5, 0.21))
	dw.Flush()

	var recs []Record
	if err := ScanJSONL(bytes.NewReader(buf.Bytes()), nil,
		func(r Record) error { recs = append(recs, r); return nil }, nil); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records", len(recs))
	}
	// The dropped harvest observes nothing: tick 1's window never closes.
	if recs[0].Actual != nil {
		t.Fatalf("tick 1 gained outcomes from a dropped harvest: %+v", recs[0].Actual)
	}
	if !recs[1].Held || !recs[1].Dropped {
		t.Fatalf("tick 2 flags: %+v", recs[1])
	}
	// A held tick's rows carry no prediction but keep the limits.
	if recs[1].Classes[0].Predicted != 0 || recs[1].Classes[0].Limit != 20000 {
		t.Fatalf("tick 2 row: %+v", recs[1].Classes[0])
	}
	// Tick 2's window is closed by tick 3's good harvest, with zero
	// AbsError (no prediction existed).
	if len(recs[1].Actual) != 2 || recs[1].Actual[0].AbsError != 0 || !recs[1].Actual[0].GoalMet {
		t.Fatalf("tick 2 outcomes: %+v", recs[1].Actual)
	}
}

func TestWriterIdleClassYieldsNoOutcome(t *testing.T) {
	var buf bytes.Buffer
	dw, err := NewWriter(&buf, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	dw.NoteBackend(0, testRec(60, 0.45, 0.2))
	next := testRec(120, 0, 0.2)
	next.Measurement.Idle[1] = true
	next.Measurement.OLTPSamples = 0
	dw.NoteBackend(0, next)
	dw.Flush()

	var recs []Record
	if err := ScanJSONL(bytes.NewReader(buf.Bytes()), nil,
		func(r Record) error { recs = append(recs, r); return nil }, nil); err != nil {
		t.Fatal(err)
	}
	if recs[0].Actual != nil {
		t.Fatalf("idle/unsampled harvest produced outcomes: %+v", recs[0].Actual)
	}
}

// TestCheckpointResumeByteIdentical pins the resume contract: rewind
// the file to SinkBytes, restore the pending record, continue — the bytes
// must match an uninterrupted run exactly.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	recs := []core.PlanRecord{
		testRec(60, 0.45, 0.2),
		testRec(120, 0.35, 0.3),
		testRec(180, 0.5, 0.21),
		testRec(240, 0.42, 0.24),
	}

	var full bytes.Buffer
	fw, err := NewWriter(&full, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		fw.NoteBackend(0, r)
	}
	fw.Flush()

	path := filepath.Join(t.TempDir(), "decisions.jsonl")
	crash, err := trace.OpenSink(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	cw, err := NewWriter(crash, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	cw.NoteBackend(0, recs[0])
	cw.NoteBackend(0, recs[1])
	st := cw.CheckpointState()
	if len(st.Streams) != 1 || st.Streams[0].Pending == nil || st.Streams[0].Tick != 2 {
		t.Fatalf("checkpoint state: %+v", st)
	}
	// Simulate the crash: a record written after the checkpoint, then the
	// recovery rewind back to the checkpointed offset.
	cw.NoteBackend(0, recs[2])
	if err := crash.Close(); err != nil {
		t.Fatal(err)
	}
	resumed, err := trace.Rewind(path, st.SinkBytes)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := NewWriter(resumed, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	rw.RestoreCheckpoint(st)
	rw.NoteBackend(0, recs[2])
	rw.NoteBackend(0, recs[3])
	rw.Flush()
	if err := resumed.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full.Bytes(), got) {
		t.Fatalf("resumed log differs from uninterrupted run:\nfull:\n%s\nresumed:\n%s",
			full.String(), got)
	}
	if rw.Stream().CheckpointState() != fw.Stream().CheckpointState() {
		t.Fatalf("sink bytes %d vs %d", rw.Stream().CheckpointState(), fw.Stream().CheckpointState())
	}
}

func TestScanJSONLErrors(t *testing.T) {
	if err := ScanJSONL(strings.NewReader(""), nil, nil, nil); err == nil {
		t.Fatal("empty log accepted")
	}
	if err := ScanJSONL(strings.NewReader(`{"type":"decision"}`+"\n"), nil, nil, nil); err == nil {
		t.Fatal("record-first log accepted")
	}
	bad := `{"type":"meta","version":99,"classes":[{"id":1}]}` + "\n"
	if err := ScanJSONL(strings.NewReader(bad), nil, nil, nil); err == nil {
		t.Fatal("future version accepted")
	}
}

func TestNewWriterValidates(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, Meta{}); err == nil {
		t.Fatal("empty roster accepted")
	}
	m := testMeta()
	m.Classes = append(m.Classes, m.Classes[0])
	if _, err := NewWriter(&buf, m); err == nil {
		t.Fatal("duplicate class accepted")
	}
}
