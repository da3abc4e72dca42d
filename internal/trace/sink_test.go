package trace

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/engine"
)

// emitN streams a meta line and n submit events through a sink.
func emitN(t *testing.T, s *Sink, n int) {
	t.Helper()
	tr := New(16)
	if err := tr.StreamJSONL(s, Meta{Experiment: "sink-test", Periods: 1, PeriodSeconds: 60}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		tr.Emit(Event{
			Time:  float64(i),
			Kind:  QuerySubmit,
			Class: 1,
			Query: engine.QueryID(i + 1),
			Value: 100,
		})
	}
	if err := tr.SinkErr(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestGzipSinkRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl.gz")
	s, err := OpenSink(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Gzipped() || s.Rotating() {
		t.Fatalf("gzipped=%v rotating=%v", s.Gzipped(), s.Rotating())
	}
	emitN(t, s, 25)

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// ScanJSONL must sniff the gzip magic and decompress transparently.
	m, events, err := scanAll(f)
	if err != nil {
		t.Fatal(err)
	}
	if m.Experiment != "sink-test" || len(events) != 25 {
		t.Fatalf("meta=%q events=%d", m.Experiment, len(events))
	}
}

func TestRotatingSinkSegmentsAreIndependentlyParseable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	// ~120-byte lines against a 1 KiB threshold forces several rotations.
	s, err := OpenSink(path, 1024)
	if err != nil {
		t.Fatal(err)
	}
	emitN(t, s, 60)
	if s.Rotations() == 0 {
		t.Fatal("sink never rotated")
	}

	// Every segment — rotated and current — must start with the meta line
	// and parse on its own; together they carry all 60 events exactly once.
	total := 0
	for i := 0; i <= s.Rotations(); i++ {
		seg := path
		if i < s.Rotations() {
			seg = fmt.Sprintf("%s.%d", path, i+1)
		}
		f, err := os.Open(seg)
		if err != nil {
			t.Fatal(err)
		}
		m, events, err := scanAll(f)
		f.Close()
		if err != nil {
			t.Fatalf("segment %s: %v", seg, err)
		}
		if m.Experiment != "sink-test" {
			t.Fatalf("segment %s missing replayed meta", seg)
		}
		total += len(events)
	}
	if total != 60 {
		t.Fatalf("segments carry %d events, want 60", total)
	}
}

func TestSinkCloseIdempotentAndWriteAfterCloseFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	s, err := OpenSink(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	emitN(t, s, 1)
	if err := s.Close(); err != nil {
		t.Fatal("second Close not idempotent:", err)
	}
	if _, err := s.Write([]byte("{}\n")); err == nil {
		t.Fatal("write to closed sink succeeded")
	}
}

func TestOpenSinkRejectsNegativeRotation(t *testing.T) {
	if _, err := OpenSink(filepath.Join(t.TempDir(), "x.jsonl"), -1); err == nil {
		t.Fatal("negative rotation threshold accepted")
	}
}
