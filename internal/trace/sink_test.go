package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
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

// The trace write path allocates nothing once warm: Emit batches into a
// reused buffer, Flush encodes each line into reused scratch, and the
// stream hands it to the writer in one Write.
func TestEmitThroughStreamDoesNotAllocate(t *testing.T) {
	tr := New(64)
	if err := tr.StreamJSONL(io.Discard, Meta{Experiment: "allocs"}); err != nil {
		t.Fatal(err)
	}
	submit := Event{Time: 1, Kind: QuerySubmit, Class: 1, Query: 7, Client: 3, Value: 125.5, Detail: "q1"}
	done := Event{Time: 2, Kind: QueryDone, Class: 1, Query: 7, Client: 3, Value: 125.5, RespTime: 1.25, ExecTime: 0.75}
	emit := func() {
		tr.Emit(submit)
		tr.Emit(done)
		// The route hook's annotation, interned per backend.
		tr.Emit(Event{Time: 1, Kind: QueryRouted, Class: 1, Query: 7, Client: 3, Value: 2, Detail: tr.detailBackend(2)})
	}
	for i := 0; i < 2*traceBatchSize; i++ {
		emit()
	}
	if n := testing.AllocsPerRun(4*traceBatchSize, emit); n != 0 {
		t.Fatalf("Emit allocates %v times per submit, done and route event", n)
	}
	if err := tr.SinkErr(); err != nil {
		t.Fatal(err)
	}
}

// Rewind cuts a file back to a checkpointed offset and appends from
// there; a file shorter than the offset, or a gzip file, is refused and
// left as it is.
func TestRewind(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	if err := os.WriteFile(path, []byte("{\"a\":1}\n{\"b\":2}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Rewind(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStream(s, "ignored: the file holds its meta line")
	if err != nil {
		t.Fatal(err)
	}
	if got := st.CheckpointState(); got != 8 {
		t.Fatalf("resumed stream at offset %d, want 8", got)
	}
	st.WriteLine([]byte("{\"c\":3}\n"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "{\"a\":1}\n{\"c\":3}\n" {
		t.Fatalf("rewound file = %q", got)
	}

	_, err = Rewind(path, 100)
	if err == nil {
		t.Fatal("rewind past the end of the file succeeded")
	}
	for _, want := range []string{path, "100", "16 bytes"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	if got, _ := os.ReadFile(path); string(got) != "{\"a\":1}\n{\"c\":3}\n" {
		t.Fatalf("refused rewind modified the file: %q", got)
	}

	// A gzip export's offsets count uncompressed bytes: cutting the file
	// there would leave a torn gzip prefix followed by plain lines.
	gz := filepath.Join(t.TempDir(), "run.jsonl.gz")
	sk, err := OpenSink(gz, 0)
	if err != nil {
		t.Fatal(err)
	}
	sk.Write([]byte("{\"a\":1}\n{\"b\":2}\n"))
	if err := sk.Close(); err != nil {
		t.Fatal(err)
	}
	before, _ := os.ReadFile(gz)
	if _, err := Rewind(gz, 8); err == nil || !strings.Contains(err.Error(), "gzip") {
		t.Fatalf("rewind of a gzip file = %v, want a gzip error", err)
	}
	if after, _ := os.ReadFile(gz); !bytes.Equal(after, before) {
		t.Fatal("refused rewind modified the gzip file")
	}
}

// failAfter accepts n writes, then fails every later one.
type failAfter struct {
	n      int
	writes [][]byte
}

func (f *failAfter) Write(p []byte) (int, error) {
	if len(f.writes) == f.n {
		return 0, fmt.Errorf("disk full")
	}
	f.writes = append(f.writes, append([]byte(nil), p...))
	return len(p), nil
}

// A stream makes one Write per line and latches its first error —
// a write or an encode failure — dropping every later line.
func TestStreamLatchesFirstError(t *testing.T) {
	w := &failAfter{n: 2}
	s, err := NewStream(w, map[string]string{"type": "meta"})
	if err != nil {
		t.Fatal(err)
	}
	s.WriteLine([]byte("{\"a\":1}\n"))
	if s.Err() != nil || len(w.writes) != 2 || s.CheckpointState() != int64(len(w.writes[0])+len(w.writes[1])) {
		t.Fatalf("err=%v writes=%q offset=%d", s.Err(), w.writes, s.CheckpointState())
	}
	s.WriteLine([]byte("{\"b\":2}\n"))
	first := s.Err()
	if first == nil || !strings.Contains(first.Error(), "disk full") {
		t.Fatalf("write error not latched: %v", first)
	}
	w.n = 10
	s.WriteLine([]byte("{\"c\":3}\n"))
	if len(w.writes) != 2 || s.Err() != first {
		t.Fatalf("line written after the error: writes=%q err=%v", w.writes, s.Err())
	}

	s, err = NewStream(io.Discard, map[string]string{"type": "meta"})
	if err != nil {
		t.Fatal(err)
	}
	s.WriteJSON(json.Marshal(math.NaN()))
	if s.Err() == nil {
		t.Fatal("encode error not latched")
	}
}
