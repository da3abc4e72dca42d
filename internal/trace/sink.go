// File sinks for the JSONL export: optional gzip compression (selected
// by a .gz path suffix) and optional size-based rotation. The tracer
// writes whole lines only, so rotation always lands on a line boundary;
// each rotated segment re-starts with the run's meta line, keeping every
// segment independently parseable by ScanJSONL/qtrace.
package trace

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"strings"
)

// Sink is a JSONL file sink. It implements io.Writer for the tracer and
// must be closed after the run to flush buffers (and the gzip trailer).
type Sink struct {
	path        string
	gzipped     bool
	rotateBytes int64

	f  *os.File
	gz *gzip.Writer
	bw *bufio.Writer

	written   int64 // bytes written to the current segment (uncompressed)
	rotations int
	meta      []byte // first line written; replayed at each rotation
	closed    bool
}

// OpenSink creates (truncating) a JSONL sink at path. A path ending in
// ".gz" writes gzip; rotateBytes > 0 rotates the file once a segment
// exceeds that many (uncompressed) bytes: the current file moves to
// path.1, path.2, ... and a fresh segment opens at path.
func OpenSink(path string, rotateBytes int64) (*Sink, error) {
	if rotateBytes < 0 {
		return nil, fmt.Errorf("trace: negative rotation threshold %d", rotateBytes)
	}
	s := &Sink{path: path, gzipped: strings.HasSuffix(path, ".gz"), rotateBytes: rotateBytes}
	if err := s.open(); err != nil {
		return nil, err
	}
	return s, nil
}

// Rotating reports whether the sink rotates segments.
func (s *Sink) Rotating() bool { return s.rotateBytes > 0 }

// Gzipped reports whether the sink compresses its output.
func (s *Sink) Gzipped() bool { return s.gzipped }

// Rotations returns how many times the sink has rotated.
func (s *Sink) Rotations() int { return s.rotations }

func (s *Sink) open() error {
	f, err := os.Create(s.path)
	if err != nil {
		return fmt.Errorf("trace: open sink: %w", err)
	}
	s.f = f
	var w io.Writer = f
	if s.gzipped {
		s.gz = gzip.NewWriter(f)
		w = s.gz
	}
	s.bw = bufio.NewWriterSize(w, 1<<16)
	s.written = 0
	return nil
}

// Write appends one (complete) JSONL line, rotating first when the
// segment is full. The first line ever written is remembered as the meta
// line and replayed at the head of every rotated segment.
func (s *Sink) Write(p []byte) (int, error) {
	if s.closed {
		return 0, fmt.Errorf("trace: write to closed sink")
	}
	if s.meta == nil {
		s.meta = append([]byte(nil), p...)
	} else if s.rotateBytes > 0 && s.written > 0 && s.written+int64(len(p)) > s.rotateBytes {
		if err := s.rotate(); err != nil {
			return 0, err
		}
	}
	n, err := s.bw.Write(p)
	s.written += int64(n)
	return n, err
}

// rotate closes the current segment, shifts it to the next numbered
// suffix, and opens a fresh segment seeded with the meta line.
func (s *Sink) rotate() error {
	if err := s.closeCurrent(); err != nil {
		return err
	}
	s.rotations++
	if err := os.Rename(s.path, fmt.Sprintf("%s.%d", s.path, s.rotations)); err != nil {
		return fmt.Errorf("trace: rotate sink: %w", err)
	}
	if err := s.open(); err != nil {
		return err
	}
	if len(s.meta) > 0 {
		n, err := s.bw.Write(s.meta)
		s.written += int64(n)
		if err != nil {
			return err
		}
	}
	return nil
}

func (s *Sink) closeCurrent() error {
	var first error
	if err := s.bw.Flush(); err != nil {
		first = err
	}
	if s.gz != nil {
		if err := s.gz.Close(); err != nil && first == nil {
			first = err
		}
		s.gz = nil
	}
	if err := s.f.Close(); err != nil && first == nil {
		first = err
	}
	s.f = nil
	return first
}

// Close flushes and closes the sink. Safe to call once.
func (s *Sink) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	return s.closeCurrent()
}
