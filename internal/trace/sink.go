// Export files and the resumable JSONL stream written into them.
//
// A Sink is an export file: optional gzip compression (selected by a .gz
// path suffix) and optional size-based rotation. A Stream writes whole
// lines only, so rotation always lands on a line boundary; each rotated
// segment re-starts with the run's meta line, keeping every segment
// independently parseable by ScanJSONL/qtrace.
//
// A Stream is one JSONL output — the trace or the decision log — with
// the bookkeeping a checkpointed run needs to resume it: the byte offset
// written so far, the first write error, and the rule that the meta
// line comes first. Rewind reopens a file at a checkpointed offset.
package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// Stream is one resumable JSONL output. It makes exactly one Write per
// line on its writer, counts the bytes written (the offset a checkpoint
// records and a resumed run rewinds the file to), and latches the first
// error: later lines are dropped and the error is reported by Err once,
// after the run. Not safe for concurrent use.
type Stream struct {
	w     io.Writer
	bytes int64
	//lint:ignore ckptcover latched export error; a resumed run reopens the file and starts clean
	err error
}

// NewStream starts a stream on w whose first line is meta, encoded as
// JSON. A Sink reopened by Rewind already holds the stream's first
// bytes, meta line included, so a stream over it writes nothing now and
// continues after them.
func NewStream(w io.Writer, meta any) (*Stream, error) {
	if w == nil {
		return nil, fmt.Errorf("trace: nil stream writer")
	}
	s := &Stream{w: w}
	if sk, ok := w.(*Sink); ok && sk.written > 0 {
		s.bytes = sk.written
		return s, nil
	}
	s.WriteJSON(json.Marshal(meta))
	if s.err != nil {
		return nil, fmt.Errorf("trace: write meta: %w", s.err)
	}
	return s, nil
}

// WriteLine appends one complete line, newline included. Tracer.Emit
// reaches it, so it is on qlint's allocation-free hot path.
func (s *Stream) WriteLine(line []byte) {
	if s.err != nil {
		return
	}
	n, err := s.w.Write(line)
	s.bytes += int64(n)
	if err != nil {
		s.err = err
	}
}

// WriteJSON appends one JSON value as a line, taking json.Marshal's
// results as they are: s.WriteJSON(json.Marshal(v)). Marshalling in the
// caller keeps the encoding cost in the caller's profile frames.
func (s *Stream) WriteJSON(line []byte, err error) {
	if err != nil && s.err == nil {
		s.err = fmt.Errorf("trace: encode JSON line: %w", err)
	}
	s.WriteLine(append(line, '\n'))
}

// Err returns the first error the stream hit, or nil.
func (s *Stream) Err() error { return s.err }

// Flush pushes the bytes the writer buffers — a *bufio.Writer or a Sink
// — to the OS, so a process killed afterwards still leaves them in the
// file. Writers without a Flush() error method are left as they are.
func (s *Stream) Flush() error {
	if f, ok := s.w.(interface{ Flush() error }); ok {
		return f.Flush()
	}
	return nil
}

// CheckpointState returns the stream's byte offset.
func (s *Stream) CheckpointState() int64 { return s.bytes }

// RestoreCheckpoint sets the byte offset of a stream resumed over a file
// rewound to it (see Rewind).
func (s *Stream) RestoreCheckpoint(offset int64) { s.bytes = offset }

// Rewind reopens the plain (unrotated, uncompressed) file at path,
// truncates it to offset — the bytes a checkpoint's stream had written —
// and returns a sink appending from there. A file shorter than offset
// lost bytes the checkpoint counts, and a gzip file's offsets count
// uncompressed bytes; Rewind fails on either, naming the path and the
// offset, and leaves the file unmodified.
func Rewind(path string, offset int64) (*Sink, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("trace: rewind: %w", err)
	}
	var magic [2]byte
	n, _ := f.ReadAt(magic[:], 0) // a shorter file is not gzip; its size is checked next
	info, err := f.Stat()
	switch {
	case err != nil:
	case isGzip(magic[:n]):
		err = fmt.Errorf("the file is gzip-compressed")
	case info.Size() < offset:
		err = fmt.Errorf("the file holds only %d bytes", info.Size())
	}
	if err == nil {
		err = f.Truncate(offset)
	}
	if err == nil {
		_, err = f.Seek(offset, io.SeekStart)
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("trace: rewind %s to byte %d: %w", path, offset, err)
	}
	return &Sink{path: path, f: f, bw: bufio.NewWriterSize(f, sinkBufSize), written: offset}, nil
}

// sinkBufSize is a sink's write buffer: the trace writes one small line
// per event, so buffering is what keeps exporting a 24-hour run cheap.
const sinkBufSize = 1 << 16

// Sink is an export file. It implements io.Writer and must be closed
// after the run to flush buffers (and the gzip trailer).
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

// Name returns the sink's path.
func (s *Sink) Name() string { return s.path }

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
	s.bw = bufio.NewWriterSize(w, sinkBufSize)
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

// Flush writes the buffered bytes through to the file (for a gzipped
// sink, into the compressor: its output is complete only after Close).
func (s *Sink) Flush() error {
	if s.closed {
		return fmt.Errorf("trace: flush of closed sink")
	}
	return s.bw.Flush()
}

// Close flushes and closes the sink. Safe to call once.
func (s *Sink) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	return s.closeCurrent()
}
