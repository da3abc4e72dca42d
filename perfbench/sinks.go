package main

import (
	"bytes"
	"time"
)

// sink stands in for an output file: it drops what it is given but
// counts bytes, writes and lines, and tallies one JSON string field per
// line, so a run pays the program's encoding cost and none of the disk's.
type sink struct {
	bytes, writes, lines int64
	endsInNewline        bool
	// field is the tallied key, such as `"kind":"`; values[i] is counted
	// in counts[i] when a line's first field value equals it.
	field   []byte
	values  []string
	counts  []int64
	partial []byte // an unfinished last line, completed by the next write
	// firstWrite, when set, runs once before the first write is counted.
	firstWrite func()
	// keep, when non-nil, also receives the bytes (for small sinks the
	// benchmark parses afterwards).
	keep *bytes.Buffer
}

// newSink returns a sink tallying the given values of a JSON string
// field; with no field it only counts.
func newSink(field string, values ...string) *sink {
	return &sink{field: []byte(`"` + field + `":"`), values: values, counts: make([]int64, len(values))}
}

// Write implements io.Writer.
func (s *sink) Write(p []byte) (int, error) {
	if s.firstWrite != nil {
		s.firstWrite()
		s.firstWrite = nil
	}
	n := len(p)
	if n == 0 {
		return 0, nil
	}
	s.bytes += int64(n)
	s.writes++
	s.endsInNewline = p[len(p)-1] == '\n'
	if s.keep != nil {
		s.keep.Write(p)
	}
	for len(p) > 0 {
		i := bytes.IndexByte(p, '\n')
		if i < 0 {
			s.partial = append(s.partial, p...)
			break
		}
		s.lines++
		if len(s.partial) > 0 {
			s.tally(append(s.partial, p[:i]...))
			s.partial = s.partial[:0]
		} else {
			s.tally(p[:i])
		}
		p = p[i+1:]
	}
	return n, nil
}

func (s *sink) tally(line []byte) {
	if len(s.values) == 0 {
		return
	}
	i := bytes.Index(line, s.field)
	if i < 0 {
		return
	}
	v := line[i+len(s.field):]
	if j := bytes.IndexByte(v, '"'); j >= 0 {
		v = v[:j]
	}
	for k, want := range s.values {
		if string(v) == want {
			s.counts[k]++
			return
		}
	}
}

// count returns how many lines carried the i-th tallied value.
func (s *sink) count(i int) int64 { return s.counts[i] }

// stopwatch times a stretch of host wall time.
type stopwatch struct{ start time.Time }

func startWatch() stopwatch {
	return stopwatch{start: time.Now()} //lint:ignore wallclock the benchmark measures host time around the simulation, not inside it
}

// seconds returns the host seconds since the stopwatch started.
func (w stopwatch) seconds() float64 {
	return time.Since(w.start).Seconds() //lint:ignore wallclock the benchmark measures host time around the simulation, not inside it
}
