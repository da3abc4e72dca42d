// Lifecycle spans and lossless JSONL export. The ring buffer in trace.go
// bounds memory for interactive use; the JSONL sink streams every event to
// a file so cmd/qtrace can reconstruct full query lifecycles after the
// run. The format is line-oriented JSON with a "type" discriminator: one
// meta line first, then one line per event, in emission order. Field
// order is fixed by the struct definitions and floats use Go's shortest
// round-trip encoding, so identical runs export byte-identical files.
package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"unicode/utf8"

	"repro/internal/engine"
	"repro/internal/simclock"
)

// FormatVersion identifies the JSONL trace format.
const FormatVersion = 1

// ClassMeta describes one service class in the trace header.
type ClassMeta struct {
	ID   int    `json:"id"`
	Name string `json:"name"`
	Kind string `json:"kind"`
	Goal string `json:"goal"`
	// Target is the numeric goal value (velocity floor or RT ceiling).
	Target float64 `json:"target"`
}

// BackendMeta describes one fleet backend in the trace header.
type BackendMeta struct {
	ID   int     `json:"id"` // 1-based, matches route events' Value
	Name string  `json:"name"`
	CPU  float64 `json:"cpu"`
	IO   float64 `json:"io"`
}

// Meta is the trace header: enough run context for qtrace to interpret
// event times as schedule periods and class IDs as named classes.
type Meta struct {
	Version       int         `json:"v"`
	Experiment    string      `json:"experiment"`
	Seed          int64       `json:"seed"`
	PeriodSeconds float64     `json:"period_seconds"`
	Periods       int         `json:"periods"`
	Classes       []ClassMeta `json:"classes"`
	// Backends is the fleet roster; empty (and omitted from the header
	// line) for single-backend runs, so legacy traces are byte-identical.
	Backends []BackendMeta `json:"backends,omitempty"`
}

// jsonMeta is the on-disk meta line.
type jsonMeta struct {
	Type string `json:"type"`
	Meta
}

// jsonEvent is the on-disk event line.
type jsonEvent struct {
	Type   string  `json:"type"`
	Seq    uint64  `json:"seq"`
	T      float64 `json:"t"`
	Kind   string  `json:"kind"`
	Class  int     `json:"class"`
	Query  uint64  `json:"query"`
	Client int     `json:"client"`
	Period int     `json:"period"`
	Plan   int     `json:"plan"`
	Value  float64 `json:"value"`
	Detail string  `json:"detail,omitempty"`
}

// StreamJSONL attaches a lossless JSONL export: every subsequently
// emitted event is appended as one line, regardless of ring eviction.
// The meta line goes first, unless w is a Sink reopened by Rewind, which
// already holds it (see NewStream). Only one export may be attached. The
// caller owns w (and any buffering/closing); write errors after this
// call are latched and reported by SinkErr.
func (t *Tracer) StreamJSONL(w io.Writer, meta Meta) error {
	if t.stream != nil {
		return fmt.Errorf("trace: JSONL sink already attached")
	}
	meta.Version = FormatVersion
	s, err := NewStream(w, jsonMeta{Type: "meta", Meta: meta})
	if err != nil {
		return err
	}
	t.stream = s
	return nil
}

// Stream returns the tracer's JSONL export, or nil when none is attached.
func (t *Tracer) Stream() *Stream { return t.stream }

// SinkErr returns the first error the JSONL export hit, or nil. Emit
// never fails loudly on the hot path; callers check this once after the
// run (the check flushes any still-batched events).
func (t *Tracer) SinkErr() error {
	if t.stream == nil {
		return nil
	}
	t.Flush()
	return t.stream.err
}

// appendEventLine encodes one event line into buf — a hand-rolled
// encoder producing byte-for-byte what encoding/json produced for the
// equivalent jsonEvent (field order, HTML escaping, float formatting,
// detail omitted when empty), without the per-event reflection and
// allocations. TestEventLineMatchesEncodingJSON pins the equivalence.
func appendEventLine(buf []byte, e *Event) []byte {
	buf = append(buf, `{"type":"event","seq":`...)
	buf = strconv.AppendUint(buf, e.Seq, 10)
	buf = append(buf, `,"t":`...)
	buf = appendJSONFloat(buf, float64(e.Time))
	buf = append(buf, `,"kind":`...)
	buf = appendJSONString(buf, e.Kind.String())
	buf = append(buf, `,"class":`...)
	buf = strconv.AppendInt(buf, int64(e.Class), 10)
	buf = append(buf, `,"query":`...)
	buf = strconv.AppendUint(buf, uint64(e.Query), 10)
	buf = append(buf, `,"client":`...)
	buf = strconv.AppendInt(buf, int64(e.Client), 10)
	buf = append(buf, `,"period":`...)
	buf = strconv.AppendInt(buf, int64(e.Period), 10)
	buf = append(buf, `,"plan":`...)
	buf = strconv.AppendInt(buf, int64(e.Plan), 10)
	buf = append(buf, `,"value":`...)
	buf = appendJSONFloat(buf, e.Value)
	if e.Detail != "" {
		buf = append(buf, `,"detail":`...)
		buf = appendJSONString(buf, e.Detail)
	}
	buf = append(buf, '}', '\n')
	return buf
}

// appendJSONFloat mirrors encoding/json's float64 encoder: shortest
// round-trip 'f' form, switching to 'e' form outside [1e-6, 1e21) with
// the exponent's leading zero trimmed. Event times and values are always
// finite; a non-finite value here is a bug, and json.Marshal would have
// refused it too.
func appendJSONFloat(buf []byte, f float64) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		panic(fmt.Sprintf("trace: non-finite float %v in event", f))
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	buf = strconv.AppendFloat(buf, f, format, -1, 64)
	if format == 'e' {
		if n := len(buf); n >= 4 && buf[n-4] == 'e' && buf[n-3] == '-' && buf[n-2] == '0' {
			buf[n-2] = buf[n-1]
			buf = buf[:n-1]
		}
	}
	return buf
}

const jsonHex = "0123456789abcdef"

// appendJSONString mirrors encoding/json's string encoder with HTML
// escaping on (the package default): quotes, backslashes and control
// bytes escaped; '<', '>', '&' written as </>/&; invalid
// UTF-8 replaced with the � escape; U+2028/U+2029 escaped.
func appendJSONString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			buf = append(buf, s[start:i]...)
			switch c {
			case '\\', '"':
				buf = append(buf, '\\', c)
			case '\n':
				buf = append(buf, '\\', 'n')
			case '\r':
				buf = append(buf, '\\', 'r')
			case '\t':
				buf = append(buf, '\\', 't')
			default:
				buf = append(buf, '\\', 'u', '0', '0', jsonHex[c>>4], jsonHex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			buf = append(buf, s[start:i]...)
			buf = append(buf, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			buf = append(buf, s[start:i]...)
			buf = append(buf, `\u202`...)
			buf = append(buf, jsonHex[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	buf = append(buf, s[start:]...)
	buf = append(buf, '"')
	return buf
}

// kindFromString inverts Kind.String for trace file parsing.
func kindFromString(s string) (Kind, error) {
	for k := QuerySubmit; k <= QueryRerouted; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("trace: unknown event kind %q", s)
}

// ClassByID returns the class metadata for id, or nil.
func (m Meta) ClassByID(id int) *ClassMeta {
	for i := range m.Classes {
		if m.Classes[i].ID == id {
			return &m.Classes[i]
		}
	}
	return nil
}

// ScanJSONL streams a trace exported by StreamJSONL without retaining
// it: the meta line (which must come first) is passed to onMeta, then
// every event is passed to onEvent in file order. Gzip-compressed
// exports (written through a .jsonl.gz sink) are detected by their magic
// bytes and decompressed transparently. Unknown line types are rejected
// (the format is versioned, not open-ended), and corrupt or truncated
// input yields an error, never a panic. Memory stays constant no matter
// how large the trace is. A callback error aborts the scan and is
// returned verbatim.
func ScanJSONL(r io.Reader, onMeta func(Meta) error, onEvent func(Event) error) error {
	br := bufio.NewReader(r)
	if magic, err := br.Peek(2); err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return fmt.Errorf("trace: gzip: %w", err)
		}
		defer zr.Close()
		return scanJSONL(zr, onMeta, onEvent)
	}
	return scanJSONL(br, onMeta, onEvent)
}

func scanJSONL(r io.Reader, onMeta func(Meta) error, onEvent func(Event) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	sawMeta := false
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var disc struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &disc); err != nil {
			return fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		switch disc.Type {
		case "meta":
			if sawMeta {
				return fmt.Errorf("trace: line %d: duplicate meta", lineNo)
			}
			var jm jsonMeta
			if err := json.Unmarshal(line, &jm); err != nil {
				return fmt.Errorf("trace: line %d: %w", lineNo, err)
			}
			sawMeta = true
			if err := onMeta(jm.Meta); err != nil {
				return err
			}
		case "event":
			if !sawMeta {
				return fmt.Errorf("trace: line %d: event before meta", lineNo)
			}
			var je jsonEvent
			if err := json.Unmarshal(line, &je); err != nil {
				return fmt.Errorf("trace: line %d: %w", lineNo, err)
			}
			kind, err := kindFromString(je.Kind)
			if err != nil {
				return fmt.Errorf("trace: line %d: %w", lineNo, err)
			}
			err = onEvent(Event{
				Seq:    je.Seq,
				Time:   simclock.Time(je.T),
				Kind:   kind,
				Class:  engine.ClassID(je.Class),
				Query:  engine.QueryID(je.Query),
				Client: engine.ClientID(je.Client),
				Period: je.Period,
				Plan:   je.Plan,
				Value:  je.Value,
				Detail: je.Detail,
			})
			if err != nil {
				return err
			}
		default:
			return fmt.Errorf("trace: line %d: unknown type %q", lineNo, disc.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("trace: read: %w", err)
	}
	if !sawMeta {
		return fmt.Errorf("trace: no meta line (not a trace export?)")
	}
	return nil
}

// noTime marks a lifecycle edge a span never reached.
const noTime = simclock.Time(-1)

// Span is one query's reconstructed lifecycle: the times of each edge it
// passed, with the class/cost identity and the plan version in force at
// the edges. Edges the query never reached are -1 (check with the
// predicates below).
type Span struct {
	Query    engine.QueryID
	Class    engine.ClassID
	Client   engine.ClientID
	Cost     float64
	Template string

	Submit    simclock.Time
	Intercept simclock.Time
	Release   simclock.Time
	Start     simclock.Time
	Done      simclock.Time

	SubmitPeriod int
	DonePeriod   int
	SubmitPlan   int
	DonePlan     int
}

// Managed reports whether the patroller intercepted the query.
func (s *Span) Managed() bool { return s.Intercept >= 0 }

// Started reports whether the query began executing.
func (s *Span) Started() bool { return s.Start >= 0 }

// Completed reports whether the query finished inside the trace.
func (s *Span) Completed() bool { return s.Done >= 0 }

// AdmissionWait is the time from submit until execution start — the
// dispatcher's hold time (0 for unintercepted queries, which start
// immediately). For a query still held at end-of-trace pass the trace
// horizon as now; for completed spans now is ignored.
func (s *Span) AdmissionWait(now simclock.Time) float64 {
	switch {
	case s.Started():
		return float64(s.Start - s.Submit)
	default:
		return float64(now - s.Submit)
	}
}

// ExecTime is the execution duration, or the elapsed running time against
// now for spans still executing at end-of-trace.
func (s *Span) ExecTime(now simclock.Time) float64 {
	if !s.Started() {
		return 0
	}
	if s.Completed() {
		return float64(s.Done - s.Start)
	}
	return float64(now - s.Start)
}

// BuildSpans folds lifecycle events into one span per query, ordered by
// query ID. Non-query events (plan changes, workload shifts) are skipped.
func BuildSpans(events []Event) []*Span {
	byID := make(map[engine.QueryID]*Span)
	var order []engine.QueryID
	get := func(e Event) *Span {
		s, ok := byID[e.Query]
		if !ok {
			s = &Span{Query: e.Query, Class: e.Class, Client: e.Client,
				Cost: e.Value, Submit: noTime, Intercept: noTime,
				Release: noTime, Start: noTime, Done: noTime}
			byID[e.Query] = s
			order = append(order, e.Query)
		}
		return s
	}
	for _, e := range events {
		switch e.Kind {
		case QuerySubmit:
			s := get(e)
			s.Submit = e.Time
			s.Template = e.Detail
			s.SubmitPeriod = e.Period
			s.SubmitPlan = e.Plan
		case QueryIntercepted:
			get(e).Intercept = e.Time
		case QueryReleased:
			get(e).Release = e.Time
		case QueryStart:
			get(e).Start = e.Time
		case QueryDone:
			s := get(e)
			s.Done = e.Time
			s.DonePeriod = e.Period
			s.DonePlan = e.Plan
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	out := make([]*Span, 0, len(order))
	for _, id := range order {
		out = append(out, byID[id])
	}
	return out
}
