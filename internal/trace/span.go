// Lifecycle spans and lossless JSONL export. The ring buffer in trace.go
// bounds memory for interactive use; the JSONL sink streams every event to
// a file so cmd/qtrace can reconstruct full query lifecycles after the
// run. The format is line-oriented JSON with a "type" discriminator: one
// meta line first, then one line per event, in emission order. Field
// order is fixed by the struct definitions and floats use Go's shortest
// round-trip encoding, so identical runs export byte-identical files.
package trace

import (
	"fmt"
	"io"
	"math"
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
	if e.timedDone() {
		// Digits, dots, signs and letters only: nothing to escape.
		buf = append(buf, `,"detail":"`...)
		buf = appendDoneDetail(buf, e.RespTime, e.ExecTime)
		buf = append(buf, '"')
	} else if e.Detail != "" {
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
	for k := QuerySubmit; k <= lastKind; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown event kind %q", s)
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

// ScanJSONL streams a trace exported by StreamJSONL, plain or gzipped,
// without retaining it: the meta line goes to onMeta, then every event to
// onEvent in file order; a nil callback skips its line type. ScanLines
// enforces the line rules; unknown line types and event kinds are
// rejected, since the format is versioned, not open-ended. A callback
// error aborts the scan and is returned as it is.
func ScanJSONL(r io.Reader, onMeta func(Meta) error, onEvent func(Event) error) error {
	return ScanLines(r, "trace", func(l *Line) error {
		switch l.Type {
		case "meta":
			var jm jsonMeta
			if err := l.Decode(&jm); err != nil || onMeta == nil {
				return err
			}
			return onMeta(jm.Meta)
		case "event":
			var je jsonEvent
			if err := l.Decode(&je); err != nil || onEvent == nil {
				return err
			}
			kind, err := kindFromString(je.Kind)
			if err != nil {
				return l.Errorf("%w", err)
			}
			return onEvent(Event{
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
		}
		return l.Errorf("unknown type %q", l.Type)
	})
}

// noTime marks a lifecycle edge a span never reached.
const noTime = simclock.Time(-1)

// Span is one logical query's lifecycle: its first submit, and the edges
// its current attempt passed. A retried query keeps its span; the
// resubmission (a new query ID) becomes the current attempt. Edges the
// attempt never reached are -1.
type Span struct {
	Query  engine.QueryID // the current attempt's ID
	Class  engine.ClassID
	Client engine.ClientID
	Cost   float64 // the current attempt's cost
	// Attempts counts the query's submissions: 1, plus one per retry.
	Attempts int

	FirstSubmit simclock.Time
	Submit      simclock.Time
	Intercept   simclock.Time
	Start       simclock.Time
	// Done is the completion time, or the abort time of a failed query.
	Done simclock.Time
	// Failed marks a query ended by an abort with no retry after it.
	Failed bool
}

// Started reports whether the current attempt began executing.
func (s *Span) Started() bool { return s.Start >= 0 }

// Completed reports whether the query finished inside the trace.
func (s *Span) Completed() bool { return s.Done >= 0 && !s.Failed }

// AdmissionWait is an ended query's time from its current attempt's
// submit until execution start — the dispatcher's hold time (0 for
// unintercepted queries, which start immediately), or until it ended if
// it never started.
func (s *Span) AdmissionWait() float64 {
	if s.Started() {
		return float64(s.Start - s.Submit)
	}
	return float64(s.Done - s.Submit)
}

// ExecTime is an ended query's execution time (0 if it never started).
func (s *Span) ExecTime() float64 {
	if !s.Started() {
		return 0
	}
	return float64(s.Done - s.Start)
}

// Lifecycles folds a trace's events, in file order, into one Span per
// logical query, keyed by query ID, holding only the queries in flight.
// A retry event marks the aborted attempt for resubmission: the client's
// next submit continues the same span (a client waits for its query to
// resolve before it submits again). An abort with no retry after it ends
// the query as failed. Non-query events are ignored.
type Lifecycles struct {
	open    map[engine.QueryID]*Span
	retried map[engine.ClientID]*Span // awaiting the client's resubmission
	aborted *Span                     // ended unless the next event retries it
	end     func(*Span)
}

// NewLifecycles returns an empty fold; end is called once per query, when
// it completes or fails.
func NewLifecycles(end func(*Span)) *Lifecycles {
	return &Lifecycles{
		open:    make(map[engine.QueryID]*Span),
		retried: make(map[engine.ClientID]*Span),
		end:     end,
	}
}

// Add folds one event and returns the span it touched, or nil.
func (l *Lifecycles) Add(e Event) *Span {
	if a := l.aborted; a != nil {
		l.aborted = nil
		if e.Kind == QueryRetried && e.Query == a.Query {
			a.Failed = false
			l.retried[a.Client] = a
			return a
		}
		l.end(a)
	}
	if e.Kind == QuerySubmit {
		s := l.retried[e.Client]
		if s != nil {
			delete(l.retried, e.Client)
		} else {
			s = &Span{Class: e.Class, Client: e.Client, FirstSubmit: e.Time}
		}
		s.Attempts++
		s.Query, s.Cost, s.Submit = e.Query, e.Value, e.Time
		s.Intercept, s.Start, s.Done = noTime, noTime, noTime
		l.open[e.Query] = s
		return s
	}
	s := l.open[e.Query]
	if s == nil {
		return nil
	}
	switch e.Kind {
	case QueryIntercepted:
		s.Intercept = e.Time
	case QueryReleased:
		// No edge is kept; the span is still returned to the caller.
	case QueryStart:
		s.Start = e.Time
	case QueryDone, QueryAborted:
		s.Done = e.Time
		delete(l.open, e.Query)
		if e.Kind == QueryDone {
			l.end(s)
		} else {
			s.Failed = true
			l.aborted = s
		}
	default:
		return nil
	}
	return s
}

// Close ends a trailing abort; call it once after the last event.
func (l *Lifecycles) Close() {
	if a := l.aborted; a != nil {
		l.aborted = nil
		l.end(a)
	}
}
