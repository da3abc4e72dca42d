// Streaming decision-log reader: trace.ScanLines does the line work, so
// a decision log reads exactly like a trace — plain or gzipped, one
// callback per line type, constant memory — and cmd/qreport can join the
// two streams without buffering either.
package decisionlog

import (
	"fmt"
	"io"

	"repro/internal/trace"
)

// ScanJSONL streams a decision log: onMeta is invoked with the meta line
// (after its version is checked), then onRecord per decision line and
// onFleet per fleet line, in file order. A nil callback skips its line
// type. A callback returning an error aborts the scan with that error.
func ScanJSONL(r io.Reader, onMeta func(Meta) error, onRecord func(Record) error, onFleet func(FleetRecord) error) error {
	return trace.ScanLines(r, "decisionlog", func(l *trace.Line) error {
		switch l.Type {
		case "meta":
			return decode(l, func(m Meta) error {
				if m.Version != Version {
					return fmt.Errorf("decisionlog: version %d log, reader supports %d", m.Version, Version)
				}
				if onMeta == nil {
					return nil
				}
				return onMeta(m)
			})
		case "decision":
			return decode(l, onRecord)
		case "fleet":
			return decode(l, onFleet)
		}
		return l.Errorf("unknown type %q", l.Type)
	})
}

// decode unmarshals one line into a T and passes it to fn; a nil fn
// skips the line undecoded.
func decode[T any](l *trace.Line, fn func(T) error) error {
	if fn == nil {
		return nil
	}
	var v T
	if err := l.Decode(&v); err != nil {
		return err
	}
	return fn(v)
}
