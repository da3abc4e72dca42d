// The read side shared by every consumer of a run's artifacts: one input
// opener that sniffs gzip, one JSONL line scanner, and one grammar for
// the query specs of qtrace -explain and qreport -why/-window.
package trace

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// Scanner buffer sizes: a line starts in a 64 KiB buffer and may grow to
// 4 MiB, which bounds a pathological line without buffering whole files.
const (
	scanInitBuf = 64 << 10
	scanMaxBuf  = 4 << 20
)

// isGzip reports whether b starts with the gzip magic bytes.
func isGzip(b []byte) bool { return len(b) >= 2 && b[0] == 0x1f && b[1] == 0x8b }

// OpenInput returns a reader over r's content, gunzipped when r starts
// with the gzip magic bytes, so a .gz export (see OpenSink) reads like a
// plain one.
func OpenInput(r io.Reader) (io.Reader, error) {
	br := bufio.NewReader(r)
	if magic, err := br.Peek(2); err == nil && isGzip(magic) {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("gzip: %w", err)
		}
		return zr, nil
	}
	return br, nil
}

// Line is one non-blank line of a JSONL export, as ScanLines passes it
// on; it is valid only during the callback.
type Line struct {
	Type   string // the line's "type" field
	raw    []byte
	no     int // 1-based line number
	format string
}

// Decode unmarshals the line into v; an error names the line.
func (l *Line) Decode(v any) error {
	if err := json.Unmarshal(l.raw, v); err != nil {
		return l.Errorf("%w", err)
	}
	return nil
}

// Errorf returns an error prefixed with the format name and line number.
func (l *Line) Errorf(format string, args ...any) error {
	return fmt.Errorf("%s: line %d: "+format, append([]any{l.format, l.no}, args...)...)
}

// ScanLines streams a JSONL export — the trace or the decision log,
// named by format in errors — through OpenInput, in constant memory. It
// skips blank lines, reads each line's "type", requires the first line
// to be the only "meta" line, and passes every line to fn in file order.
// Malformed input yields a line-numbered error, never a panic; an error
// from fn aborts the scan and is returned as it is.
func ScanLines(r io.Reader, format string, fn func(*Line) error) error {
	in, err := OpenInput(r)
	if err != nil {
		return fmt.Errorf("%s: %w", format, err)
	}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, scanInitBuf), scanMaxBuf)
	l := Line{format: format}
	sawMeta := false
	for sc.Scan() {
		l.no++
		l.raw = bytes.TrimSpace(sc.Bytes())
		if len(l.raw) == 0 {
			continue
		}
		var probe struct {
			Type string `json:"type"`
		}
		if err := l.Decode(&probe); err != nil {
			return err
		}
		l.Type = probe.Type
		switch {
		case !sawMeta && l.Type != "meta":
			return l.Errorf("%q line before the meta line", l.Type)
		case sawMeta && l.Type == "meta":
			return l.Errorf("duplicate meta line")
		}
		sawMeta = true
		if err := fn(&l); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("%s: read: %w", format, err)
	}
	if !sawMeta {
		return fmt.Errorf("%s: no meta line", format)
	}
	return nil
}

// SpecError marks a malformed or out-of-range query spec (qtrace
// -explain, qreport -why and -window), so the CLIs can tell a usage
// mistake (exit 2) from an unreadable input (exit 1).
type SpecError struct{ Err error }

func (e *SpecError) Error() string { return e.Err.Error() }
func (e *SpecError) Unwrap() error { return e.Err }

// ParseSpec splits a query spec such as "class=B period=3-5" into its
// key=value fields. keys lists the accepted keys; a later field
// overrides an earlier one with the same key.
func ParseSpec(spec string, keys ...string) (map[string]string, error) {
	out := make(map[string]string)
	for _, field := range strings.Fields(spec) {
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("%q is not key=value", field)
		}
		if !slices.Contains(keys, key) {
			return nil, fmt.Errorf("unknown key %q (want %s=)", key, strings.Join(keys, "=, "))
		}
		out[key] = val
	}
	return out, nil
}

// ResolveClass maps a class spec to an index into a roster of n classes,
// where class(i) returns the i-th class's ID and name. The spec is a
// numeric ID, a letter (A = the roster's first class, B the second, ...)
// or a name, matched without regard to case.
func ResolveClass(val string, n int, class func(i int) (id int, name string)) (int, error) {
	if id, err := strconv.Atoi(val); err == nil {
		for i := 0; i < n; i++ {
			if cid, _ := class(i); cid == id {
				return i, nil
			}
		}
		return 0, fmt.Errorf("no class with ID %d", id)
	}
	if len(val) == 1 && val[0] >= 'A' && val[0] <= 'Z' {
		if i := int(val[0] - 'A'); i < n {
			return i, nil
		}
		return 0, fmt.Errorf("class %q but the roster has only %d classes", val, n)
	}
	for i := 0; i < n; i++ {
		if _, name := class(i); strings.EqualFold(name, val) {
			return i, nil
		}
	}
	return 0, fmt.Errorf("unknown class %q", val)
}

// ParseRange parses an inclusive 1-based range: "N", or "N-M" with
// 1 <= N <= M.
func ParseRange(s string) (lo, hi int, err error) {
	a, b, ranged := strings.Cut(s, "-")
	lo, err = strconv.Atoi(a)
	hi = lo
	if err == nil && ranged {
		hi, err = strconv.Atoi(b)
	}
	if err != nil || lo < 1 || hi < lo {
		return 0, 0, fmt.Errorf("bad range %q (want N or N-M, 1 <= N <= M)", s)
	}
	return lo, hi, nil
}
