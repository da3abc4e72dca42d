package trace

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/rng"
	"repro/internal/simclock"
)

// marshalEventLine is the seed path: encoding/json over the on-disk
// struct, one line per event. appendEventLine must match it byte for
// byte — the JSONL format is pinned by golden traces, so the scratch
// encoder is only correct if it is indistinguishable from this.
func marshalEventLine(t *testing.T, e Event) []byte {
	t.Helper()
	line, err := json.Marshal(jsonEvent{
		Type:   "event",
		Seq:    e.Seq,
		T:      float64(e.Time),
		Kind:   e.Kind.String(),
		Class:  int(e.Class),
		Query:  uint64(e.Query),
		Client: int(e.Client),
		Period: e.Period,
		Plan:   e.Plan,
		Value:  e.Value,
		Detail: e.Detail,
	})
	if err != nil {
		t.Fatalf("json.Marshal: %v", err)
	}
	return append(line, '\n')
}

func checkEventLine(t *testing.T, e Event) {
	t.Helper()
	got := appendEventLine(nil, &e)
	want := marshalEventLine(t, e)
	if string(got) != string(want) {
		t.Errorf("event %+v:\n got %q\nwant %q", e, got, want)
	}
}

// TestEventLineMatchesEncodingJSON drives the hand-rolled encoder over
// adversarial values: float formatting edge cases around encoding/json's
// 'f'/'e' switchover, every escape class in strings (quotes, control
// bytes, HTML characters, invalid UTF-8, U+2028/U+2029), and a large
// pseudo-random sweep.
func TestEventLineMatchesEncodingJSON(t *testing.T) {
	floats := []float64{
		0, 1, -1, 0.5, -0.25, 1e-6, 9.999999e-7, 1e-7, -1e-7, 1e21,
		9.99999999e20, -1e21, 1e-300, 1e300, 123456.789, 0.1, 1.0 / 3.0,
		600, 86400, 2.5e-9, 7.733e-10, math.MaxFloat64, math.SmallestNonzeroFloat64,
	}
	details := []string{
		"", "Q1.5", "rt=0.123s exec=0.045s", "limits: 1=1.2e+04 2=500",
		`quote " backslash \ done`, "tab\tnewline\ncarriage\r",
		"ctrl\x01\x1f", "html <b> & </b>", "utf8 ünïcode ✓",
		"bad utf8 \xff\xfe", "line sep \u2028 and \u2029",
		strings.Repeat("long ", 100) + "<end>",
	}
	for _, f := range floats {
		checkEventLine(t, Event{Seq: 1, Time: simclock.Time(f), Kind: QueryDone, Value: -f})
	}
	for _, d := range details {
		checkEventLine(t, Event{Seq: 2, Time: 1.25, Kind: QuerySubmit, Detail: d})
	}
	src := rng.New(42)
	runes := []rune("ab\"\\<>&\n\r\t\x01é✓\u2028\u2029\ufffd")
	for i := 0; i < 2000; i++ {
		var sb strings.Builder
		for n := src.Intn(12); n > 0; n-- {
			sb.WriteRune(runes[src.Intn(len(runes))])
		}
		// Mix magnitudes so both float formats and the exponent-trim
		// path are exercised.
		v := src.Range(-1, 1) * math.Pow(10, float64(src.Intn(50)-25))
		e := Event{
			Seq:    src.Uint64(),
			Time:   simclock.Time(src.Range(0, 1e9)),
			Kind:   Kind(src.Intn(int(QueryRetried) + 1)),
			Class:  engine.ClassID(src.Intn(7) - 2),
			Query:  engine.QueryID(src.Uint64()),
			Client: engine.ClientID(src.Intn(1 << 20)),
			Period: src.Intn(20),
			Plan:   src.Intn(100),
			Value:  v,
			Detail: sb.String(),
		}
		checkEventLine(t, e)
	}
}

// TestDoneDetailMatchesSprintf pins the done annotation rendered at
// encode time to the fmt verb it replaced, on zero, negative zero,
// sub-millisecond, rounding-boundary, huge and random values: the
// encoded line and Event.String of a timed done event equal those of
// the same event carrying the Sprintf text as its Detail.
func TestDoneDetailMatchesSprintf(t *testing.T) {
	vals := []float64{
		0, math.Copysign(0, -1), 1e-9, 1e-4, 4.999e-4, 5e-4, 0.0015, 0.0025,
		0.9995, 1, 2.5, 123.4565, 86400.0005, 1e6, 3.7e9, 1e21, 1e300, -0.0004, -7.25,
	}
	src := rng.New(9)
	for i := 0; i < 4000; i++ {
		vals = append(vals, src.Range(0, 1)*math.Pow(10, float64(src.Intn(16)-7)))
	}
	for i, rt := range vals {
		exec := vals[(7*i+3)%len(vals)]
		want := fmt.Sprintf("rt=%.3fs exec=%.3fs", rt, exec)
		if got := string(appendDoneDetail(nil, rt, exec)); got != want {
			t.Fatalf("done annotation of (%v, %v) = %q, want %q", rt, exec, got, want)
		}
		timed := Event{Seq: 3, Time: 10, Kind: QueryDone, Class: 2, Query: 5, Value: 40, RespTime: rt, ExecTime: exec}
		if !timed.timedDone() {
			continue // both zero: an unset pair renders no annotation
		}
		hand := timed
		hand.RespTime, hand.ExecTime, hand.Detail = 0, 0, want
		if got, want := appendEventLine(nil, &timed), marshalEventLine(t, hand); string(got) != string(want) {
			t.Fatalf("timed done line\n got %q\nwant %q", got, want)
		}
		if timed.String() != hand.String() {
			t.Fatalf("timed done String %q, want %q", timed.String(), hand.String())
		}
	}
	// A done event that carries a Detail keeps rendering it.
	e := Event{Kind: QueryDone, RespTime: 1, ExecTime: 1, Detail: "beta"}
	if got := string(appendEventLine(nil, &e)); !strings.Contains(got, `"detail":"beta"`) || !strings.HasSuffix(e.String(), " beta") {
		t.Fatalf("done event with a Detail rendered %q / %q", got, e.String())
	}
}
