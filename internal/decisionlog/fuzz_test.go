package decisionlog

import (
	"bytes"
	"compress/gzip"
	"os"
	"testing"
)

// FuzzScanDecisionLog asserts the decision-log reader's contract on
// arbitrary input: an error, or a meta line followed by records, never a
// panic. It is seeded with the head of a real E13 log (qsim -exp
// infeasible -decisions), a gzipped copy, and truncations of both.
func FuzzScanDecisionLog(f *testing.F) {
	head, err := os.ReadFile("testdata/e13-head.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(head)
	zw.Close()
	f.Add(head)
	f.Add(gz.Bytes())
	f.Add(head[:len(head)/2])
	f.Add(gz.Bytes()[:gz.Len()/2])
	meta, _, _ := bytes.Cut(head, []byte("\n"))
	f.Add(append(append([]byte{}, meta...), `
{"type":"fleet","t":90,"event":"failover","backend":2,"moved":3}
`...))
	f.Add(append(append([]byte{}, meta...), "\n"+string(meta)+"\n"...)) // duplicate meta

	f.Fuzz(func(t *testing.T, data []byte) {
		sawMeta := false
		after := func() error {
			if !sawMeta {
				t.Fatal("record delivered before the meta line")
			}
			return nil
		}
		err := ScanJSONL(bytes.NewReader(data),
			func(Meta) error { sawMeta = true; return nil },
			func(Record) error { return after() },
			func(FleetRecord) error { return after() })
		if err == nil && !sawMeta {
			t.Fatal("no meta line with nil error")
		}
	})
}
