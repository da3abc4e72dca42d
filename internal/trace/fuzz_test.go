package trace

import (
	"bytes"
	"compress/gzip"
	"testing"
)

// FuzzScanJSONL asserts the trace parser's contract on arbitrary input:
// an error or a meta line followed by events, never a panic. Corrupt
// gzip streams are covered too (ScanJSONL sniffs the magic bytes).
func FuzzScanJSONL(f *testing.F) {
	meta := `{"type":"meta","v":1,"experiment":"fuzz","seed":1,"period_seconds":60,"periods":2,"classes":[{"id":1,"name":"olap","kind":"OLAP","goal":"velocity >= 0.4","target":0.4}]}`
	event := `{"type":"event","seq":1,"t":0.5,"kind":"submit","class":1,"query":1,"client":2,"period":0,"plan":0,"value":100}`
	f.Add([]byte(meta + "\n"))
	f.Add([]byte(meta + "\n" + event + "\n"))
	f.Add([]byte(event + "\n"))                                 // event before meta
	f.Add([]byte(meta + "\n" + meta + "\n"))                    // duplicate meta
	f.Add([]byte(`{"type":"mystery"}` + "\n"))                  // unknown line type
	f.Add([]byte(`{"type":"event","kind":"nonsense"}` + "\n"))  // unknown event kind
	f.Add([]byte("{\"type\":\"meta\""))                         // truncated JSON
	f.Add([]byte("\x1f\x8b\x08\x00garbage-after-gzip-magic\n")) // torn gzip stream
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte(meta + "\n" + event + "\n"))
	zw.Close()
	f.Add(gz.Bytes()) // valid compressed trace

	f.Fuzz(func(t *testing.T, data []byte) {
		sawMeta := false
		err := ScanJSONL(bytes.NewReader(data),
			func(Meta) error { sawMeta = true; return nil },
			func(Event) error {
				if !sawMeta {
					t.Fatal("event delivered before the meta line")
				}
				return nil
			})
		if err == nil && !sawMeta {
			t.Fatal("no meta line with nil error")
		}
	})
}
