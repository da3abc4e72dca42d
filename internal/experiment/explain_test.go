package experiment

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
	"repro/internal/trace"
)

// qtrace -explain and the period tables count the same logical queries:
// for every class and period of a faulted E13 run with retries, the
// explanation's completions and pending backlog equal the collector's
// Completed and Pending cells. Retried attempts continue their query,
// and aborts nobody retried end it, in both.
func TestExplainAgreesWithPeriodTables(t *testing.T) {
	if testing.Short() {
		t.Skip("explains every cell of a 125 MB trace")
	}
	f, err := os.Open(filepath.Join("..", "..", "examples", "faults", "rough-day.json"))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.ParseSpec(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	cfg := InfeasibleMixedConfig()
	cfg.Faults = &plan
	qc := MitigatedQSConfig()
	cfg.QS = &qc
	rp := DefaultRetryPolicy()
	cfg.Retry = &rp
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	res, err := runToFile(cfg, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, cl := range res.Classes {
		for p := range res.Completed[i] {
			i, p, id := i, p, cl.ID
			t.Run(fmt.Sprintf("class%d/period%d", id, p+1), func(t *testing.T) {
				t.Parallel()
				f, err := os.Open(path)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				ex, err := trace.ExplainJSONL(f, fmt.Sprintf("class=%d period=%d", id, p+1))
				if err != nil {
					t.Fatal(err)
				}
				if len(ex.Completed) != res.Completed[i][p] || ex.PendingAtEnd != res.Pending[i][p] {
					t.Errorf("explain: %d completed, %d pending; period table: %d, %d",
						len(ex.Completed), ex.PendingAtEnd, res.Completed[i][p], res.Pending[i][p])
				}
			})
		}
	}
}
