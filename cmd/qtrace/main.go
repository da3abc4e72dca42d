// Command qtrace inspects JSONL traces exported by qsim/qsweep -trace.
//
// Usage:
//
//	qtrace trace.jsonl                             # header + event counts
//	qtrace -explain "class=B period=3" trace.jsonl # explain one cell
//
// The -explain spec names one class/period cell of the period tables:
// classes by numeric ID, letter (A = first class in the trace header), or
// name; periods 1-based as the tables print them. The explanation breaks
// the cell's response time into admission wait vs execution, draws the
// held-queue depth over the period, lists plan changes, and draws a
// per-query lifetime Gantt. The trace may be gzipped (a .gz export). All
// analysis lives in internal/trace.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/trace"
)

func main() {
	explain := flag.String("explain", "", `explain one cell, e.g. "class=B period=3"`)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: qtrace [-explain \"class=X period=K\"] trace.jsonl")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// Both views stream the trace, plain or gzipped — memory stays
	// bounded by the answer (the summary tallies, or one class's queries
	// in flight and the window's completions), not the trace size.
	br := bufio.NewReaderSize(f, 1<<20)
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	if *explain == "" {
		err := trace.SummarizeJSONL(out, br)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	ex, err := trace.ExplainJSONL(br, *explain)
	f.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		var spec *trace.SpecError
		if errors.As(err, &spec) {
			os.Exit(2)
		}
		os.Exit(1)
	}
	ex.Render(out)
}
