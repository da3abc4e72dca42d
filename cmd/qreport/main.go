// Command qreport turns decision audit logs exported by qsim/qsweep
// -decisions into operator reports.
//
// Usage:
//
//	qreport decisions.jsonl                          # run summary + SLO attainment
//	qreport -timeline decisions.jsonl                # per-tick plan timeline
//	qreport -why "class=B tick=3-5" decisions.jsonl  # why lines for one class
//	qreport -attr -trace t.jsonl decisions.jsonl     # violation attribution
//	qreport -metrics m.txt decisions.jsonl           # + metrics cross-check
//
// Classes may be named by numeric ID, letter (A = first class in the log
// header), or name; ticks are 1-based. -window N-M restricts -timeline
// and -why to a tick range. Every input may be gzipped (a .gz export
// from qsim/qsweep). All analysis lives in internal/decisionlog and
// streams its inputs, so memory stays constant regardless of log or
// trace size.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/decisionlog"
	"repro/internal/trace"
)

func main() {
	timeline := flag.Bool("timeline", false, "print the per-tick plan timeline")
	why := flag.String("why", "", `explain one class's decisions, e.g. "class=B tick=3-5"`)
	attr := flag.Bool("attr", false, "attribute goal misses (requires -trace)")
	tracePath := flag.String("trace", "", "trace JSONL export for -attr")
	metricsPath := flag.String("metrics", "", "metrics exposition to cross-check against")
	window := flag.String("window", "", `tick window for -timeline/-why, e.g. "3-5"`)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: qreport [flags] decisions.jsonl")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if *attr && *tracePath == "" {
		fmt.Fprintln(os.Stderr, "qreport: -attr requires -trace trace.jsonl")
		os.Exit(2)
	}
	win, err := decisionlog.ParseTickRange(*window)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qreport:", err)
		os.Exit(2)
	}

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()

	switch {
	case *why != "":
		err = withFile(flag.Arg(0), func(r io.Reader) error {
			return decisionlog.Why(out, r, *why, win)
		})
	case *timeline:
		err = withFile(flag.Arg(0), func(r io.Reader) error {
			return decisionlog.Timeline(out, r, win)
		})
	case *attr:
		err = runAttr(out, flag.Arg(0), *tracePath)
	default:
		err = withFile(flag.Arg(0), func(r io.Reader) error {
			return decisionlog.Summarize(out, r)
		})
	}
	// Spec mistakes (bad class, tick window past the end of the log) are
	// usage errors, not log problems: exit 2, like qtrace.
	var spec *trace.SpecError
	if errors.As(err, &spec) {
		out.Flush()
		fmt.Fprintln(os.Stderr, "qreport:", err)
		os.Exit(2)
	}
	if err == nil && *metricsPath != "" {
		fmt.Fprintln(out)
		err = withFile(*metricsPath, func(r io.Reader) error {
			return decisionlog.MetricsCrossCheck(out, r)
		})
	}
	if err != nil {
		out.Flush()
		fmt.Fprintln(os.Stderr, "qreport:", err)
		os.Exit(1)
	}
}

// withFile opens path with a large read buffer and runs fn.
func withFile(path string, fn func(io.Reader) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return fn(bufio.NewReaderSize(f, 1<<20))
}

// runAttr joins the decision log with the trace export.
func runAttr(out io.Writer, decisionsPath, tracePath string) error {
	var rows []decisionlog.Attribution
	var meta decisionlog.Meta
	err := withFile(decisionsPath, func(dr io.Reader) error {
		return withFile(tracePath, func(tr io.Reader) error {
			var err error
			rows, meta, err = decisionlog.Attribute(dr, tr)
			return err
		})
	})
	if err != nil {
		return err
	}
	decisionlog.RenderAttribution(out, meta, rows)
	return nil
}
