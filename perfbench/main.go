// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload (a full simulation built from the program's public entry
// points) again and again for a fixed host-time budget, each run in a
// fresh process of its own, checks every run's output, and prints the
// result as one JSON object on the last line of standard output.
//
// With -trace 0 the runs are uninstrumented and the result carries the
// end-to-end metrics. With -trace 1 each uninstrumented run is paired
// with a traced one (CPU and allocation profiles, timed seams, counted
// sinks) and the result carries the per-layer metrics and the tracing
// overhead. See README.md.
//
// Usage, from the repository root (perfbench/run.sh builds and calls it):
//
//	perfbench -workload paper-qs-24h -seed 1 -seconds 20 -trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/experiment"
)

// setupReps is how many times a run builds its workload when the
// workload can be rebuilt cheaply; setup_s is the median.
const setupReps = 11

// traceMemProfileRate samples one allocation per this many bytes in a
// traced run, finer than the runtime's default so small layers register.
const traceMemProfileRate = 64 << 10

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 20, "host seconds to keep starting runs for")
	trace := flag.Int("trace", 0, "1: pair each run with a traced run and report per-layer metrics")
	childRun := flag.Bool("child", false, "run the workload once in this process and print its raw result")
	tmp := flag.String("tmp", os.TempDir(), "directory for the runs' scratch files")
	flag.Parse()

	w, ok := workloadByName(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: usage: -workload %s -seed N -seconds S -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	if *childRun {
		if *trace == 1 {
			runtime.MemProfileRate = traceMemProfileRate
		}
		out, err := runOnce(w, *seed, *trace == 1, *tmp)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	line, err := json.Marshal(drive(w, *seed, *seconds, *trace == 1, *tmp))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, "|")
}

// runOut is one process's raw result, passed from the child process to the
// parent as JSON.
type runOut struct {
	Digest    string             `json:"digest"`
	Problems  []string           `json:"problems,omitempty"`
	Submitted int64              `json:"submitted"`
	Completed int64              `json:"completed"`
	SetupS    []float64          `json:"setup_s"`
	WallS     float64            `json:"wall_s"`
	CPUS      float64            `json:"cpu_s"`
	AllocMB   float64            `json:"alloc_mb"`
	PeakRSSMB float64            `json:"peak_rss_mb"`
	LiveMB    float64            `json:"live_heap_mb"`
	Layers    map[string]float64 `json:"layers,omitempty"`
}

// runOnce runs the workload once in this process. The run's host cost
// covers its construction and simulation; its wall time, the simulation
// alone.
func runOnce(w workloadSpec, seed uint64, traced bool, tmp string) (*runOut, error) {
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("perfbench: %w", err)
		}
	}
	before := sampleHost()
	total := startWatch()
	var setupS, wall, liveMB float64
	var sim stopwatch
	var after host
	var allocByLayer map[string]float64
	p := &probe{traced: traced, tmpDir: tmp}
	p.setupDone = func() {
		setupS = total.seconds()
		sim = startWatch()
	}
	// The profiles and counters stop here, before the results are
	// tabulated and checked.
	p.simDone = func() {
		wall = sim.seconds()
		after = sampleHost()
		runtime.GC()
		if traced {
			pprof.StopCPUProfile()
			allocByLayer = allocMBByLayer()
		} else {
			liveMB = liveHeapMB()
		}
	}
	o, err := w.run(seed, p)
	if err != nil {
		return nil, err
	}
	if wall <= 0 {
		return nil, fmt.Errorf("perfbench: %s never reported the end of its simulation", w.name)
	}

	if err := o.res.Validate(); err != nil {
		o.checkf(false, "%v", err)
	}
	o.checkf(o.res.ExportErr == nil, "export error: %v", o.res.ExportErr)
	o.checkf(!o.res.Crashed, "the run crashed")
	out := &runOut{
		Digest:    digest(o),
		Problems:  o.problems,
		Submitted: o.submitted,
		Completed: totalCompleted(o.res),
		SetupS:    []float64{setupS},
		WallS:     wall,
		CPUS:      after.cpuS - before.cpuS,
		AllocMB:   (after.allocBytes - before.allocBytes) / 1e6,
		PeakRSSMB: after.maxRSSMB,
		LiveMB:    liveMB,
	}
	if traced {
		layers, err := layerMetrics(o, p, prof.Bytes(), allocByLayer, after.gcCycles-before.gcCycles)
		if err != nil {
			return nil, err
		}
		out.Layers = layers
		return out, nil
	}
	for i := 1; o.resetup != nil && i < setupReps; i++ {
		runtime.GC()
		w := startWatch()
		o.resetup()
		out.SetupS = append(out.SetupS, w.seconds())
	}
	return out, nil
}

// totalCompleted counts a result's completions over all classes and
// periods.
func totalCompleted(res *experiment.MixedResult) int64 {
	var n int64
	for _, row := range res.Completed {
		for _, c := range row {
			n += int64(c)
		}
	}
	return n
}

// liveHeapMB reads the heap the last collection found reachable.
func liveHeapMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6
}

// host is a snapshot of the process's resource counters.
type host struct {
	cpuS, allocBytes, gcCycles, maxRSSMB float64
}

func sampleHost() host {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return host{
		cpuS:       tv(ru.Utime) + tv(ru.Stime),
		allocBytes: float64(s[0].Value.Uint64()),
		gcCycles:   float64(s[1].Value.Uint64()),
		maxRSSMB:   float64(ru.Maxrss) / 1024,
	}
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// subSeeds is how many simulation seeds one benchmark seed expands to.
// A run's processes take them in turn, each twice in a row, so its
// medians average over several inputs instead of resting on one (the
// amount of simulated work, and so its host cost, varies with the seed),
// and every run checks that two processes with one seed agree.
const subSeeds = 4

// subSeed is the simulation seed of a run's i-th process.
func subSeed(seed uint64, i int) uint64 { return seed*subSeeds + uint64(i/2%subSeeds) }

// drive starts processes of the workload, one at a time, until the next
// one would overrun the budget; it always makes at least minRuns
// (untraced) or one pair (traced). Processes given the same simulation
// seed must agree on the digest of their simulated outputs, traced or
// not.
func drive(w workloadSpec, seed uint64, seconds float64, traced bool, tmp string) *result {
	const minRuns = 3
	budget := startWatch()
	var plain, instrumented []*runOut
	res := &result{Correct: true, Metrics: map[string]metric{}}
	digests := map[uint64]string{}
	spawn := func(sim uint64, trace bool) *runOut {
		out, err := spawnRun(w, sim, trace, tmp)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			res.Correct = false
			res.Attempted++
			res.Failed++
			return nil
		}
		res.Attempted += out.Submitted
		if want, ok := digests[sim]; ok && out.Digest != want {
			out.Problems = append(out.Problems, fmt.Sprintf("digest %s differs from an earlier run's %s", out.Digest, want))
		}
		digests[sim] = out.Digest
		if len(out.Problems) > 0 {
			for _, msg := range out.Problems {
				fmt.Fprintf(os.Stderr, "perfbench: %s simulation seed %d: check failed: %s\n", w.name, sim, msg)
			}
			res.Correct = false
			res.Failed += out.Submitted
		}
		return out
	}
	for i := 0; ; i++ {
		lap := startWatch()
		sim := subSeed(seed, i)
		if out := spawn(sim, false); out != nil {
			plain = append(plain, out)
		}
		if traced {
			if out := spawn(sim, true); out != nil {
				instrumented = append(instrumented, out)
			}
		}
		if !res.Correct {
			return res
		}
		enough := len(plain) >= minRuns || (traced && len(plain) >= 1)
		if enough && budget.seconds()+lap.seconds() > seconds {
			break
		}
	}
	if traced {
		res.Metrics = tracedMetrics(plain, instrumented)
	} else {
		res.Metrics = endToEndMetrics(plain)
	}
	return res
}

// spawnRun runs the workload once in a fresh process, so its peak RSS is
// that run's alone.
func spawnRun(w workloadSpec, seed uint64, traced bool, tmp string) (*runOut, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(os.Args[0], "-child", "-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
		"-trace", trace, "-tmp", tmp)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("perfbench: %s seed %d run: %w", w.name, seed, err)
	}
	var out runOut
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, fmt.Errorf("perfbench: %s seed %d run output: %w", w.name, seed, err)
	}
	return &out, nil
}
