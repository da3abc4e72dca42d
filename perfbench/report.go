package main

import (
	"strings"

	"repro/internal/workload"
)

// simMetrics scores a run's simulated service levels over its measured
// periods.
func simMetrics(o *outcome) map[string]float64 {
	res := o.res
	var cells, met int
	var rt, rtW, vel, velW []float64
	p95 := 0.0
	for i, cl := range res.Classes {
		for p := o.measuredFrom; p < res.Periods; p++ {
			if o.demand(cl.ID, p) {
				// A starved cell (demand but no completions) is a miss,
				// unlike in MixedResult.Satisfaction, which skips it.
				cells++
				if res.Measurable[i][p] && res.GoalMet[i][p] {
					met++
				}
			}
			w := float64(res.Completed[i][p])
			if cl.Kind == workload.OLTP {
				rt, rtW = append(rt, res.Metric[i][p]), append(rtW, w)
				p95 = max(p95, res.RespP95[i][p])
			} else {
				vel, velW = append(vel, res.Metric[i][p]), append(velW, w)
			}
		}
	}
	m := map[string]float64{
		"slo_attainment":  ratio(float64(met), float64(cells)),
		"oltp_rt_ms":      1000 * weightedMean(rt, rtW),
		"oltp_rt_p95_ms":  1000 * p95,
		"query_fail_frac": ratio(float64(o.failed), float64(o.submitted)),
	}
	if len(vel) > 0 {
		m["olap_velocity"] = weightedMean(vel, velW)
	}
	return m
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run: the host cost a user of
// the simulator pays. CPU and allocation are per simulated query because
// the amount of simulated work varies with the seed. Wall-clock
// throughput (sim_queries_per_s) is reported with the per-layer metrics:
// on a shared host it spreads wider than any bound allows.
var endToEnd = []metricDef{
	{"cpu_us_per_query", "us"},
	{"alloc_bytes_per_query", "bytes"},
	{"live_heap_mb", "MB"},
	{"setup_s", "s"},
}

// simulated are the service levels the simulation reports. They are
// deterministic for a seed, so they are reported once, with the traced
// run's per-layer metrics.
var simulated = []metricDef{
	{"slo_attainment", "fraction"},
	{"oltp_rt_ms", "ms"},
	{"oltp_rt_p95_ms", "ms"},
	{"olap_velocity", "fraction"},
	{"query_fail_frac", "fraction"},
}

// perLayer are the metrics of a traced run. A seam or sink a workload
// does not have reads 0.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".cpu_frac", "fraction"})
		if l != "experiment" && l != "gc" && l != "fault" {
			defs = append(defs, metricDef{l + ".alloc_mb", "MB"})
		}
	}
	return append(append(defs,
		metricDef{"simclock.step_ms_p50", "ms"},
		metricDef{"simclock.step_ms_p99", "ms"},
		metricDef{"engine.completed", "count"},
		metricDef{"workload.window_calls", "count"},
		metricDef{"workload.window_ms", "ms"},
		metricDef{"workload.pool_build_ms", "ms"},
		metricDef{"router.routed", "count"},
		metricDef{"router.reroute_frac", "fraction"},
		metricDef{"patroller.intercepted", "count"},
		metricDef{"patroller.retries", "count"},
		metricDef{"patroller.release_calls", "count"},
		metricDef{"patroller.release_ms", "ms"},
		metricDef{"core.ticks", "count"},
		metricDef{"core.solve_calls", "count"},
		metricDef{"core.solve_ms", "ms"},
		metricDef{"core.predict_calls", "count"},
		metricDef{"core.plan_change_frac", "fraction"},
		metricDef{"obs.bytes", "bytes"},
		metricDef{"trace.bytes", "bytes"},
		metricDef{"trace.events", "count"},
		metricDef{"trace.writes", "count"},
		metricDef{"decisionlog.bytes", "bytes"},
		metricDef{"decisionlog.records", "count"},
		metricDef{"checkpoint.files", "count"},
		metricDef{"checkpoint.bytes", "bytes"},
		metricDef{"fault.injected", "count"},
		metricDef{"gc.cycles", "count"},
		metricDef{"peak_rss_mb", "MB"},
		metricDef{"sim_queries_per_s", "queries/s"},
		metricDef{"tracing_overhead_frac", "fraction"},
	), simulated...)
}()

// layerMetrics gathers a traced run's per-layer metrics: profile shares,
// seam timings from the probe, and the workload's own counts.
func layerMetrics(o *outcome, p *probe, cpuProfile []byte, alloc map[string]float64, gcCycles float64) (map[string]float64, error) {
	cpu, err := cpuByLayer(cpuProfile)
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.name] = 0
	}
	for _, l := range layers {
		m[l+".cpu_frac"] = cpu[l]
		if _, ok := m[l+".alloc_mb"]; ok {
			m[l+".alloc_mb"] = alloc[l]
		}
	}
	m["simclock.step_ms_p50"] = percentile(p.stepMS, 50)
	m["simclock.step_ms_p99"] = percentile(p.stepMS, 99)
	m["engine.completed"] = float64(totalCompleted(o.res))
	m["workload.window_calls"] = float64(p.windowCalls)
	m["workload.window_ms"] = p.windowMS
	m["workload.pool_build_ms"] = p.poolBuildMS
	m["patroller.release_calls"] = float64(p.releaseCalls)
	m["patroller.release_ms"] = p.releaseMS
	m["core.ticks"] = float64(len(o.res.PlanHistory))
	m["core.solve_calls"] = float64(p.solveCalls)
	m["core.solve_ms"] = p.solveMS
	m["core.predict_calls"] = float64(p.predictCalls)
	m["core.plan_change_frac"] = planChangeFrac(o.res.PlanHistory)
	m["gc.cycles"] = gcCycles
	for name, v := range o.layers {
		m[name] = v
	}
	for name, v := range simMetrics(o) {
		if _, ok := m[name]; ok {
			m[name] = v
		}
	}
	return m, nil
}

// endToEndMetrics reduces a set of untraced runs to the medians the
// benchmark reports.
func endToEndMetrics(runs []*runOut) map[string]metric {
	var cpu, alloc, live, setup []float64
	for _, r := range runs {
		n := float64(r.Completed)
		cpu = append(cpu, 1e6*r.CPUS/n)
		alloc = append(alloc, 1e6*r.AllocMB/n)
		live = append(live, r.LiveMB)
		setup = append(setup, r.SetupS...)
	}
	vals := map[string]float64{
		"cpu_us_per_query":      median(cpu),
		"alloc_bytes_per_query": median(alloc),
		"live_heap_mb":          median(live),
		"setup_s":               median(setup),
	}
	out := map[string]metric{}
	for _, d := range endToEnd {
		out[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

// tracedMetrics reduces paired runs to per-layer medians (means for the
// CPU shares) and the tracing overhead: traced simulation wall time over
// untraced, minus one.
func tracedMetrics(plain, traced []*runOut) map[string]metric {
	var plainWall, tracedWall, rss, qps []float64
	for _, r := range plain {
		plainWall = append(plainWall, r.WallS)
		rss = append(rss, r.PeakRSSMB)
		qps = append(qps, float64(r.Completed)/r.WallS)
	}
	for _, r := range traced {
		tracedWall = append(tracedWall, r.WallS)
	}
	out := map[string]metric{}
	for _, d := range perLayer {
		var vs []float64
		for _, r := range traced {
			vs = append(vs, r.Layers[d.name])
		}
		v := median(vs)
		if strings.HasSuffix(d.name, ".cpu_frac") {
			// Averaged, not a median, so the shares still sum to 1.
			v = mean(vs)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	out["tracing_overhead_frac"] = metric{Value: median(tracedWall)/median(plainWall) - 1, Unit: "fraction"}
	// These two come from the untraced processes: profiling buffers
	// inflate a traced process's resident set and slow its simulation.
	out["peak_rss_mb"] = metric{Value: median(rss), Unit: "MB"}
	out["sim_queries_per_s"] = metric{Value: median(qps), Unit: "queries/s"}
	return out
}
