package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// metricDef names one metric. BENCHMARK.json lists the same names, units
// and directions (the smoke test compares the two) and, for end-to-end
// metrics, the bound by which each may worsen.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them, from the untraced run.
var endToEnd = []metricDef{
	{Name: "job_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "jobs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower"},
}

// perLayer are the attribution metrics of the traced run. A metric that
// does not apply to a workload (par.* on jet-serial, serve.http_us
// without cache hits) reads 0 there.
var perLayer = []metricDef{
	{Name: "flux.x_ns_pt", Unit: "ns/pt", Better: "lower"},
	{Name: "flux.r_ns_pt", Unit: "ns/pt", Better: "lower"},
	{Name: "scheme.x_ns_pt", Unit: "ns/pt", Better: "lower"},
	{Name: "scheme.r_ns_pt", Unit: "ns/pt", Better: "lower"},
	{Name: "solver.step_ms", Unit: "ms", Better: "lower"},
	{Name: "solver.mpoints_per_s", Unit: "Mpt/s", Better: "higher"},
	{Name: "solver.self_ms", Unit: "ms", Better: "lower"},
	{Name: "solver.flops_pt", Unit: "flop/pt", Better: "lower"},
	{Name: "solver.bytes_pt_computed", Unit: "B/pt", Better: "lower"},
	{Name: "mem.triad_gbs", Unit: "GB/s", Better: "higher"},
	{Name: "solver.bw_fraction", Unit: "ratio", Better: "higher"},
	{Name: "shm.forkjoin_us", Unit: "us", Better: "lower"},
	{Name: "msg.pingpong_col_us", Unit: "us", Better: "lower"},
	{Name: "msg.pingpong_row_us", Unit: "us", Better: "lower"},
	{Name: "msg.allocs_per_send", Unit: "count", Better: "lower"},
	{Name: "par.wait_share", Unit: "ratio", Better: "lower"},
	{Name: "par.busy_imbalance", Unit: "ratio", Better: "lower"},
	{Name: "par.startups_step.axial", Unit: "1/step", Better: "lower"},
	{Name: "par.startups_step.radial", Unit: "1/step", Better: "lower"},
	{Name: "par.startups_step.reduce", Unit: "1/step", Better: "lower"},
	{Name: "par.bytes_step.axial", Unit: "B/step", Better: "lower"},
	{Name: "par.bytes_step.radial", Unit: "B/step", Better: "lower"},
	{Name: "par.bytes_step.reduce", Unit: "B/step", Better: "lower"},
	{Name: "backend.setup_ms", Unit: "ms", Better: "lower"},
	{Name: "backend.advance_ms_step", Unit: "ms", Better: "lower"},
	{Name: "backend.gather_ms", Unit: "ms", Better: "lower"},
	{Name: "steps_to_converge", Unit: "count", Better: "lower"},
	{Name: "speedup_vs_serial", Unit: "ratio", Better: "higher"},
	{Name: "core.canonical_us", Unit: "us", Better: "lower"},
	{Name: "core.execute_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.key_us", Unit: "us", Better: "lower"},
	{Name: "serve.hit_us", Unit: "us", Better: "lower"},
	{Name: "serve.resultof_us", Unit: "us", Better: "lower"},
	{Name: "serve.cold_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.http_us", Unit: "us", Better: "lower"},
	{Name: "serve.hits", Unit: "count", Better: "higher"},
	{Name: "serve.misses", Unit: "count", Better: "lower"},
	{Name: "serve.rejected", Unit: "count", Better: "lower"},
	{Name: "job_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "trace_overhead", Unit: "ratio", Better: "lower"},
}

// metricValue is one reported number. Q1, Q3 and N describe the sample
// behind a median and appear only with -detail (the parent modes read
// them); the plain form is exactly {"value", "unit"}.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
}

// result is the last line a workload process prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// build assembles the reported metrics from values, in the order and
// with the units of defs; a missing or non-finite value is an error.
func build(defs []metricDef, values map[string]float64, samples map[string]summary) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s has no finite value (%v)", d.Name, v)
		}
		mv := metricValue{Value: v, Unit: d.Unit}
		if s, ok := samples[d.Name]; ok {
			mv.Q1, mv.Q3, mv.N = s.q1, s.q3, s.n
		}
		out[d.Name] = mv
	}
	return out, nil
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// readManifest loads BENCHMARK.json from the repository root; the
// benchmark runs from its own directory, one level below.
func readManifest() (manifest, error) {
	var m manifest
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return m, nil
}
