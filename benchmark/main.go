// Command benchmark is the repository's benchmark: six named workloads,
// end-to-end metrics from an untraced run and per-layer attribution
// metrics from a separate traced run. See README.md in this directory.
//
//	bash benchmark/run.sh --workload jet-mp --seed 1 --seconds 12 --trace 0
//	bash benchmark/run.sh -seed 1            every workload, both runs
//	bash benchmark/run.sh -seed 1 -check     the untraced set twice, compared
//
// With -workload the process measures that one workload and prints, as
// the last line of standard output, one JSON object {correct, attempted,
// failed, metrics}; the report for people goes to standard error. Without
// it the process re-executes itself once per workload, so heap state, GC
// history and the resident-set high-water mark are per workload.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// tracePath is where the traced run stores its spans, relative to the
// benchmark directory (git-ignored).
const tracePath = "out/trace.json"

func main() {
	var (
		workload = flag.String("workload", "", "measure this one workload (default: every workload, each in its own process)")
		seed     = flag.Int64("seed", 1, "seed of the generated serve traffic, the benchmark's only randomness")
		seconds  = flag.Float64("seconds", 12, "length of the measured phase of one run")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		check    = flag.Bool("check", false, "run the untraced set twice and fail unless every end-to-end metric agrees within its bound")
		detail   = flag.Bool("detail", false, "add sample quartiles and counts to the result line (used by the parent modes)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected arguments %v", flag.Args()))
	}
	budget := time.Duration(*seconds * float64(time.Second))
	switch {
	case *workload != "":
		s, err := findSpec(*workload)
		if err != nil {
			fatal(err)
		}
		res, err := runWorkload(s, *seed, budget, *trace != 0, false, *detail, tracePath)
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	case *check:
		if err := checkMode(*seed, *seconds); err != nil {
			fatal(err)
		}
	default:
		if err := allMode(*seed, *seconds); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// runWorkload measures one workload in this process. The untraced run
// yields the end-to-end metrics. The traced run measures an untraced
// baseline, then the same rounds with spans on (their ratio is
// trace_overhead), then probes each layer, and yields the per-layer
// metrics; it writes the spans to traceFile.
func runWorkload(s spec, seed int64, budget time.Duration, trace, tiny, detail bool, traceFile string) (result, error) {
	host := readHost()
	warnf("%s seed=%d %s", s.name, seed, host)
	if host.NProc < width && s.name != "jet-serial" {
		warnf("WARNING: %d CPU for %d ranks/clients: wall-clock metrics of %s time oversubscribed goroutines and are not comparable", host.NProc, width, s.name)
	}
	l := newLoad(s, seed)
	if err := l.prepare(); err != nil {
		return result{}, err
	}
	values, samples := map[string]float64{}, map[string]summary{}
	var recs []*record
	var defs []metricDef
	if !trace {
		defs = endToEnd
		rec := measure(l, nil, budget)
		recs = append(recs, rec)
		job, setup := summarize(rec.jobMS), summarize(rec.setupS)
		values["job_p50_ms"], samples["job_p50_ms"] = job.median, job
		values["setup_s"], samples["setup_s"] = setup.median, setup
		values["jobs_per_s"] = float64(rec.ok) / rec.busy.Seconds()
		rss, err := peakRSSMB()
		if err != nil {
			return result{}, err
		}
		values["peak_rss_mb"] = rss
		report(rec, nil)
	} else {
		defs = perLayer
		for _, d := range perLayer {
			values[d.Name] = 0
		}
		base := measure(l, nil, budget/4)
		tr := newTracer()
		rec := measure(l, tr, budget/4)
		recs = append(recs, base, rec)
		if err := probes(tr, s, tiny, host, values); err != nil {
			return result{}, fmt.Errorf("layer probes: %w", err)
		}
		l.layer(rec, values)
		values["job_p95_ms"] = summarize(rec.jobMS).p95
		values["trace_overhead"] = median(rec.jobMS) / median(base.jobMS)
		if err := tr.write(traceFile, s.name, seed); err != nil {
			return result{}, fmt.Errorf("writing trace: %w", err)
		}
		report(rec, tr)
	}
	if !detail {
		samples = nil
	}
	res := result{Correct: true}
	for _, rec := range recs {
		res.Attempted += rec.attempted
		res.Failed += rec.failed
		for _, v := range rec.violations {
			warnf("FAILED: %s", v)
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	var err error
	res.Metrics, err = build(defs, values, samples)
	return res, err
}

// report prints the sample behind the medians, and for a traced run the
// self time per span name, to standard error.
func report(rec *record, tr *tracer) {
	job, setup := summarize(rec.jobMS), summarize(rec.setupS)
	warnf("jobs:   n=%d median %.3f ms, quartiles %.3f–%.3f, p95 %.3f, min %.3f", job.n, job.median, job.q1, job.q3, job.p95, job.min)
	warnf("set-up: n=%d median %.4f s, quartiles %.4f–%.4f", setup.n, setup.median, setup.q1, setup.q3)
	warnf("attempted %d, ok %d, failed %d", rec.attempted, rec.ok, rec.failed)
	if tr == nil {
		return
	}
	self := tr.selfTimes()
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]].SelfUS > self[names[j]].SelfUS })
	warnf("%-40s %8s %14s %14s", "span", "count", "total ms", "self ms")
	for _, name := range names {
		st := self[name]
		warnf("%-40s %8d %14.3f %14.3f", name, st.Count, st.TotalUS/1e3, st.SelfUS/1e3)
	}
}

// child runs one workload in a fresh process of this same binary and
// returns its parsed result line.
func child(workload string, seed int64, seconds float64, trace int) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-detail")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("%s: no result line (%v, exit: %v)", workload, err, runErr)
	}
	if runErr != nil {
		return res, fmt.Errorf("%s: %w", workload, runErr)
	}
	if !res.Correct {
		return res, fmt.Errorf("%s: %d of %d operations failed their checks", workload, res.Failed, res.Attempted)
	}
	return res, nil
}

// allMode runs every workload untraced and traced and prints one table
// with every metric by name and unit.
func allMode(seed int64, seconds float64) error {
	type row struct{ e2e, layer result }
	all := specs(false)
	rows := make([]row, len(all))
	for i, s := range all {
		var err error
		if rows[i].e2e, err = child(s.name, seed, seconds, 0); err != nil {
			return err
		}
		if rows[i].layer, err = child(s.name, seed, seconds, 1); err != nil {
			return err
		}
	}
	header := fmt.Sprintf("%-26s %-8s", "metric", "unit")
	for _, s := range all {
		header += fmt.Sprintf(" %14s", s.name)
	}
	fmt.Println(header)
	for _, group := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range group {
			line := fmt.Sprintf("%-26s %-8s", d.Name, d.Unit)
			for i := range all {
				m := rows[i].e2e.Metrics
				if _, ok := m[d.Name]; !ok {
					m = rows[i].layer.Metrics
				}
				line += fmt.Sprintf(" %14.6g", m[d.Name].Value)
			}
			fmt.Println(line)
		}
	}
	line := fmt.Sprintf("%-26s %-8s", "failed/attempted", "count")
	for i := range all {
		line += fmt.Sprintf(" %14s", fmt.Sprintf("%d/%d", rows[i].e2e.Failed+rows[i].layer.Failed, rows[i].e2e.Attempted+rows[i].layer.Attempted))
	}
	fmt.Println(line)
	return nil
}

// checkMode runs the untraced set twice on this binary and fails unless,
// for every (metric, workload), the second run is no worse than the
// first by more than the metric's bound from BENCHMARK.json.
func checkMode(seed int64, seconds float64) error {
	man, err := readManifest()
	if err != nil {
		return err
	}
	all := specs(false)
	sets := make([][]result, 2)
	for i := range sets {
		for _, s := range all {
			res, err := child(s.name, seed, seconds, 0)
			if err != nil {
				return err
			}
			sets[i] = append(sets[i], res)
		}
	}
	fmt.Printf("%-14s %-12s %12s %23s %12s %23s %8s %6s\n", "workload", "metric", "first", "quartiles", "second", "quartiles", "worse by", "bound")
	bad := 0
	for w, s := range all {
		for _, d := range man.EndToEnd {
			a, b := sets[0][w].Metrics[d.Name], sets[1][w].Metrics[d.Name]
			worse := b.Value/a.Value - 1
			if d.Better == "higher" {
				worse = a.Value/b.Value - 1
			}
			verdict := ""
			if worse > d.Bound {
				verdict = "  OUTSIDE BOUND"
				bad++
			}
			fmt.Printf("%-14s %-12s %12.6g %23s %12.6g %23s %+7.1f%% %5.0f%%%s\n", s.name, d.Name,
				a.Value, quartiles(a), b.Value, quartiles(b), 100*worse, 100*d.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d (metric, workload) pairs moved by more than their bound between two runs of the same binary", bad)
	}
	return nil
}

func quartiles(m metricValue) string {
	if m.N == 0 {
		return "-"
	}
	return fmt.Sprintf("%.5g–%.5g n=%d", m.Q1, m.Q3, m.N)
}
