package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesCode pins BENCHMARK.json to the tables the program
// prints from: same workloads with the same reasons, same metric names,
// units and directions, and names the driver's grammar accepts.
func TestManifestMatchesCode(t *testing.T) {
	man, err := readManifest()
	if err != nil {
		t.Fatal(err)
	}
	all := specs(false)
	if len(man.Workloads) != len(all) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(man.Workloads), len(all))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the allowed grammar", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range man.Workloads {
		unique(w.Name)
		if w.Name != all[i].name || w.Why != all[i].why {
			t.Errorf("workload %d: manifest has %q (%q), program has %q (%q)", i, w.Name, w.Why, all[i].name, all[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	compare := func(kind string, got, want []metricDef) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: manifest lists %d metrics, the program prints %d", kind, len(got), len(want))
		}
		for i, d := range got {
			unique(d.Name)
			if !unitRE.MatchString(d.Unit) {
				t.Errorf("%s: unit %q is outside the allowed grammar", d.Name, d.Unit)
			}
			if d.Name != want[i].Name || d.Unit != want[i].Unit || d.Better != want[i].Better {
				t.Errorf("%s %d: manifest has %+v, program has %+v", kind, i, d, want[i])
			}
		}
	}
	compare("end_to_end", man.EndToEnd, endToEnd)
	compare("per_layer", man.PerLayer, perLayer)
	hasSetup := false
	for _, d := range man.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, d := range man.PerLayer {
		if d.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", d.Name)
		}
	}
}

// TestSmoke runs every workload once at tiny sizes, untraced and traced:
// all checks pass, the result carries exactly the metrics BENCHMARK.json
// names, end-to-end metrics are never 0, spans nest and self times are
// non-negative.
func TestSmoke(t *testing.T) {
	for _, s := range specs(true) {
		t.Run(s.name, func(t *testing.T) {
			res, err := runWorkload(s, 1, 0, false, true, false, "")
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, endToEnd)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %g, must be positive", name, m.Value)
				}
			}

			file := filepath.Join(t.TempDir(), "trace.json")
			res, err = runWorkload(s, 1, 0, true, true, false, file)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, perLayer)
			if s.run != nil && s.run.StopTol > 0 && res.Metrics["steps_to_converge"].Value == 0 {
				t.Error("steps_to_converge is 0 on the convergence workload")
			}
			checkTrace(t, file, s.name)
		})
	}
}

func checkResult(t *testing.T, res result, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%t attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("result carries %d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok {
			t.Errorf("result lacks metric %s", d.Name)
		} else if m.Unit != d.Unit {
			t.Errorf("metric %s has unit %q, want %q", d.Name, m.Unit, d.Unit)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 {
		t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", keys)
	}
}

func checkTrace(t *testing.T, file, workload string) {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	if tf.Workload != workload || len(tf.Spans) == 0 {
		t.Fatalf("trace of %q with %d spans, want workload %q", tf.Workload, len(tf.Spans), workload)
	}
	for i, s := range tf.Spans {
		if s.ID != i+1 || s.EndUS < s.StartUS {
			t.Errorf("span %+v: bad id or negative duration", s)
		}
		if s.Parent == 0 {
			continue
		}
		if s.Parent < 1 || s.Parent > len(tf.Spans) {
			t.Errorf("span %+v: parent does not exist", s)
			continue
		}
		if p := tf.Spans[s.Parent-1]; s.StartUS < p.StartUS || s.EndUS > p.EndUS {
			t.Errorf("span %+v lies outside its parent %+v", s, p)
		}
	}
	for name, st := range tf.Self {
		// Children of one parent never overlap, so self time cannot be
		// negative beyond float rounding.
		if st.SelfUS < -1e-6 || st.Count < 1 {
			t.Errorf("span name %s: self time %g us over %d spans", name, st.SelfUS, st.Count)
		}
	}
}

// TestSeededTraffic: the same seed gives a byte-identical job list, a
// different seed a different one, and cold jobs never repeat.
func TestSeededTraffic(t *testing.T) {
	sp := specs(false)[4].serve
	hot := specs(false)[5].serve
	list := func(seed int64) []byte {
		gen := newTraffic(seed)
		var out []any
		for i := 0; i < 500; i++ {
			out = append(out, gen.coldJob(sp))
		}
		out = append(out, gen.hotOrder(hot, 500))
		data, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b, c := list(7), list(7), list(8)
	if string(a) != string(b) {
		t.Error("same seed produced different traffic")
	}
	if string(a) == string(c) {
		t.Error("different seeds produced identical traffic")
	}
	gen := newTraffic(7)
	seen := map[[2]float64]bool{}
	for i := 0; i < 2000; i++ {
		j := gen.coldJob(sp)
		k := [2]float64{j.Reynolds, *j.Eps}
		if seen[k] {
			t.Fatalf("cold job %d repeats (Reynolds, Eps) = %v", i, k)
		}
		seen[k] = true
		if j.Reynolds < reMin || j.Reynolds > reMin+reSpan || *j.Eps < 0 || *j.Eps > epsSpan {
			t.Fatalf("cold job %d outside the draw ranges: %+v", i, j)
		}
	}
}
