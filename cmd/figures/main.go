// Command figures regenerates every table and figure of the paper's
// evaluation into text reports (and a PGM for Figure 1), plus a
// verification pass over the paper's checkable claims.
//
// Examples:
//
//	figures -exp all -out out/
//	figures -exp fig9
//	figures -exp verify
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"repro/internal/decomp"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/study"
	"repro/internal/trace"
	"repro/internal/vis"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")
	var (
		exp     = flag.String("exp", "all", "experiment: table1, table2, fig1..fig13, verify, all")
		outDir  = flag.String("out", "", "also write each experiment to <out>/<exp>.txt")
		fig1nx  = flag.Int("fig1-nx", 125, "Figure 1 grid nx (paper: 250)")
		fig1nr  = flag.Int("fig1-nr", 50, "Figure 1 grid nr (paper: 100)")
		fig1stp = flag.Int("fig1-steps", 1000, "Figure 1 steps (paper: 16000)")
	)
	flag.Parse()

	runOne := func(name string, f func(w io.Writer) error) {
		var w io.Writer = os.Stdout
		var file *os.File
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				log.Fatal(err)
			}
			var err error
			file, err = os.Create(filepath.Join(*outDir, name+".txt"))
			if err != nil {
				log.Fatal(err)
			}
			w = io.MultiWriter(os.Stdout, file)
		}
		fmt.Fprintf(w, "==== %s ====\n", name)
		if err := f(w); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintln(w)
		if file != nil {
			file.Close()
		}
	}

	seriesExp := func(title string, get func() ([]stats.Series, error)) func(io.Writer) error {
		return func(w io.Writer) error {
			ss, err := get()
			if err != nil {
				return err
			}
			t := report.SeriesTable(title, "Procs", ss)
			t.Render(w)
			fmt.Fprintln(w)
			report.LogChart(w, title+" [log scale]", ss, 14)
			return nil
		}
	}

	experiments := []struct {
		name string
		run  func(io.Writer) error
	}{
		{"table1", func(w io.Writer) error {
			t, err := study.Table1Report()
			if err != nil {
				return err
			}
			t.Render(w)
			return nil
		}},
		{"table2", func(w io.Writer) error {
			t := study.Table2Report()
			t.Render(w)
			return nil
		}},
		{"fig1", func(w io.Writer) error {
			field, err := study.Fig1(*fig1nx, *fig1nr, *fig1stp)
			if err != nil {
				return err
			}
			vis.ASCIIContour(w, "Figure 1: axial momentum in an excited axisymmetric jet", field, 110, 26)
			if *outDir != "" {
				f, err := os.Create(filepath.Join(*outDir, "fig1.pgm"))
				if err != nil {
					return err
				}
				defer f.Close()
				return vis.WritePGM(f, field)
			}
			return nil
		}},
		{"fig2", func(w io.Writer) error {
			ss := study.Fig2()
			t := report.SeriesTable("Figure 2: single-processor execution time (s) by code version (RS6000/560)", "Version", ss)
			t.Render(w)
			return nil
		}},
		{"fig3", seriesExp("Figure 3: Navier-Stokes on LACE networks (s)", func() ([]stats.Series, error) { return study.FigLACE(true) })},
		{"fig4", seriesExp("Figure 4: Euler on LACE networks (s)", func() ([]stats.Series, error) { return study.FigLACE(false) })},
		{"fig5", seriesExp("Figure 5: components of execution time (Navier-Stokes; LACE)", func() ([]stats.Series, error) { return study.FigLACEComponents(true) })},
		{"fig6", seriesExp("Figure 6: components of execution time (Euler; LACE)", func() ([]stats.Series, error) { return study.FigLACEComponents(false) })},
		{"fig7", seriesExp("Figure 7: communication optimization (Navier-Stokes; LACE)", func() ([]stats.Series, error) { return study.FigCommVersions(true) })},
		{"fig8", seriesExp("Figure 8: communication optimization (Euler; LACE)", func() ([]stats.Series, error) { return study.FigCommVersions(false) })},
		{"fig9", seriesExp("Figure 9: Navier-Stokes on all platforms (s)", func() ([]stats.Series, error) { return study.FigPlatforms(true) })},
		{"fig10", seriesExp("Figure 10: Euler on all platforms (s)", func() ([]stats.Series, error) { return study.FigPlatforms(false) })},
		{"fig11", seriesExp("Figure 11: MPL vs PVMe (Navier-Stokes; IBM SP)", func() ([]stats.Series, error) { return study.FigLibraries(true) })},
		{"fig12", seriesExp("Figure 12: MPL vs PVMe (Euler; IBM SP)", func() ([]stats.Series, error) { return study.FigLibraries(false) })},
		{"fig13", func(w io.Writer) error {
			busy, err := study.Fig13()
			if err != nil {
				return err
			}
			t := report.Table{
				Title:   "Figure 13: processor busy times (Navier-Stokes; IBM SP; 16 procs)",
				Headers: []string{"Processor", "Busy time (s)"},
			}
			for i, b := range busy {
				t.AddRow(fmt.Sprintf("%d", i), fmt.Sprintf("%.1f", b))
			}
			t.Render(w)
			fmt.Fprintf(w, "load imbalance (max-min)/mean = %.2f%%\n", stats.RelSpread(busy)*100)

			// The same SP on a skewed per-column cost profile: balanced
			// point counts stop balancing busy times, and the
			// cost-weighted split of the identical profile restores it.
			uniform, weighted, err := study.Fig13Skewed(16)
			if err != nil {
				return err
			}
			skew := trace.RampCost(trace.PaperNS().Nx, study.Fig13SkewRatio)
			dw, err := decomp.WeightedAxial(len(skew), 16, skew)
			if err != nil {
				return err
			}
			u, wt := stats.Series{Name: "Uniform (s)"}, stats.Series{Name: "Weighted (s)"}
			for i := range uniform {
				u.Add(float64(i), uniform[i])
				wt.Add(float64(i), weighted[i])
			}
			t = report.SeriesTable(fmt.Sprintf("Figure 13, skewed: busy times under a %gx per-column cost ramp", study.Fig13SkewRatio),
				"Processor", []stats.Series{u, wt})
			fmt.Fprintln(w)
			t.Render(w)
			fmt.Fprintf(w, "busy-time spread (max-min)/mean: %.1f%% uniform -> %.1f%% weighted\n",
				stats.RelSpread(uniform)*100, stats.RelSpread(weighted)*100)
			fmt.Fprintf(w, "weighted split: point imbalance %.1f%%, cost imbalance %.1f%%\n",
				dw.Imbalance()*100, dw.CostImbalance(skew)*100)
			return nil
		}},
		{"verify", func(w io.Writer) error {
			pass := 0
			claims := study.Claims()
			for _, c := range claims {
				got, ok, err := c.Check()
				if err != nil {
					return fmt.Errorf("%s: %w", c.ID, err)
				}
				status := "PASS"
				if ok {
					pass++
				} else {
					status = "FAIL"
				}
				fmt.Fprintf(w, "[%s] %-22s %s\n       paper: %s\n       ours:  %s\n", status, c.ID, "", c.Statement, got)
			}
			fmt.Fprintf(w, "%d/%d claims reproduced\n", pass, len(claims))
			return nil
		}},
	}

	ran := false
	for _, e := range experiments {
		if *exp == "all" || *exp == e.name {
			runOne(e.name, e.run)
			ran = true
		}
	}
	if !ran {
		log.Fatalf("unknown experiment %q", *exp)
	}
}
