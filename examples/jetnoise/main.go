// Jetnoise reproduces the paper's Figure 1 scenario: the time-accurate
// near field of an excited Mach 1.5 axisymmetric jet, rendered as an
// axial-momentum contour map. The paper ran 16,000 steps on a 250x100
// grid; this example defaults to a reduced configuration (increase
// -steps/-nx/-nr for full fidelity).
//
//	go run ./examples/jetnoise
//	go run ./examples/jetnoise -nx 250 -nr 100 -steps 16000 -pgm fig1.pgm
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/vis"
)

func main() {
	nx := flag.Int("nx", 125, "axial nodes (paper: 250)")
	nr := flag.Int("nr", 50, "radial nodes (paper: 100)")
	steps := flag.Int("steps", 2000, "time steps (paper: 16000)")
	pgm := flag.String("pgm", "", "also write a PGM image")
	flag.Parse()

	run, err := core.NewRun(core.Config{Nx: *nx, Nr: *nr, Steps: *steps})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("running the excited jet on %dx%d for %d steps...\n", *nx, *nr, *steps)
	res, err := run.Execute()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("done in %s; max |v| = %.3g\n\n", res.Elapsed.Round(1e6), res.Diag.MaxV)
	vis.ASCIIContour(os.Stdout, "Axial momentum rho*u (cf. paper Figure 1)", res.Momentum, 110, 26)
	if *pgm != "" {
		f, err := os.Create(*pgm)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := vis.WritePGM(f, res.Momentum); err != nil {
			log.Fatal(err)
		}
		fmt.Println("wrote", *pgm)
	}
}
