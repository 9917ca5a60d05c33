// Quickstart: build a small excited jet, advance it 200 steps with the
// serial solver, and print the conserved-quantity diagnostics.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
)

func main() {
	run, err := core.NewRun(core.Config{
		Nx:    100, // 100x40 grid over 50x5 jet radii
		Nr:    40,
		Steps: 200,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := run.Execute()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("advanced %d steps of the excited Mach-1.5 jet in %s (dt = %.4g)\n",
		res.Steps, res.Elapsed.Round(1e6), res.Dt)
	fmt.Printf("mass integral:   %.6f\n", res.Diag.Mass)
	fmt.Printf("energy integral: %.6f\n", res.Diag.Energy)
	fmt.Printf("max |v| (instability wave amplitude): %.3g\n", res.Diag.MaxV)
	fmt.Println("\nThe inflow excitation (eps = 1e-4 at Strouhal 1/8) seeds a")
	fmt.Println("shear-layer instability wave that convects and amplifies —")
	fmt.Println("run cmd/figures -exp fig1 for the Figure 1 flow field.")
}
