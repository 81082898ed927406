// Quickstart: run the defect-oriented test methodology end-to-end on the
// comparator macro with a small configuration and print the headline
// detectability numbers.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro"
)

func main() {
	log.SetFlags(0)

	// A small, fast configuration: a few thousand sprinkled defects, a
	// dozen Monte Carlo dies for the good-signature space, and the 25
	// most likely fault classes analysed.
	cfg := repro.QuickConfig()
	p := repro.NewPipeline(cfg)

	fmt.Println("running the defect-oriented test path for the comparator macro...")
	run, err := p.RunMacro(context.Background(), "comparator", false)
	if err != nil {
		log.Fatal(err)
	}

	repro.PrintMacro(os.Stdout, run)

	s := repro.Fig3(run, false)
	fmt.Printf("headline: %.1f%% of comparator faults detected by the simple test\n", s.Covered)
	fmt.Printf("          %.1f%% only by current measurements (the paper's key claim)\n", s.CurrentOnly)
	fmt.Printf("test cost: %s\n", repro.DefaultTestPlan())
}
