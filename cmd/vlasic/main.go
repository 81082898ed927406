// Command vlasic runs the catastrophic spot-defect simulator standalone
// on one macro's layout (the reproduction's equivalent of the VLASIC
// yield simulator) and prints the extracted faults and their collapsed
// classes.
//
// Usage:
//
//	vlasic [-macro comparator] [-defects 25000] [-seed 1995] [-dft] [-classes 20]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/defectsim"
	"repro/internal/faults"
	"repro/internal/macros"
	"repro/internal/process"
	"repro/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vlasic: ")
	var (
		macroName = flag.String("macro", "comparator", "macro layout to attack")
		defects   = flag.Int("defects", 25000, "defects to sprinkle")
		seed      = flag.Int64("seed", 1995, "random seed")
		dft       = flag.Bool("dft", false, "use the DfT-modified layout")
		topN      = flag.Int("classes", 20, "largest classes to list")
	)
	flag.Parse()

	var m macros.Macro
	switch *macroName {
	case "comparator":
		m = macros.NewComparator(macros.DefaultVehicle())
	case "ladder":
		m = macros.NewLadder(macros.DefaultVehicle())
	case "biasgen":
		m = macros.NewBiasgen(macros.NewComparator(macros.DefaultVehicle()))
	case "clockgen":
		m = macros.NewClockgen(macros.DefaultVehicle())
	case "decoder":
		m = macros.NewDecoder(macros.DefaultVehicle())
	default:
		log.Fatalf("unknown macro %q", *macroName)
	}

	cell := m.Layout(*dft)
	fmt.Printf("macro %s: %d shapes, %.0f µm² bounding box\n",
		cell.Name, len(cell.Shapes), cell.Area())
	for net, comps := range defectsim.CheckConnectivity(cell) {
		if comps != 1 {
			log.Fatalf("layout net %q has %d components", net, comps)
		}
	}

	sim := defectsim.New(cell, process.Default())
	res, err := sim.Sprinkle(context.Background(), *defects, *seed)
	if err != nil {
		log.Fatal(err)
	}
	classes := faults.Collapse(res.Faults)
	fmt.Printf("%d defects -> %d faults (%.2f%%) -> %d classes\n\n",
		res.Defects, len(res.Faults), 100*res.FaultRate(), len(classes))

	run := &core.MacroRun{
		Name: m.Name(), Classes: classes,
		DiscoveryDefects: res.Defects, DiscoveryFaults: len(res.Faults),
		TotalFaults: len(res.Faults),
	}
	for _, f := range res.Faults {
		if f.Local {
			run.LocalFaults++
		}
	}
	report.Table1(os.Stdout, run)

	fmt.Printf("largest %d fault classes:\n", *topN)
	for i, c := range classes {
		if i >= *topN {
			break
		}
		fmt.Printf("  %4d×  %s\n", c.Count, c.Fault)
	}
}
