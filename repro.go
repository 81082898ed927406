// Package repro is the public API of the reproduction of
// "Defect-Oriented Test Methodology for Complex Mixed-Signal Circuits"
// (Kuijstermans, Thijssen, Sachdev — DATE 1995).
//
// The package re-exports the methodology pipeline (internal/core), which
// runs, for each macro cell of an 8-bit full-flash ADC, the complete
// defect-oriented test path: Monte Carlo spot-defect simulation over the
// macro's layout, fault collapsing into classes, circuit-level fault
// model injection, analog (or gate-level) fault simulation, macro-level
// fault-signature classification, propagation to the circuit edge through
// a high-level ADC model, and detection against the multi-dimensional
// good-signature space — before and after two DfT measures.
//
// Quick start:
//
//	p := repro.NewPipeline(repro.QuickConfig())
//	run, err := p.Run(context.Background(), false) // pre-DfT
//	...
//	cov := repro.Fig4(run, false)
//	fmt.Printf("fault coverage: %.1f%%\n", cov.Total())
//
// # Cancellation and observability
//
// The pipeline takes a context.Context on every entry point — Run,
// RunMacro, DiscoverClasses, AnalyzeClass, GoodSpace — and honours
// cancellation deep inside the analog kernel: the Newton loop, the OP
// fallback ladder and the transient stepper all poll ctx.Done, so a
// cancelled context aborts a fault simulation mid-solve in bounded
// time. Per-stage tracing attaches through the Obs field (see
// internal/obs):
//
//	p := repro.NewPipeline(repro.QuickConfig())
//	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
//	defer cancel()
//	run, err := p.Run(ctx, false)
package repro

import (
	"io"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/testgen"
)

// Re-exported pipeline types; see internal/core for full documentation.
type (
	// Config parameterises a methodology run (sprinkle sizes, Monte
	// Carlo depth, detection thresholds).
	Config = core.Config
	// Run is a full methodology outcome for one DfT setting.
	Run = core.Run
	// MacroRun is the per-macro outcome.
	MacroRun = core.MacroRun
	// ClassAnalysis is the per-fault-class outcome.
	ClassAnalysis = core.ClassAnalysis
	// Detection records the mechanisms that catch a fault.
	Detection = core.Detection
	// GlobalCoverage is the Fig 4/5 coverage split.
	GlobalCoverage = core.GlobalCoverage
	// Fig3Summary holds the headline comparator detectability numbers.
	Fig3Summary = core.Fig3Summary
	// TestPlan is the production test-time model.
	TestPlan = testgen.Plan
	// Pipeline binds the five-macro Flash ADC case study to a Config
	// (Run, RunMacro, AnalyzeClass, RunParallel, …).
	Pipeline = core.Pipeline
)

// NewPipeline constructs the case-study pipeline.
func NewPipeline(cfg Config) *Pipeline { return core.NewPipeline(cfg) }

// DefaultConfig is the full-fidelity configuration (minutes of CPU).
func DefaultConfig() Config { return core.DefaultConfig() }

// QuickConfig is a small configuration suitable for smoke tests.
func QuickConfig() Config { return core.QuickConfig() }

// Fig4 compiles the global (area-scaled) detectability of a run.
func Fig4(run *Run, nonCat bool) GlobalCoverage { return core.Fig4(run, nonCat) }

// Fig3 summarises a macro's detectability combinations.
func Fig3(m *MacroRun, nonCat bool) Fig3Summary {
	return core.SummarizeFig3(core.Fig3(m, nonCat))
}

// MacroCoverage computes one macro's detection split.
func MacroCoverage(m *MacroRun, nonCat bool) GlobalCoverage {
	return core.MacroCoverage(m, nonCat)
}

// DefaultTestPlan returns the paper's production test plan (1 000-sample
// missing-code test plus six settled current measurements).
func DefaultTestPlan() TestPlan { return testgen.Default() }

// PrintMacro renders a macro run's Tables 1–3 and Fig 3 to w.
func PrintMacro(w io.Writer, m *MacroRun) {
	report.Table1(w, m)
	report.Table2(w, m)
	report.Table3(w, m)
	report.Fig3(w, m, false)
	if len(m.NonCat) > 0 {
		report.Fig3(w, m, true)
	}
}

// PrintGlobal renders a run's global coverage (Fig 4/5) to w.
func PrintGlobal(w io.Writer, title string, run *Run) {
	report.PerMacro(w, run)
	report.Global(w, title, run)
}
