// Benchmark harness: one testing.B target per table and figure of the
// paper's evaluation, plus ablation benches for the design choices
// DESIGN.md calls out. Run with
//
//	go test -bench=. -benchmem
//
// Each bench logs the regenerated rows (visible with -v); the expensive
// pipeline runs are shared across benches through lazy caches so the full
// suite completes in minutes on one core. Absolute numbers come from the
// synthetic substrate; the paper-comparable shapes are recorded in
// EXPERIMENTS.md.
package repro_test

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"repro"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/defectsim"
	"repro/internal/faults"
	"repro/internal/kernelbench"
	"repro/internal/macros"
	"repro/internal/netlist"
	"repro/internal/process"
	"repro/internal/report"
	"repro/internal/spectest"
	"repro/internal/spice"
)

// benchCfg is the shared mid-fidelity configuration: large enough to be
// statistically meaningful, small enough for a single-core bench run.
func benchCfg() core.Config {
	cfg := core.DefaultConfig()
	cfg.Defects = 6000
	cfg.MagnitudeDefects = 30000
	cfg.MCSamples = 18
	cfg.MaxClassesPerMacro = 45
	return cfg
}

var (
	benchOnce sync.Once
	benchPre  *core.Run
	benchPost *core.Run
	benchErr  error
)

// benchRuns lazily executes the full pipeline once for both DfT settings.
func benchRuns(b *testing.B) (*core.Run, *core.Run) {
	b.Helper()
	benchOnce.Do(func() {
		p := core.NewPipeline(benchCfg())
		benchPre, benchErr = p.Run(context.Background(), false)
		if benchErr != nil {
			return
		}
		benchPost, benchErr = p.Run(context.Background(), true)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchPre, benchPost
}

// logTable renders with the report package into the bench log.
func logTable(b *testing.B, render func(buf *bytes.Buffer)) {
	var buf bytes.Buffer
	render(&buf)
	b.Log("\n" + buf.String())
}

// BenchmarkTable1ComparatorFaults regenerates Table 1: catastrophic
// faults and fault classes for the comparator by mechanism.
func BenchmarkTable1ComparatorFaults(b *testing.B) {
	pre, _ := benchRuns(b)
	cmp := pre.Macro("comparator")
	logTable(b, func(buf *bytes.Buffer) { report.Table1(buf, cmp) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.Table1(cmp)
	}
}

// BenchmarkTable2VoltageSignatures regenerates Table 2: the voltage
// fault-signature distribution of the comparator.
func BenchmarkTable2VoltageSignatures(b *testing.B) {
	pre, _ := benchRuns(b)
	cmp := pre.Macro("comparator")
	logTable(b, func(buf *bytes.Buffer) { report.Table2(buf, cmp) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = core.Table2(cmp)
	}
}

// BenchmarkTable3CurrentSignatures regenerates Table 3: the current
// fault-signature distribution of the comparator.
func BenchmarkTable3CurrentSignatures(b *testing.B) {
	pre, _ := benchRuns(b)
	cmp := pre.Macro("comparator")
	logTable(b, func(buf *bytes.Buffer) { report.Table3(buf, cmp) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = core.Table3(cmp)
	}
}

// BenchmarkFig3ComparatorDetectability regenerates Fig 3: the
// detection-mechanism grid for comparator faults.
func BenchmarkFig3ComparatorDetectability(b *testing.B) {
	pre, _ := benchRuns(b)
	cmp := pre.Macro("comparator")
	logTable(b, func(buf *bytes.Buffer) {
		report.Fig3(buf, cmp, false)
		report.Fig3(buf, cmp, true)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.SummarizeFig3(core.Fig3(cmp, false))
	}
}

// BenchmarkFig4GlobalDetectability regenerates Fig 4: the global
// (area-scaled) detectability before DfT.
func BenchmarkFig4GlobalDetectability(b *testing.B) {
	pre, _ := benchRuns(b)
	logTable(b, func(buf *bytes.Buffer) {
		report.PerMacro(buf, pre)
		report.Global(buf, "Fig 4: global detectability", pre)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.Fig4(pre, false)
		_ = core.Fig4(pre, true)
	}
}

// BenchmarkFig5DfTDetectability regenerates Fig 5: global detectability
// after the two DfT measures.
func BenchmarkFig5DfTDetectability(b *testing.B) {
	pre, post := benchRuns(b)
	logTable(b, func(buf *bytes.Buffer) {
		report.PerMacro(buf, post)
		report.Global(buf, "Fig 5: global detectability after DfT", post)
		fmt.Fprintf(buf, "coverage before DfT: %.1f%%  after DfT: %.1f%%\n",
			core.Fig4(pre, false).Total(), core.Fig4(post, false).Total())
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.Fig4(post, false)
	}
}

// BenchmarkTestTime regenerates the paper's test-time estimate: the
// 1 000-sample missing-code test plus six settled current measurements.
func BenchmarkTestTime(b *testing.B) {
	plan := repro.DefaultTestPlan()
	b.Logf("test plan: %s", plan)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = plan.Total()
	}
}

// BenchmarkMacroCurrentDetectability regenerates the §3.3 per-macro
// current-detectability quotes (clock generator 93.8 %, ladder 99.8 %).
func BenchmarkMacroCurrentDetectability(b *testing.B) {
	pre, _ := benchRuns(b)
	logTable(b, func(buf *bytes.Buffer) {
		for _, m := range pre.Macros {
			fmt.Fprintf(buf, "%-12s current-detectable %5.1f%%\n",
				m.Name, core.CurrentDetectability(m, false))
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range pre.Macros {
			_ = core.CurrentDetectability(m, false)
		}
	}
}

// BenchmarkAblationDefectCount measures class discovery saturation: how
// the number of distinct fault classes grows with the sprinkle size (the
// reason the paper used 25 000 defects for discovery and 10 000 000 for
// magnitudes).
func BenchmarkAblationDefectCount(b *testing.B) {
	var buf bytes.Buffer
	p := core.NewPipeline(core.QuickConfig())
	for _, n := range []int{1000, 4000, 16000} {
		cfg := core.QuickConfig()
		cfg.Defects = n
		cfg.MaxClassesPerMacro = 1 // discovery stats only
		pp := core.NewPipeline(cfg)
		run, err := pp.RunMacro(context.Background(), "comparator", false)
		if err != nil {
			b.Fatal(err)
		}
		fmt.Fprintf(&buf, "%6d defects -> %4d faults -> %3d classes\n",
			run.DiscoveryDefects, run.DiscoveryFaults, len(run.Classes))
	}
	b.Log("\n" + buf.String())
	_ = p
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := core.QuickConfig()
		cfg.Defects = 1000
		cfg.MaxClassesPerMacro = 1
		pp := core.NewPipeline(cfg)
		if _, err := pp.RunMacro(context.Background(), "ladder", false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSigmaThreshold re-evaluates detection at 2σ/3σ/4σ
// bounds: tighter bounds catch more faults but risk yield loss — the
// methodology's key tuning knob.
func BenchmarkAblationSigmaThreshold(b *testing.B) {
	pre, _ := benchRuns(b)
	var buf bytes.Buffer
	good := pre.Good
	for _, ns := range []float64{2, 3, 4} {
		good.NSigma = ns
		detected := 0.0
		total := 0.0
		for _, m := range pre.Macros {
			for _, a := range m.Cat {
				total += float64(a.Class.Count)
				ivdd, iddq, iin := good.Detect(a.Chip)
				if a.Det.Missing || ivdd || iddq || iin {
					detected += float64(a.Class.Count)
				}
			}
		}
		fmt.Fprintf(&buf, "nσ=%.0f: covered %.1f%%\n", ns, 100*detected/total)
	}
	good.NSigma = 3
	b.Log("\n" + buf.String())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range pre.Macros {
			for _, a := range m.Cat {
				_, _, _ = good.Detect(a.Chip)
			}
		}
	}
}

// BenchmarkAblationNoIDDQ recomputes global coverage with the IDDQ
// mechanism removed — the paper's observation that many mixed-signal
// faults are only visible in the digital part's quiescent current.
func BenchmarkAblationNoIDDQ(b *testing.B) {
	pre, _ := benchRuns(b)
	var buf bytes.Buffer
	with := core.Fig4(pre, false).Total()
	without := coverageWithout(pre, "iddq")
	noIin := coverageWithout(pre, "iin")
	fmt.Fprintf(&buf, "full test: %.1f%%  without IDDQ: %.1f%%  without Iinput: %.1f%%\n",
		with, without, noIin)
	b.Log("\n" + buf.String())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = coverageWithout(pre, "iddq")
	}
}

// coverageWithout recomputes global coverage with one current mechanism
// disabled.
func coverageWithout(run *core.Run, drop string) float64 {
	var det, total float64
	for _, m := range run.Macros {
		w := m.Weight()
		mag := 0.0
		for _, a := range m.Cat {
			mag += float64(a.Class.Count)
		}
		if mag == 0 {
			continue
		}
		for _, a := range m.Cat {
			d := a.Det
			switch drop {
			case "iddq":
				d.IDDQ = false
			case "iin":
				d.Iin = false
			case "ivdd":
				d.IVdd = false
			}
			total += w * float64(a.Class.Count) / mag
			if d.Any() {
				det += w * float64(a.Class.Count) / mag
			}
		}
	}
	if total == 0 {
		return 0
	}
	return 100 * det / total
}

// BenchmarkAblationSpice measures the raw analog fault-simulation cost:
// one full two-cycle comparator transient per iteration.
func BenchmarkAblationSpice(b *testing.B) {
	m := macros.NewComparator(macros.DefaultVehicle())
	opt := macros.RespondOpts{Var: macros.Nominal(), CurrentsOnly: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Respond(context.Background(), nil, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSolver measures the raw DC solve cost on a CMOS
// circuit (the inner loop of every analysis).
func BenchmarkAblationSolver(b *testing.B) {
	bld := netlist.NewBuilder()
	bld.Vsrc("vdd", "vdd", "0", netlist.DC(5))
	in := "vdd"
	for i := 0; i < 20; i++ {
		out := fmt.Sprintf("n%d", i)
		bld.PMOS(fmt.Sprintf("p%d", i), out, in, "vdd", "vdd", 8, 1)
		bld.NMOS(fmt.Sprintf("n%dm", i), out, in, "0", 4, 1)
		in = out
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spice.New(bld.C, spice.DefaultOptions()).OP(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselineSpecTest compares the defect-oriented simple test
// against the specification-oriented baseline — the paper's §1/§4 claim:
// higher defect coverage at lower test cost.
func BenchmarkBaselineSpecTest(b *testing.B) {
	pre, _ := benchRuns(b)
	simple := repro.DefaultTestPlan().Total().Seconds()
	spec := spectest.DefaultPlan().Total().Seconds()
	cmp := core.CompareBaseline(pre, simple, spec)
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "defect-oriented simple test: %5.1f%% coverage in %7.0f µs\n",
		cmp.SimpleCoverage, cmp.SimpleTestSeconds*1e6)
	fmt.Fprintf(&buf, "specification test baseline: %5.1f%% coverage in %7.0f µs\n",
		cmp.SpecCoverage, cmp.SpecTestSeconds*1e6)
	b.Log("\n" + buf.String())
	if cmp.SpecCoverage > cmp.SimpleCoverage {
		b.Log("NOTE: baseline beat the simple test on this run (shape deviation)")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.SpecCoverage(pre, false, spectest.DefaultLimits())
	}
}

// BenchmarkAblationBridgeResistance sweeps the bridge-resistance of a
// hard-to-detect fault (the adjacent-tap ladder short) to locate the
// detection threshold — the boundary between the catastrophic and
// near-miss regimes the paper's non-catastrophic model probes.
func BenchmarkAblationBridgeResistance(b *testing.B) {
	cfg := core.QuickConfig()
	cfg.MCSamples = 10
	p := core.NewPipeline(cfg)
	var buf bytes.Buffer
	for _, r := range []float64{0.2, 2, 25, 250, 2500} {
		c := faults.Class{
			Fault: faults.Fault{Kind: faults.Short, Nets: []string{"t096", "t128"}, Res: r},
			Count: 1,
		}
		a, err := p.AnalyzeClass(context.Background(), "ladder", c, false, false)
		if err != nil {
			b.Fatal(err)
		}
		fmt.Fprintf(&buf, "bridge %7.1f Ω: missing-code=%-5v Iinput=%-5v\n",
			r, a.Det.Missing, a.Det.Iin)
	}
	b.Log("\n" + buf.String())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := faults.Class{
			Fault: faults.Fault{Kind: faults.Short, Nets: []string{"t096", "t128"}, Res: 25},
			Count: 1,
		}
		if _, err := p.AnalyzeClass(context.Background(), "ladder", c, false, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkYieldAndDefectLevel connects the coverage numbers to shipped
// quality: the Poisson yield model (VLASIC's original purpose) and the
// Williams–Brown defect level at the paper's pre/post-DfT coverages.
func BenchmarkYieldAndDefectLevel(b *testing.B) {
	proc := process.Default()
	y := defectsim.NewYieldModel(120) // defects/cm²
	for _, m := range []macros.Macro{
		macros.NewComparator(macros.DefaultVehicle()), macros.NewLadder(macros.DefaultVehicle()), macros.NewBiasgen(macros.NewComparator(macros.DefaultVehicle())),
		macros.NewClockgen(macros.DefaultVehicle()), macros.NewDecoder(macros.DefaultVehicle()),
	} {
		y.AddMacro(context.Background(), m.Layout(false), proc, m.Count(), 4000, 1995)
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "critical area %.3g µm², λ=%.3g, yield %.1f%%\n",
		y.CriticalArea(), y.Lambda(), 100*y.Yield())
	fmt.Fprintf(&buf, "defect level at 93.3%% coverage (pre-DfT):  %6.0f DPM\n", y.DefectLevel(0.933))
	fmt.Fprintf(&buf, "defect level at 99.1%% coverage (post-DfT): %6.0f DPM\n", y.DefectLevel(0.991))
	b.Log("\n" + buf.String())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = y.DefectLevel(0.933)
	}
}

// BenchmarkExtensionACTest exercises the AC-measurement extension: the
// comparator's amplify-path gain/bandwidth, which exposes clock-value
// faults the simple DC tests miss.
func BenchmarkExtensionACTest(b *testing.B) {
	m := macros.NewComparator(macros.DefaultVehicle())
	opt := macros.RespondOpts{Var: macros.Nominal()}
	nom, err := m.AmplifierAC(context.Background(), nil, opt)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "nominal amplifier: %.1f dB, BW %.3g Hz\n", nom.GainDB, nom.Bandwidth3dB)
	for _, r := range []float64{2000, 1200, 800} {
		f := &faults.Fault{Kind: faults.ThickOxPinhole, Nets: []string{"clk1", "vss"}, Res: r}
		res, err := m.AmplifierAC(context.Background(), f, opt)
		if err != nil {
			b.Fatal(err)
		}
		fmt.Fprintf(&buf, "clk1 load %5.0f Ω: %.1f dB, BW %.3g Hz, AC-detected=%v\n",
			r, res.GainDB, res.Bandwidth3dB, macros.ACDeviates(nom, res, 1, 0.3))
	}
	b.Log("\n" + buf.String())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.AmplifierAC(context.Background(), nil, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernel runs the analog-kernel suite of internal/kernelbench:
// the solver, operating-point, transient and fault-class-analysis hot
// paths, with allocation reporting. cmd/benchkernel executes the same
// cases and archives them as BENCH_kernel.json (see EXPERIMENTS.md).
func BenchmarkKernel(b *testing.B) {
	for _, c := range kernelbench.Cases() {
		b.Run(c.Name, c.Bench)
	}
}

// campaignBenchCfg is the QuickConfig-scale workload the campaign
// speedup is measured on: every macro, three classes each, catastrophic
// path only — the per-class units dominate, which is the parallel axis.
func campaignBenchCfg() core.Config {
	cfg := core.QuickConfig()
	cfg.Defects = 1200
	cfg.MCSamples = 5
	cfg.MaxClassesPerMacro = 3
	cfg.SkipNonCat = true
	return cfg
}

// BenchmarkCampaignSerial is the baseline: the plain serial pipeline on
// the campaign workload.
func BenchmarkCampaignSerial(b *testing.B) {
	cfg := campaignBenchCfg()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewPipeline(cfg).Run(context.Background(), false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampaignParallel runs the same workload through the
// work-stealing campaign engine at 4 workers. The speedup over
// BenchmarkCampaignSerial scales with available cores (the container the
// numbers in EXPERIMENTS.md come from has GOMAXPROCS=1, so they show
// engine overhead, not speedup; see EXPERIMENTS.md).
func BenchmarkCampaignParallel(b *testing.B) {
	cfg := campaignBenchCfg()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, out, err := core.NewPipeline(cfg).RunParallel(context.Background(), false,
			campaign.Options{Workers: 4})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("units=%d utilization=%.2f steals=%d",
				out.Stats.UnitsTotal, out.Stats.Utilization, out.Stats.Steals)
		}
	}
}
