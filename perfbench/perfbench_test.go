package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
)

func TestLayerOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"repro/internal/spice.(*Engine).assemble", "repro/internal/spice.(*Engine).newton"}, layerAssemble},
		{[]string{"math.Exp", "math.Tanh", "repro/internal/netlist.(*thMemo).tanh", "repro/internal/netlist.(*MOSFET).Stamp"}, layerMOSFET},
		{[]string{"repro/internal/netlist.(*StampProgram).Stamp"}, layerAssemble},
		{[]string{"runtime.memmove", "repro/internal/solver.(*SparseLU).refactorSparse"}, layerFactor},
		{[]string{"repro/internal/solver.(*SparseLU).SolveInto"}, layerSolve},
		{[]string{"runtime.memclrNoHeapPointers", "repro/internal/solver.(*Matrix).Zero", "repro/internal/spice.(*Engine).assemble"}, layerAssemble},
		{[]string{"repro/internal/solver.(*Matrix).Add", "repro/internal/netlist.(*MOSFET).Stamp"}, layerMOSFET},
		{[]string{"repro/internal/solver.(*Matrix).At", "repro/internal/solver.(*LU).Refactor"}, layerFactor},
		{[]string{"repro/internal/solver.(*Pattern).Mark", "repro/internal/netlist.(*StampProgram).Stamp"}, layerAssemble},
		{[]string{"repro/internal/digital.(*program).eval"}, layerDigital},
		{[]string{"repro/internal/adc.(*ADC).MissingCodeTest"}, layerDigital},
		{[]string{"repro/internal/geom.Rect.Intersect", "repro/internal/defectsim.(*Sim).Sprinkle"}, layerDefect},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, layerGC},
		{[]string{"runtime.mallocgc", "runtime.gcAssistAlloc", "repro/internal/solver.NewSparseLU"}, layerGC},
		{[]string{"repro/internal/spice.(*Engine).newton"}, layerOther},
		{[]string{"encoding/json.Marshal"}, layerOther},
		{[]string{"runtime.futex", "runtime.schedule"}, layerOther},
		{nil, layerOther},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// TestFoldSumsToTotal checks that the layers partition the profile.
func TestFoldSumsToTotal(t *testing.T) {
	samples := []sample{
		{[]string{"math.Exp", "repro/internal/netlist.(*MOSFET).Stamp"}, 30e6},
		{[]string{"repro/internal/solver.(*LU).SolveInto"}, 10e6},
		{[]string{"runtime.gcBgMarkWorker"}, 20e6},
		{[]string{"main.main"}, 40e6},
	}
	f := fold(samples)
	checkFoldTotal(t, f)
	if f[profileTotal] != 0.1 || f[layerMOSFET] != 0.03 || f[layerOther] != 0.04 {
		t.Errorf("fold = %v", f)
	}
}

func checkFoldTotal(t *testing.T, f map[string]float64) {
	t.Helper()
	sum := 0.0
	for _, l := range foldLayers {
		sum += f[l]
	}
	if math.Abs(sum-f[profileTotal]) > 1e-9*math.Max(1, f[profileTotal]) {
		t.Errorf("layers sum to %g s, profile total %g s", sum, f[profileTotal])
	}
}

// spin burns CPU in a math-heavy loop for d.
func spin(d time.Duration) float64 {
	x := 0.0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += math.Tanh(float64(i) * 1e-3)
		}
	}
	return x
}

// TestParseProfile folds a real runtime/pprof CPU profile.
func TestParseProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := parseProfile(raw)
	if err != nil {
		t.Fatal(err)
	}
	spun := false
	for _, s := range samples {
		for _, fn := range s.stack {
			if fn == "repro/perfbench.spin" {
				spun = true
			}
		}
	}
	if !spun {
		t.Errorf("no sample of %d names repro/perfbench.spin", len(samples))
	}
	fd := fold(samples)
	checkFoldTotal(t, fd)
	if fd[profileTotal] < 0.1 {
		t.Errorf("profile total %g s for 0.3 s of spinning", fd[profileTotal])
	}
}

// TestErrorRateAccounting checks that a run error or a digest mismatch
// fails every analysis of the repetition, and that lost units and
// simulation errors count one each.
func TestErrorRateAccounting(t *testing.T) {
	it := &iteration{}
	it.account(10, 1, 2, nil)
	if it.attempted != 10 || it.failed != 3 {
		t.Errorf("lost+simerror: attempted %d failed %d, want 10 3", it.attempted, it.failed)
	}
	it.account(20, 0, 0, errors.New("digest mismatch"))
	if it.attempted != 30 || it.failed != 23 {
		t.Errorf("mismatch: attempted %d failed %d, want 30 23", it.attempted, it.failed)
	}
	it.account(0, 0, 0, errors.New("run died"))
	if it.attempted != 31 || it.failed != 24 {
		t.Errorf("run error: attempted %d failed %d, want 31 24", it.attempted, it.failed)
	}

	r := &repReport{Attempted: 60, Digests: map[string]string{"pre": "aa", "post": "bb"}}
	r.checkSame(map[string]string{"pre": "aa", "post": "bb"}, "ref")
	if r.Failed != 0 {
		t.Errorf("equal digests failed %d analyses", r.Failed)
	}
	r.checkSame(map[string]string{"pre": "aa", "post": "cc"}, "ref")
	if r.Failed != r.Attempted {
		t.Errorf("forced mismatch failed %d of %d analyses", r.Failed, r.Attempted)
	}
	res := result{Correct: true}
	res.add(r)
	if res.Correct || res.Failed != 60 || res.Attempted != 60 {
		t.Errorf("result after mismatch = %+v", res)
	}
}

// TestPinsCoverReps checks that every repetition of a timed run at the
// default seed has a pinned digest for each DfT setting.
func TestPinsCoverReps(t *testing.T) {
	for _, w := range workloads {
		if w.reps < 3 {
			t.Errorf("%s: %d repetitions, want at least 3", w.name, w.reps)
		}
		for _, dft := range w.dfts {
			for k := 0; k < w.reps; k++ {
				if _, ok := w.pin(input{defaultSeed, k}, dft); !ok {
					t.Errorf("%s: no %s-DfT pin for repetition %d", w.name, dftName(dft), k)
				}
			}
		}
	}
}

// spec is the part of BENCHMARK.json the tests check.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestMetricNames checks that the metrics the benchmark prints are
// exactly those BENCHMARK.json declares, with the declared units, and
// that every name is well formed.
func TestMetricNames(t *testing.T) {
	s := readSpec(t)
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

	e2e := endToEnd([]*repReport{{Wall: 2, Setup: 1, Analyses: 4}})
	checkNames(t, "end_to_end", e2e, s.EndToEnd, valid)

	layers := layerMetrics(workloads[0], &iteration{}, &tracer{}, fold(nil))
	layers["obs.trace_overhead_s"] = metric{0, "s"}
	checkNames(t, "per_layer", layers, s.PerLayer, valid)

	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not defined", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json names %v, benchmark defines %s", names, workloadNames())
	}
}

func checkNames(t *testing.T, kind string, got map[string]metric, want []struct{ Name, Unit string }, valid *regexp.Regexp) {
	t.Helper()
	seen := map[string]bool{}
	for _, m := range want {
		if !valid.MatchString(m.Name) {
			t.Errorf("%s metric name %q is malformed", kind, m.Name)
		}
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s metric %s is declared but not reported", kind, m.Name)
		case g.Unit != m.Unit:
			t.Errorf("%s metric %s: unit %s, declared %s", kind, m.Name, g.Unit, m.Unit)
		}
		seen[m.Name] = true
	}
	var extra []string
	for n := range got {
		if !seen[n] {
			extra = append(extra, n)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		t.Errorf("%s metrics reported but not declared: %v", kind, extra)
	}
}

// TestQuickConfigPin runs the full core.QuickConfig campaign (25 classes
// per macro) through the benchmark's repetition and checks the digest
// EXPERIMENTS.md quotes for it.
func TestQuickConfigPin(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick campaign")
	}
	w := workload{
		name: "quick8-full", config: func(seed int64) core.Config {
			c := core.QuickConfig()
			c.Seed = seed
			return c
		},
		dfts: []bool{false}, workers: 1, gsWorkers: 1,
		pins: map[bool][]string{false: {"2255c074fb06aa8cf2ed831c87a4d28612d409e9f2191e56dee5047c04ba1f09"}},
	}
	it, err := runIteration(w, input{seed: defaultSeed}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if it.failed != 0 || it.attempted != 235 {
		t.Errorf("attempted %d failed %d, want 235 0: %v", it.attempted, it.failed, it.problems)
	}
}

// TestSerialCampaignAgree checks at a seed without pins that the serial
// path, the stage-by-stage traced path and the campaign engine render
// the same bytes.
func TestSerialCampaignAgree(t *testing.T) {
	ckptRoot = t.TempDir()
	small := func(seed int64) core.Config {
		c := quickConfig(seed)
		c.MaxClassesPerMacro = 2
		return c
	}
	serial := workload{name: "serial", config: small, dfts: []bool{false, true}, workers: 1, gsWorkers: 1}
	parallel := serial
	parallel.workers, parallel.gsWorkers = 2, 2
	in := input{seed: 7, rep: 1}

	var digests []map[string]string
	for _, c := range []struct {
		w  workload
		tr *tracer
	}{{serial, nil}, {serial, &tracer{}}, {parallel, nil}} {
		it, err := runIteration(c.w, in, c.tr)
		if err != nil {
			t.Fatal(err)
		}
		if it.failed != 0 || it.attempted == 0 {
			t.Fatalf("attempted %d failed %d: %v", it.attempted, it.failed, it.problems)
		}
		digests = append(digests, it.report().Digests)
	}
	for i, d := range digests[1:] {
		r := &repReport{Attempted: 1, Digests: d}
		r.checkSame(digests[0], "serial")
		if r.Failed != 0 {
			t.Errorf("path %d: %v", i+1, r.Problems)
		}
	}
}
