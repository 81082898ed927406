package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/report"
)

// defaultSeed is core.DefaultConfig's seed; the digest pins hold there.
const defaultSeed = 1995

// workload is one closed batch run from this process.
type workload struct {
	name string
	// config returns the pipeline configuration at a seed.
	config func(seed int64) core.Config
	// dfts lists the DfT settings run, in order.
	dfts []bool
	// workers is the campaign worker count: 1 runs the serial
	// Pipeline.Run, more runs Pipeline.RunParallel on the campaign
	// engine with a fresh checkpoint directory per DfT setting.
	workers int
	// gsWorkers is Pipeline.GoodSpaceWorkers, always set explicitly.
	gsWorkers int
	// reps is the number of repetitions of a timed run, each on its own
	// inputs: about 25 s of work on a 2-CPU host.
	reps int
	// pins are the sha256 digests of report.JSON per DfT setting and
	// repetition at the default seed, one for each of the reps.
	pins map[bool][]string
}

// input names the inputs of one repetition: the run's seed and the
// repetition's index. A timed run gives every repetition its own
// inputs, so its figures average over several pipeline inputs instead
// of resting on one: one input can cost half or twice another, and the
// driver compares runs at different seeds. The same seed always gives
// the same inputs.
type input struct {
	seed int64
	rep  int
}

// configSeed is the repetition's core.Config.Seed: the run's seed for
// the first repetition, an independent stream of it for the others.
func (in input) configSeed() int64 {
	if in.rep == 0 {
		return in.seed
	}
	return core.StreamSeed(in.seed, "perfbench-rep", strconv.Itoa(in.rep))
}

// pin returns the pinned digest of the repetition's report, if any.
func (w workload) pin(in input, dft bool) (string, bool) {
	pins := w.pins[dft]
	if in.seed != defaultSeed || in.rep >= len(pins) {
		return "", false
	}
	return pins[in.rep], true
}

// quickClasses caps the analysed classes per macro of the two quick
// workloads (core.QuickConfig caps at 25). A repetition must be short
// enough that a run of the benchmark's time budget holds several, so
// the reported figures rest on several inputs.
const quickClasses = 6

// quickConfig is core.QuickConfig at the quick workloads' class cap.
func quickConfig(seed int64) core.Config {
	c := core.QuickConfig()
	c.Seed = seed
	c.MaxClassesPerMacro = quickClasses
	return c
}

// frontConfig is the front half of core.DefaultConfig: full sprinkle
// sizes and good space, two analysed classes per macro.
func frontConfig(seed int64) core.Config {
	c := core.DefaultConfig()
	c.Seed = seed
	c.MaxClassesPerMacro = 2
	return c
}

// Digest pins at the default seed, one per repetition. The pre-DfT pins
// of the two quick workloads are shared: the serial and the campaign
// engine must render the same bytes on the inputs both run.
var (
	quickPrePins = []string{
		"6588431f17ca679a0aba5515e1f4e1e7dca8600bbf43c8e480228568315e219c",
		"63f8e5040d2844ccf6a0e2dcb2b904588110810a18e42789c81a4b67bedfde80",
		"bac4b13766287fdd4d23b54cfd6617bb0c45660e22d136f0ea15ae96b4793b37",
		"ca1a616b4b36fd05d8de9760b528b7f6045961538f48db8a46a0275708541224",
		"6e5705ecd65f2f47d24b36d3e8e2a3cd9f7fa6d55713bb30b1bd43f741bd06ca",
		"2dc91db5c8715b48501526391ec3a8f426df4497bf8f0169e14bcb88221a6d34",
	}
	quickPostPins = []string{
		"8ba1470edc4363f8299d3df0b9d961277562323e9999433a9ac7d6ced449034d",
		"d864f5c1ce322f95e628d0cb41eca97a478794ed93489d141f064f397da931b5",
		"b9164f6e0165287fc8999c8196d84912f739373f3e7914aacfb4ce6be0de4f73",
		"0612c79cf1f2ddaa617460d9ecbdac72232df888d0a04f8145d011573a9d6739",
		"40ed6f28c54038ee9b31c1084ac14603bf23d42744f4542a98ccbd7f627a1d76",
	}
	frontPrePins = []string{
		"d2b98e3c868d4f5c17827f4fed6becb693343e102010e9a882d2955e00695c4c",
		"13083af3b24e7163cdf93cda1041050dd9a0e2c54bed75a21d0e5795d37d6338",
		"a89ec976aa588051cfbb776b817ccda717ddaebc40af5b809cce5870014fdcf3",
	}
	frontPostPins = []string{
		"869eeee9d057c39d8547501e3ea78e07894e2c8b7e5f2185a60a3f8a0c80bbf6",
		"2a89ddc2a3f3628a0c657f38c1861b45995d4cdf259946c9fabdf47cff190a6e",
		"90e1c58b3d3702acf0becb0c28173346f35a44424cc3ed0122599c99ad4cee2b",
	}
)

var workloads = []workload{
	{
		name:    "classify-quick8",
		config:  quickConfig,
		dfts:    []bool{false},
		workers: 1, gsWorkers: 1, reps: 6,
		pins: map[bool][]string{false: quickPrePins},
	},
	{
		name:    "front-full8",
		config:  frontConfig,
		dfts:    []bool{false, true},
		workers: 1, gsWorkers: 2, reps: 3,
		pins: map[bool][]string{false: frontPrePins, true: frontPostPins},
	},
	{
		name:    "campaign-quick8-w2",
		config:  quickConfig,
		dfts:    []bool{false, true},
		workers: 2, gsWorkers: 2, reps: 5,
		pins: map[bool][]string{false: quickPrePins, true: quickPostPins},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// iteration is the outcome of one repetition of a workload.
type iteration struct {
	// wall is set-up plus campaign; setup is NewPipeline plus GoodSpace
	// for every DfT setting.
	wall, setup time.Duration
	// cpu is user plus system CPU of the process during the repetition.
	cpu time.Duration
	// allocBytes and gcCycles are runtime.MemStats deltas.
	allocBytes uint64
	gcCycles   uint32
	// analyses counts completed class analyses; attempted and failed
	// are the error_rate accounting (see account).
	analyses, attempted, failed int
	// simErrors counts responses with SimError set.
	simErrors int
	// digests are the sha256 of report.JSON per DfT setting.
	digests  map[bool]string
	problems []string
	// classes counts the discovered fault classes.
	classes int
	// stats are the campaign engine's run metrics and ckpt the
	// checkpoint writes (campaign workload).
	stats []campaign.Stats
	ckpt  ckptStats
	// reportJSON is the time spent in report.JSON.
	reportJSON time.Duration
}

// repReport is what a child process reports of its one repetition.
type repReport struct {
	Wall      float64 `json:"wall_s"`
	Setup     float64 `json:"setup_s"`
	CPU       float64 `json:"cpu_s"`
	AllocMB   float64 `json:"alloc_mb"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	Analyses  int     `json:"analyses"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	// Digests are the report digests keyed "pre"/"post" DfT.
	Digests  map[string]string `json:"digests"`
	Problems []string          `json:"problems,omitempty"`
	// Layers is the traced repetition's per-layer table.
	Layers map[string]metric `json:"layers,omitempty"`
}

func dftName(dft bool) string {
	if dft {
		return "post"
	}
	return "pre"
}

// report summarises the repetition for the parent process.
func (it *iteration) report() *repReport {
	r := &repReport{
		Wall:      it.wall.Seconds(),
		Setup:     it.setup.Seconds(),
		CPU:       it.cpu.Seconds(),
		AllocMB:   float64(it.allocBytes) / 1e6,
		Analyses:  it.analyses,
		Attempted: it.attempted,
		Failed:    it.failed,
		Digests:   map[string]string{},
		Problems:  it.problems,
	}
	for dft, d := range it.digests {
		r.Digests[dftName(dft)] = d
	}
	return r
}

// checkSame compares the digests against a reference set (the first
// repetition, or an untraced one for the traced repetition). A mismatch
// fails every analysis of the repetition.
func (r *repReport) checkSame(ref map[string]string, what string) {
	for dft, d := range r.Digests {
		if ref[dft] != d {
			r.Failed = r.Attempted
			r.Problems = append(r.Problems, fmt.Sprintf("%s-DfT report digest %s differs from %s (%s)", dft, d, what, ref[dft]))
		}
	}
}

// runIteration runs the workload once: a fresh pipeline, the good space
// of every DfT setting, then the campaign of every DfT setting. With a
// tracer, spans are collected and the serial workloads call the
// pipeline's stages one by one in Run's canonical order.
func runIteration(w workload, in input, tr *tracer) (*iteration, error) {
	ctx := context.Background()
	it := &iteration{digests: map[bool]string{}}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := processCPU()
	start := time.Now()

	p := core.NewPipeline(w.config(in.configSeed()))
	p.GoodSpaceWorkers = w.gsWorkers
	if tr != nil {
		p.Obs = tr.observer()
	}
	for _, dft := range w.dfts {
		t := time.Now()
		if _, err := p.GoodSpace(ctx, dft); err != nil {
			return nil, fmt.Errorf("%s: good space (dft=%v): %w", w.name, dft, err)
		}
		if tr != nil {
			tr.goodspace += time.Since(t)
		}
	}
	it.setup = time.Since(start)

	for _, dft := range w.dfts {
		var run *core.Run
		var err error
		switch {
		case w.workers > 1:
			run, err = it.runCampaign(ctx, p, w, dft)
		case tr != nil:
			run, err = tr.runStages(ctx, p, dft)
		default:
			run, err = p.Run(ctx, dft)
		}
		it.finish(w, in, dft, run, err)
	}
	it.wall = time.Since(start)
	it.cpu = processCPU() - cpu0
	runtime.ReadMemStats(&ms1)
	it.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	it.gcCycles = ms1.NumGC - ms0.NumGC
	return it, nil
}

// runCampaign runs one DfT setting on the campaign engine with a fresh
// checkpoint directory, removed afterwards.
func (it *iteration) runCampaign(ctx context.Context, p *core.Pipeline, w workload, dft bool) (*core.Run, error) {
	if err := os.MkdirAll(ckptRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(ckptRoot, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	store := &timedStore{DirStore: campaign.DirStore{Dir: dir}, stats: &it.ckpt}
	run, out, err := p.RunParallel(ctx, dft, campaign.Options{Workers: w.workers, Store: store})
	if out != nil {
		it.stats = append(it.stats, out.Stats)
	}
	return run, err
}

// ckptRoot holds the campaign workload's checkpoint directories.
var ckptRoot = ".bench_build/perfbench-ckpt"

// finish renders one DfT setting's report, checks its digest and does
// the analysis accounting.
func (it *iteration) finish(w workload, in input, dft bool, run *core.Run, err error) {
	if err != nil {
		it.account(0, 0, 0, fmt.Errorf("dft=%v: %w", dft, err))
		return
	}
	t := time.Now()
	data, err := report.JSON(run)
	it.reportJSON += time.Since(t)
	if err != nil {
		it.account(0, 0, 0, fmt.Errorf("dft=%v: report: %w", dft, err))
		return
	}
	sum := sha256.Sum256(data)
	digest := hex.EncodeToString(sum[:])
	it.digests[dft] = digest
	for _, mr := range run.Macros {
		it.classes += len(mr.Classes)
	}

	expected, done, simErrors := countAnalyses(run)
	it.analyses += done
	it.simErrors += simErrors
	var mismatch error
	if pin, ok := w.pin(in, dft); ok && digest != pin {
		mismatch = fmt.Errorf("dft=%v: report digest %s, pinned %s", dft, digest, pin)
	}
	it.account(expected, expected-done, simErrors, mismatch)
}

// account adds one DfT setting's analyses to the error_rate counts.
// expected is the number of analyses the configuration asks for; lost
// of them never completed (a campaign unit out of retries) and simErrors
// completed with a failed simulation. A run error or a digest mismatch
// (runErr) fails every analysis of the setting — at least one, when the
// run died before its analyses were known.
func (it *iteration) account(expected, lost, simErrors int, runErr error) {
	if expected < 1 {
		expected = 1
	}
	it.attempted += expected
	if runErr != nil {
		it.failed += expected
		it.problems = append(it.problems, runErr.Error())
		return
	}
	f := lost + simErrors
	if f > expected {
		f = expected
	}
	if f > 0 {
		it.problems = append(it.problems, fmt.Sprintf("%d of %d analyses failed (%d lost units, %d simulation errors)", f, expected, lost, simErrors))
	}
	it.failed += f
}

// countAnalyses returns the analyses the run's configuration asks for,
// those that completed, and the completed ones whose simulation failed.
func countAnalyses(run *core.Run) (expected, done, simErrors int) {
	for _, mr := range run.Macros {
		expected += len(targets(run.Cfg, mr))
		for _, as := range [][]core.ClassAnalysis{mr.Cat, mr.NonCat} {
			for _, a := range as {
				done++
				if a.Resp != nil && a.Resp.SimError != nil {
					simErrors++
				}
			}
		}
	}
	return expected, done, simErrors
}

// target is one class analysis of a macro: class index and variant.
type target struct {
	index  int
	nonCat bool
}

// targets lists the class analyses a configuration asks for, in the
// pipeline's canonical order (as the pipeline's own unexported
// analysisTargets does): per class in descending magnitude (up to
// MaxClassesPerMacro), the catastrophic analysis and then, when the
// fault is eligible and the variant enabled, the non-catastrophic one.
func targets(cfg core.Config, mr *core.MacroRun) []target {
	n := len(mr.Classes)
	if cfg.MaxClassesPerMacro > 0 && n > cfg.MaxClassesPerMacro {
		n = cfg.MaxClassesPerMacro
	}
	var out []target
	for i := 0; i < n; i++ {
		out = append(out, target{index: i})
		if !cfg.SkipNonCat && mr.Classes[i].Fault.NonCatEligible() {
			out = append(out, target{index: i, nonCat: true})
		}
	}
	return out
}

// ckptStats adds up the checkpoint writes of a repetition.
type ckptStats struct {
	mu    sync.Mutex
	dur   time.Duration
	bytes int64
}

// timedStore decorates the campaign's checkpoint store: it times every
// Save and records the bytes it left on disk, measuring the write path
// from outside the campaign package.
type timedStore struct {
	campaign.DirStore
	stats *ckptStats
}

// Save implements campaign.Store.
func (s *timedStore) Save(ck *campaign.Checkpoint) error {
	t := time.Now()
	err := s.DirStore.Save(ck)
	dur := time.Since(t)
	// The directory holds this campaign's checkpoint and nothing else,
	// so its file sizes are the bytes this save wrote.
	n := dirBytes(s.Dir)
	s.stats.mu.Lock()
	s.stats.dur += dur
	s.stats.bytes += n
	s.stats.mu.Unlock()
	return err
}

func dirBytes(dir string) int64 {
	var n int64
	ents, _ := os.ReadDir(dir) // unreadable: counts as nothing written
	for _, e := range ents {
		if fi, err := e.Info(); err == nil && strings.HasSuffix(e.Name(), ".ckpt.json") {
			n += fi.Size()
		}
	}
	return n
}

// processCPU is the user plus system CPU time of this process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
