package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// tracer collects the traced repetition's spans in memory (an obs.Sink
// on the pipeline's Observer) and times the benchmark's own calls into
// the pipeline.
type tracer struct {
	mu    sync.Mutex
	spans []obs.Record

	// goodspace, discover and analyses time the benchmark's calls of
	// Pipeline.GoodSpace, DiscoverClasses and AnalyzeClass.
	goodspace time.Duration
	discover  time.Duration
	analyses  []callTime
}

// callTime is one timed AnalyzeClass call.
type callTime struct {
	macro string
	d     time.Duration
}

// Emit implements obs.Sink.
func (t *tracer) Emit(r *obs.Record) {
	t.mu.Lock()
	t.spans = append(t.spans, *r)
	t.mu.Unlock()
}

func (t *tracer) observer() *obs.Observer { return obs.New(t) }

// runStages is Pipeline.Run for one DfT setting, spelled out through the
// pipeline's stage entry points so each call is timed: the good space
// (compiled during set-up), every macro's class discovery, then every
// class analysis in canonical order. The Run it assembles must render
// the same bytes as Pipeline.Run's.
func (t *tracer) runStages(ctx context.Context, p *core.Pipeline, dft bool) (*core.Run, error) {
	good, err := p.GoodSpace(ctx, dft)
	if err != nil {
		return nil, err
	}
	run := &core.Run{Cfg: p.Cfg, DfT: dft, Good: good}
	for _, name := range p.MacroNames() {
		s := time.Now()
		mr, err := p.DiscoverClasses(ctx, name, dft)
		t.discover += time.Since(s)
		if err != nil {
			return nil, err
		}
		run.Macros = append(run.Macros, mr)
	}
	for _, mr := range run.Macros {
		for _, tg := range targets(p.Cfg, mr) {
			s := time.Now()
			ca, err := p.AnalyzeClass(ctx, mr.Name, mr.Classes[tg.index], tg.nonCat, dft)
			t.analyses = append(t.analyses, callTime{mr.Name, time.Since(s)})
			if err != nil {
				return nil, err
			}
			if tg.nonCat {
				mr.NonCat = append(mr.NonCat, *ca)
			} else {
				mr.Cat = append(mr.Cat, *ca)
			}
		}
	}
	return run, nil
}

// spanAnalyses derives per-analysis times from the spans, for the
// campaign workload whose AnalyzeClass calls happen inside the engine:
// one analysis is the envelope of the spans sharing its (DfT, macro,
// class) label. Spans without a class label (nominal and good-space
// simulations) and the front-half stages are not analyses.
func (t *tracer) spanAnalyses() []callTime {
	type key struct {
		dft          bool
		macro, class string
	}
	type env struct{ lo, hi time.Time }
	envs := map[key]*env{}
	for _, r := range t.spans {
		switch r.Stage {
		case obs.StageInject, obs.StageFaultSim, obs.StageClassify, obs.StageDetect:
		default:
			continue
		}
		if r.Class == "" {
			continue
		}
		k := key{r.DfT, r.Macro, r.Class}
		end := r.Start.Add(r.Dur)
		e := envs[k]
		if e == nil {
			envs[k] = &env{r.Start, end}
			continue
		}
		if r.Start.Before(e.lo) {
			e.lo = r.Start
		}
		if end.After(e.hi) {
			e.hi = end
		}
	}
	var out []callTime
	for k, e := range envs {
		out = append(out, callTime{k.macro, e.hi.Sub(e.lo)})
	}
	return out
}

// tracedBaseReps is the number of untraced repetitions a traced run
// makes before its traced one, for obs.trace_overhead_s.
const tracedBaseReps = 3

// runTraced makes tracedBaseReps untraced repetitions, then one traced
// repetition, all on the first repetition's inputs, and reports the
// traced repetition's per-layer metrics. The traced repetition must
// render the same bytes as the untraced ones.
func runTraced(w workload, seed int64, seconds float64, outDir string) (result, error) {
	header(w, seed, seconds, 1, tracedBaseReps+1)
	start := time.Now()
	reps, err := repeat(w, seed, tracedBaseReps, false)
	if err != nil {
		return result{}, err
	}
	traced, err := spawn(w, input{seed: seed}, true, outDir)
	if err != nil {
		return result{}, err
	}
	checkBudget(start, seconds)
	traced.checkSame(reps[0].Digests, "the untraced run")
	res := result{Correct: true, Metrics: traced.Layers}
	var walls []float64
	for _, r := range reps {
		walls = append(walls, r.Wall)
		res.add(r)
	}
	res.add(traced)
	res.Metrics["obs.trace_overhead_s"] = metric{traced.Wall - median(walls), "s"}
	printLayers(res.Metrics)
	return res, nil
}

// runChild runs one repetition in this process. A traced repetition
// collects the spans in memory and takes a CPU profile of the process;
// the spans, the profile and the layer table go to a directory under
// outDir, and the table into the report.
func runChild(w workload, in input, traced bool, outDir string) (*repReport, error) {
	if !traced {
		it, err := runIteration(w, in, nil)
		if err != nil {
			return nil, err
		}
		return it.report(), nil
	}
	dir := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", w.name, in.seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	profile := filepath.Join(dir, "cpu.pprof")
	pf, err := os.Create(profile)
	if err != nil {
		return nil, err
	}
	defer pf.Close()
	tr := &tracer{}
	if err := pprof.StartCPUProfile(pf); err != nil {
		return nil, err
	}
	it, err := runIteration(w, in, tr)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	if err := pf.Close(); err != nil {
		return nil, err
	}
	fold, err := foldProfileFile(profile)
	if err != nil {
		return nil, err
	}
	r := it.report()
	r.Layers = layerMetrics(w, it, tr, fold)
	if err := writeTrace(dir, tr, r.Layers); err != nil {
		return nil, err
	}
	return r, nil
}

// leafStages are the stages whose spans nest no other span: counter
// deltas summed over them count each unit of work once (classify spans
// enclose the bisection's inject/faultsim spans, goodspace spans enclose
// their dies, and a die encloses its macro simulations).
var leafStages = map[string]bool{
	obs.StageSprinkle: true, obs.StageCollapse: true, obs.StageInject: true,
	obs.StageFaultSim: true, obs.StageDetect: true,
}

// macroNames are the pipeline's macros, in pipeline order.
var macroNames = []string{"comparator", "ladder", "biasgen", "clockgen", "decoder"}

// layerMetrics assembles the per-layer table of the traced repetition.
func layerMetrics(w workload, it *iteration, tr *tracer, fold map[string]float64) map[string]metric {
	m := map[string]metric{}
	sec := func(name string, d time.Duration) { m[name] = metric{d.Seconds(), "s"} }
	count := func(name string, n int64) { m[name] = metric{float64(n), "count"} }
	ratio := func(name string, num, den int64) {
		v := 0.0
		if den > 0 {
			v = float64(num) / float64(den)
		}
		m[name] = metric{v, "ratio"}
	}

	// core: the benchmark's own calls (spans for the campaign engine).
	calls := tr.analyses
	discover := tr.discover
	stage := map[string]time.Duration{}
	byMacro := map[string]time.Duration{}
	var ctr [obs.NumCounters]int64
	for _, r := range tr.spans {
		stage[r.Stage] += r.Dur
		byMacro[r.Stage+"."+r.Macro] += r.Dur
		if leafStages[r.Stage] {
			for i, n := range r.Counters {
				ctr[i] += n
			}
		}
	}
	if w.workers > 1 {
		calls = tr.spanAnalyses()
		discover = stage[obs.StageSprinkle] + stage[obs.StageCollapse]
	}
	sec("core.goodspace_s", tr.goodspace)
	sec("core.discover_s", discover)
	var total time.Duration
	perMacro := map[string]time.Duration{}
	var ms []float64
	for _, c := range calls {
		total += c.d
		perMacro[c.macro] += c.d
		ms = append(ms, float64(c.d)/1e6)
	}
	sec("core.analyze_s", total)
	for _, name := range macroNames {
		sec("core.analyze_s."+name, perMacro[name])
	}
	m["core.analyze_ms.p50"] = metric{percentile(ms, 50), "ms"}
	m["core.analyze_ms.p95"] = metric{percentile(ms, 95), "ms"}
	count("core.analyses", int64(len(calls)))

	// macros, spice, netlist, solver, defectsim, faults, signature:
	// stage times and counters from the spans.
	sec("macros.classify_s.comparator", byMacro[obs.StageClassify+".comparator"])
	sec("macros.classify_s.biasgen", byMacro[obs.StageClassify+".biasgen"])
	for _, name := range macroNames {
		sec("macros.faultsim_s."+name, byMacro[obs.StageFaultSim+"."+name])
	}
	sec("macros.inject_s", stage[obs.StageInject])
	sec("macros.goodspace_die_s", stage[obs.StageGoodSpaceDie])
	get := func(c obs.Counter) int64 { return ctr[c] }
	count("macros.rebind_hits", get(obs.CtrRebindHits))
	count("macros.full_rebuilds", get(obs.CtrFullRebuilds))
	ratio("macros.rebind_ratio", get(obs.CtrRebindHits), get(obs.CtrRebindHits)+get(obs.CtrFullRebuilds))
	count("macros.baseline_cache_hits", get(obs.CtrBaselineCacheHits))

	count("spice.newton_iters", get(obs.CtrNewtonIters))
	count("spice.gmin_retries", get(obs.CtrGminRetries))
	count("spice.source_retries", get(obs.CtrSourceRetries))
	count("spice.sim_failures", int64(it.simErrors))
	count("netlist.pattern_reuse_hits", get(obs.CtrPatternReuse))

	count("solver.lu_solves", get(obs.CtrLUSolves))
	count("solver.sparse_factor_hits", get(obs.CtrSparseFactorHits))
	count("solver.dense_fallbacks", get(obs.CtrDenseFallbacks))
	ratio("solver.sparse_hit_ratio", get(obs.CtrSparseFactorHits), get(obs.CtrSparseFactorHits)+get(obs.CtrDenseFallbacks))
	count("solver.rank1_solves", get(obs.CtrRank1Solves))
	count("solver.rank1_fallbacks", get(obs.CtrRank1Fallbacks))

	sprinkle := stage[obs.StageSprinkle]
	sec("defectsim.sprinkle_s", sprinkle)
	count("defectsim.draws", get(obs.CtrSprinkleDraws))
	drawRate := 0.0
	if sprinkle > 0 {
		drawRate = float64(get(obs.CtrSprinkleDraws)) / sprinkle.Seconds()
	}
	m["defectsim.draws_per_s"] = metric{drawRate, "1/s"}

	sec("faults.collapse_s", stage[obs.StageCollapse])
	count("faults.classes", int64(it.classes))
	count("faults.classes_truncated", get(obs.CtrClassesTruncated))
	sec("signature.detect_s", stage[obs.StageDetect])
	sec("report.json_s", it.reportJSON)

	// campaign: the engine's own run metrics plus the checkpoint store
	// decorator (all zero on the serial workloads).
	var busy, capacity float64
	var steals, retries, failed, ckpts int64
	for _, s := range it.stats {
		busy += s.BusyMS
		capacity += s.WallMS * float64(s.Workers)
		steals += int64(s.Steals)
		retries += int64(s.Retries)
		failed += int64(s.Failed)
		ckpts += int64(s.Checkpoints)
	}
	util := 0.0
	if capacity > 0 {
		util = busy / capacity
	}
	m["campaign.utilization"] = metric{util, "ratio"}
	count("campaign.steals", steals)
	count("campaign.retries", retries)
	count("campaign.failed_units", failed)
	count("campaign.checkpoints", ckpts)
	mb := float64(it.ckpt.bytes) / 1e6
	m["campaign.checkpoint_mb"] = metric{mb, "MB"}
	saveRate := 0.0
	if it.ckpt.dur > 0 {
		saveRate = mb / it.ckpt.dur.Seconds()
	}
	m["campaign.checkpoint_mb_per_s"] = metric{saveRate, "MB/s"}

	// Go runtime.
	count("runtime.gc_cycles", int64(it.gcCycles))

	// CPU fold of the traced repetition's profile: each layer's share of
	// the samples, applied to the repetition's measured CPU time. The
	// samples are 10 ms apart; the measured time is exact, and the
	// layers still sum to it.
	cpu := it.cpu.Seconds()
	for _, l := range foldLayers {
		m[l] = metric{fold[l] / fold[profileTotal] * cpu, "s"}
	}
	m["profile.cpu_s"] = metric{cpu, "s"}
	return m
}

// writeTrace writes the spans (one obs.WireRecord JSON object a line)
// and the layer table into dir.
func writeTrace(dir string, tr *tracer, m map[string]metric) error {
	f, err := os.Create(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	var epoch time.Time
	if len(tr.spans) > 0 {
		epoch = tr.spans[0].Start
		for _, r := range tr.spans {
			if r.Start.Before(epoch) {
				epoch = r.Start
			}
		}
	}
	for i := range tr.spans {
		if err := enc.Encode(tr.spans[i].Wire(epoch)); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	table := struct {
		GOMAXPROCS int               `json:"gomaxprocs"`
		NumCPU     int               `json:"nproc"`
		Metrics    map[string]metric `json:"metrics"`
	}{runtime.GOMAXPROCS(0), runtime.NumCPU(), m}
	data, err := json.MarshalIndent(table, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "layers.json"), data, 0o644)
}

// printLayers prints the per-layer table, one metric a line.
func printLayers(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-34s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}
