// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload of the defect-oriented test pipeline in this process,
// repeats it a fixed number of times, checks the report bytes of every
// repetition against pinned digests, and prints the metrics as one JSON
// line.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload classify-quick8 --seed 1995 --seconds 30 --trace 0
//
// With --trace 0 every repetition runs with tracing off and the
// end-to-end metrics are reported over the repetitions. With
// --trace 1 three untraced repetitions are followed by one traced
// repetition — spans kept in memory plus a CPU profile of this process —
// and the per-layer metrics are reported; the spans, the profile and the
// layer table are written under .bench_build/perfbench-trace/. See
// README.md for the workloads and the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procs is the explicit GOMAXPROCS of every run: the campaign workload
// uses two workers, and the Go runtime's own background work (GC marking)
// scales with GOMAXPROCS, so it is pinned rather than inherited.
const procs = 2

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name (see README.md)")
	seed := flag.Int64("seed", defaultSeed, "workload seed (core.Config.Seed)")
	seconds := flag.Float64("seconds", 30, "time budget of the run (the repetition count is fixed per workload)")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics from a traced repetition")
	outDir := flag.String("out", ".bench_build/perfbench-trace", "directory for the traced repetition's spans, profile and layer table")
	child := flag.Bool("child", false, "run one repetition in this process and print its report (used by the parent)")
	rep := flag.Int("rep", 0, "with --child: the repetition's index, which selects its inputs")
	flag.Parse()

	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, workloadNames())
		os.Exit(2)
	}
	runtime.GOMAXPROCS(procs)
	var out any
	var err error
	switch {
	case *child:
		out, err = runChild(w, input{*seed, *rep}, *trace == 1, *outDir)
	case *trace == 1:
		out, err = runTraced(w, *seed, *seconds, *outDir)
	default:
		out, err = runTimed(w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runTimed runs the workload's fixed number of untraced repetitions,
// each on its own inputs, and reports the end-to-end metrics. The
// repetition count does not depend on how fast they run, so every run
// at a seed averages the same inputs; --seconds is the run's time
// budget, and a run over it says so on standard error.
func runTimed(w workload, seed int64, seconds float64) (result, error) {
	header(w, seed, seconds, 0, w.reps)
	start := time.Now()
	reps, err := repeat(w, seed, w.reps, true)
	if err != nil {
		return result{}, err
	}
	checkBudget(start, seconds)
	res := result{Correct: true, Metrics: endToEnd(reps)}
	for _, r := range reps {
		res.add(r)
	}
	return res, nil
}

// checkBudget reports on standard error a run that took longer than its
// --seconds budget: the host is slower than the one the repetition
// counts were chosen on.
func checkBudget(start time.Time, seconds float64) {
	if took := time.Since(start).Seconds(); took > seconds {
		fmt.Fprintf(os.Stderr, "perfbench: run took %.1f s, over its --seconds budget of %g s\n", took, seconds)
	}
}

// endToEnd computes the end-to-end metrics over the repetitions. Each
// repetition runs other inputs, and what one costs depends on the fault
// classes its sprinkle finds, so the work figures are means over the
// repetitions: the cost of one batch averaged over the inputs sampled.
// Set-up work barely depends on the inputs, and the peak resident set
// moves with the garbage collector's timing, so those two are medians.
func endToEnd(reps []*repReport) map[string]metric {
	var wall, setup, cpu, alloc, rss []float64
	analyses, campaign := 0, 0.0
	for _, r := range reps {
		wall = append(wall, r.Wall)
		setup = append(setup, r.Setup)
		cpu = append(cpu, r.CPU)
		alloc = append(alloc, r.AllocMB)
		rss = append(rss, r.PeakRSSMB)
		analyses += r.Analyses
		campaign += r.Wall - r.Setup
	}
	fmt.Printf("perfbench: %d repetitions, %d analyses\n", len(reps), analyses)
	fmt.Printf("perfbench: wall_s %.3f\nperfbench: setup_s %.3f\nperfbench: cpu_s %.3f\nperfbench: alloc_mb %.1f\nperfbench: peak_rss_mb %.1f\n",
		wall, setup, cpu, alloc, rss)
	return map[string]metric{
		"wall_s":         {mean(wall), "s"},
		"setup_s":        {median(setup), "s"},
		"analyses_per_s": {float64(analyses) / campaign, "1/s"},
		"cpu_s":          {mean(cpu), "s"},
		"alloc_mb":       {mean(alloc), "MB"},
		"peak_rss_mb":    {median(rss), "MB"},
	}
}

// header records the run's settings, the explicit parallelism included.
func header(w workload, seed int64, seconds float64, trace, reps int) {
	fmt.Printf("perfbench: workload %s seed %d seconds %g trace %d reps %d GOMAXPROCS %d nproc %d workers %d gsworkers %d\n",
		w.name, seed, seconds, trace, reps, runtime.GOMAXPROCS(0), runtime.NumCPU(), w.workers, w.gsWorkers)
}

// add folds one repetition's analysis accounting into the result.
func (r *result) add(rep *repReport) {
	r.Attempted += rep.Attempted
	r.Failed += rep.Failed
	if rep.Failed > 0 {
		r.Correct = false
		for _, p := range rep.Problems {
			fmt.Fprintf(os.Stderr, "perfbench: %s\n", p)
		}
	}
}

// repeat runs n untraced repetitions. With fresh, repetition k runs the
// inputs input{seed, k}; otherwise all run repetition 0's inputs and
// must render the same bytes. The default seed also checks the digests
// against the pins.
func repeat(w workload, seed int64, n int, fresh bool) ([]*repReport, error) {
	var reps []*repReport
	for k := 0; k < n; k++ {
		in := input{seed: seed}
		if fresh {
			in.rep = k
		}
		r, err := spawn(w, in, false, "")
		if err != nil {
			return nil, err
		}
		if !fresh && k > 0 {
			r.checkSame(reps[0].Digests, "repetition 1")
		}
		reps = append(reps, r)
	}
	return reps, nil
}

// spawn runs one repetition in a fresh child process — the way a user
// runs the pipeline, so each repetition's peak resident memory is its
// own — and returns the child's report with its peak RSS.
func spawn(w workload, in input, traced bool, outDir string) (*repReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"--child", "--workload", w.name,
		"--seed", strconv.FormatInt(in.seed, 10), "--rep", strconv.Itoa(in.rep)}
	if traced {
		args = append(args, "--trace", "1", "--out", outDir)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("repetition of %s: %w", w.name, err)
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var r repReport
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return nil, fmt.Errorf("repetition of %s: report: %w", w.name, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.PeakRSSMB = float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
	}
	return &r, nil
}

func mean(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100).
func percentile(v []float64, p float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	k := int(p/100*float64(len(s))+0.999999) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}
