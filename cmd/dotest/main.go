// Command dotest runs the defect-oriented test methodology over the Flash
// ADC case study and prints the paper's tables and figures.
//
// Usage:
//
//	dotest [-bits N] [-defects N] [-mag N] [-mc N] [-seed S]
//	       [-macro name|all] [-dft pre|post|both] [-maxclasses N]
//	       [-nsigma X] [-quick] [-json file] [-workers N] [-gsworkers N]
//	       [-checkpoint file] [-resume] [-json-stats file]
//	       [-trace file.jsonl]
//
// With no flags it reproduces every experiment at full fidelity (several
// minutes of CPU). -bits selects the vehicle: the N-bit member of the
// flash-converter family (2^N comparators and ladder segments; default 8,
// the paper's case study).
//
// The configuration flags resolve through core.JobSpec, the same rule a
// campaignd submission follows: -quick selects the small preset (the
// full-fidelity one otherwise) and every configuration flag given
// explicitly overrides the preset's value, so `dotest -quick
// -maxclasses 4` analyses four classes per macro. As in JobSpec, an
// explicit zero means "the preset's default".
//
// -workers other than 1 (0 = GOMAXPROCS), -checkpoint or -json-stats
// run each DfT setting as a campaign on the parallel work-stealing
// engine. Stdout and -json output are byte-identical to the serial run;
// the campaign's run metrics (per-macro and per-stage times, restored
// and failed units) go to stderr, and -json-stats writes them as JSON.
// -checkpoint persists finished units to the given file (the post-DfT
// campaign uses file.dft, as -json and -json-stats do), flushing on
// interruption, and -resume picks a run up where it stopped:
//
//	dotest -checkpoint run.ckpt            # interrupt it mid-run …
//	dotest -checkpoint run.ckpt -resume    # … and pick up where it left off
//
// The checkpoint fingerprint covers the resolved configuration, so a
// checkpoint never resumes a run of different settings.
//
// The good-space Monte Carlo is itself die-sharded: -gsworkers bounds
// its worker group (0 picks GOMAXPROCS, serial or on the campaign
// engine; 1 compiles serially). Any setting is bit-identical.
//
// -trace streams one JSON object per finished methodology-stage span
// (sprinkle, collapse, inject, faultsim, classify, detect, goodspace)
// to the given file; see the README's "Tracing" section for the schema.
// A SIGINT or SIGTERM cancels the run: the cancellation reaches into
// the Newton and transient loops, so even a long analog solve aborts in
// bounded time, the checkpoint flushes, and the process exits with
// status 130. A second signal force-quits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/macros"
	"repro/internal/obs"
	"repro/internal/report"
)

// configFlags registers the flags that select the configuration. Their
// values are read back through jobSpec, so only the ones given
// explicitly reach the spec.
func configFlags(fs *flag.FlagSet) {
	def := core.DefaultConfig()
	fs.Bool("quick", false, "small, fast preset configuration (explicit flags still override it)")
	fs.Int64("seed", def.Seed, "random seed")
	fs.Int("bits", macros.DefaultBits, "vehicle resolution in bits (2^N comparators)")
	fs.Int("defects", def.Defects, "class-discovery sprinkle size per macro")
	fs.Int("mag", def.MagnitudeDefects, "magnitude sprinkle size (0 = preset default; the quick preset reuses discovery)")
	fs.Int("mc", def.MCSamples, "good-space Monte Carlo dies")
	fs.Float64("nsigma", def.NSigma, "current-detection threshold multiple")
	fs.Int("maxclasses", def.MaxClassesPerMacro, fmt.Sprintf(
		"cap analysed classes per macro (0 = preset default: all, or %d with -quick)", core.QuickConfig().MaxClassesPerMacro))
	fs.String("dft", "both", "DfT setting: pre, post or both")
}

// jobSpec builds the job spec from the configuration flags set
// explicitly on the command line; unset flags leave the preset in
// charge.
func jobSpec(fs *flag.FlagSet) core.JobSpec {
	var s core.JobSpec
	fs.Visit(func(f *flag.Flag) {
		v := f.Value.(flag.Getter).Get()
		switch f.Name {
		case "quick":
			s.Quick = v.(bool)
		case "seed":
			s.Seed = v.(int64)
		case "bits":
			s.Bits = v.(int)
		case "defects":
			s.Defects = v.(int)
		case "mag":
			s.MagnitudeDefects = v.(int)
		case "mc":
			s.MCSamples = v.(int)
		case "nsigma":
			s.NSigma = v.(float64)
		case "maxclasses":
			s.MaxClassesPerMacro = v.(int)
		case "dft":
			s.DfT = v.(string)
		}
	})
	return s
}

// interruptContext returns a context cancelled by the first SIGINT or
// SIGTERM — a service manager's stop signal gets the same graceful
// shutdown as a Ctrl-C. The first signal is consumed by
// signal.NotifyContext to begin a graceful shutdown (workers drain, the
// checkpoint flushes inside campaign.Execute before it returns); the
// moment cancellation starts, the default signal handler is restored so
// a second signal can force-quit a wedged run instead of being
// swallowed.
func interruptContext(parent context.Context) (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(parent, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ctx.Done()
		stop()
	}()
	return ctx, stop
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("dotest: ")

	configFlags(flag.CommandLine)
	var (
		macroName  = flag.String("macro", "all", "macro to analyse (comparator|ladder|biasgen|clockgen|decoder|all)")
		jsonOut    = flag.String("json", "", "also write a machine-readable summary to this file")
		workers    = flag.Int("workers", 1, "campaign workers (1 = serial, 0 = GOMAXPROCS)")
		gsworkers  = flag.Int("gsworkers", 0, "good-space die workers (0 = GOMAXPROCS, 1 = serial; any setting is bit-identical)")
		checkpoint = flag.String("checkpoint", "", "checkpoint file for the campaign engine (\"\" disables)")
		resume     = flag.Bool("resume", false, "resume from the checkpoint, skipping finished units")
		jsonStats  = flag.String("json-stats", "", "write the campaign's run metrics to this file")
		trace      = flag.String("trace", "", "write a JSONL span trace of every methodology stage to this file")
	)
	flag.Parse()

	spec := jobSpec(flag.CommandLine)
	if err := spec.Validate(); err != nil {
		log.Fatal(err)
	}
	if *resume && *checkpoint == "" {
		log.Fatal("-resume needs -checkpoint")
	}
	onEngine := *workers != 1 || *checkpoint != "" || *jsonStats != ""
	if *macroName != "all" && (*checkpoint != "" || *jsonStats != "") {
		log.Fatal("-checkpoint and -json-stats need -macro all")
	}
	p := core.NewPipeline(spec.Config())
	p.GoodSpaceWorkers = *gsworkers

	// Fail fast on a bad -macro before compiling the good space or
	// sprinkling a single defect.
	if *macroName != "all" {
		if err := p.ValidateMacro(*macroName); err != nil {
			log.Fatal(err)
		}
	}

	var sinks []obs.Sink
	var jw *obs.JSONLWriter
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		jw = obs.NewJSONLWriter(f)
		sinks = append(sinks, jw)
		p.Obs = obs.New(sinks...)
	}

	ctx, stop := interruptContext(context.Background())
	defer stop()

	start := time.Now()
	for _, dft := range spec.DfTs() {
		label, suffix := "before DfT", ""
		if dft {
			label, suffix = "after DfT", ".dft"
		}
		fmt.Printf("==== Defect-oriented test path (%s) ====\n\n", label)
		if *macroName != "all" {
			run, err := p.RunMacro(ctx, *macroName, dft)
			if err != nil {
				fatal(ctx, err)
			}
			printMacro(run)
			continue
		}
		var run *core.Run
		var err error
		if !onEngine {
			run, err = p.Run(ctx, dft)
		} else {
			opts := campaign.Options{Workers: *workers, Resume: *resume}
			if *checkpoint != "" {
				opts.Store = campaign.FileStore{Path: *checkpoint + suffix}
			}
			// A fresh stage aggregator per DfT setting, so the run
			// metrics' per-stage breakdown covers exactly this campaign.
			p.Obs = obs.New(append([]obs.Sink{obs.NewAgg()}, sinks...)...)
			var out *campaign.Outcome
			run, out, err = p.RunParallel(ctx, dft, opts)
			if out != nil {
				out.Stats.Print(os.Stderr)
			}
			if err != nil && ctx.Err() != nil && *checkpoint != "" {
				log.Printf("interrupted; checkpoint flushed to %s — rerun with -resume", *checkpoint+suffix)
			}
			if err == nil && *jsonStats != "" {
				writeFile(*jsonStats+suffix, out.Stats.JSON)
				log.Printf("wrote %s", *jsonStats+suffix)
			}
		}
		if err != nil {
			fatal(ctx, err)
		}
		cmp := run.Macro("comparator")
		printMacro(cmp)
		report.PerMacro(os.Stdout, run)
		title := "Fig 4: global detectability"
		if dft {
			title = "Fig 5: global detectability after DfT"
		}
		report.Global(os.Stdout, title, run)
		if *jsonOut != "" {
			writeFile(*jsonOut+suffix, func() ([]byte, error) { return report.JSON(run) })
			fmt.Printf("wrote %s\n", *jsonOut+suffix)
		}
	}
	fmt.Printf("total runtime: %s\n", time.Since(start).Round(time.Millisecond))
	if jw != nil {
		if err := jw.Err(); err != nil {
			log.Fatalf("trace write: %v", err)
		}
		fmt.Printf("wrote trace %s\n", *trace)
	}
}

// writeFile writes the bytes that encode produces to name.
func writeFile(name string, encode func() ([]byte, error)) {
	data, err := encode()
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(name, data, 0o644); err != nil {
		log.Fatal(err)
	}
}

// fatal reports a run error, distinguishing a user-driven cancellation
// (exit 130, the conventional SIGINT status) from a pipeline failure.
func fatal(ctx context.Context, err error) {
	if ctx.Err() != nil {
		log.Printf("cancelled: %v", err)
		os.Exit(130)
	}
	log.Fatal(err)
}

func printMacro(run *core.MacroRun) {
	report.Table1(os.Stdout, run)
	report.Table2(os.Stdout, run)
	report.Table3(os.Stdout, run)
	report.Fig3(os.Stdout, run, false)
	if len(run.NonCat) > 0 {
		report.Fig3(os.Stdout, run, true)
	}
}
