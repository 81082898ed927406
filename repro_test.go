package repro_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro"
)

// TestPublicAPIQuick exercises the whole public surface end-to-end on the
// comparator macro with the quick configuration.
func TestPublicAPIQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the analog fault simulator for a few seconds")
	}
	cfg := repro.QuickConfig()
	cfg.MaxClassesPerMacro = 10
	p := repro.NewPipeline(cfg)
	run, err := p.RunMacro(context.Background(), "comparator", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Cat) == 0 {
		t.Fatal("no analyses")
	}
	s := repro.Fig3(run, false)
	if s.Covered <= 0 || s.Covered > 100 {
		t.Fatalf("coverage = %g", s.Covered)
	}
	cov := repro.MacroCoverage(run, false)
	if cov.Total() <= 0 {
		t.Fatalf("macro coverage = %+v", cov)
	}
	var buf bytes.Buffer
	repro.PrintMacro(&buf, run)
	out := buf.String()
	for _, want := range []string{"Table 1", "Table 2", "Table 3", "Fig 3", "Short"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	plan := repro.DefaultTestPlan()
	if plan.Total() <= 0 {
		t.Fatal("test plan")
	}
}

// TestConfigsExposed checks the exported configuration constructors.
func TestConfigsExposed(t *testing.T) {
	if repro.DefaultConfig().Defects != 25000 {
		t.Fatal("default discovery sprinkle must match the paper's 25k")
	}
	if repro.QuickConfig().Defects >= repro.DefaultConfig().Defects {
		t.Fatal("quick config must be smaller")
	}
}
