package experiment

import (
	"strings"
	"testing"
)

// TestFaultBenchSmall runs a scaled-down benchmark end to end: every
// scenario must converge to the baseline verdict (FaultBench errors out
// otherwise, so a nil error IS the equivalence assertion), deltas must be
// internally consistent, and the render must be valid committed-style
// JSON.
func TestFaultBenchSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("fault bench runs five live networks")
	}
	cfg := DefaultFaultBench()
	cfg.Nodes = 60
	cfg.Side = 5
	cfg.MaxPackets = 800
	cfg.NodeChurn, cfg.LinkChurn, cfg.SinkCrashes = 2, 2, 1
	res, err := FaultBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 scenarios", len(res.Rows))
	}
	if res.Rows[0].Scenario != "baseline" || len(res.Rows[0].Events) != 0 {
		t.Fatalf("first row %+v is not the fault-free baseline", res.Rows[0])
	}
	base := res.Rows[0]
	for _, r := range res.Rows[1:] {
		if len(r.Events) == 0 {
			t.Fatalf("scenario %s ran no fault events", r.Scenario)
		}
		if r.InjectedToCatch-base.InjectedToCatch != r.DeltaVsBaseline {
			t.Fatalf("scenario %s: delta %d inconsistent with catch %d vs baseline %d",
				r.Scenario, r.DeltaVsBaseline, r.InjectedToCatch, base.InjectedToCatch)
		}
		if r.Stop != base.Stop || !r.Identified {
			t.Fatalf("scenario %s verdict leaked through the equality gate: %+v", r.Scenario, r)
		}
	}
	doc, err := RenderBench(res)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(doc, "\"scenario\": \"combined\"") {
		t.Fatalf("rendered document missing the combined row:\n%s", doc)
	}
}

// TestFaultBenchReproducible: the committed document is a pure function
// of its config.
func TestFaultBenchReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("fault bench runs five live networks twice")
	}
	cfg := DefaultFaultBench()
	cfg.Nodes = 40
	cfg.Side = 4
	cfg.MaxPackets = 600
	cfg.NodeChurn, cfg.LinkChurn, cfg.SinkCrashes = 1, 1, 1
	a, err := FaultBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FaultBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	da, err := RenderBench(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := RenderBench(b)
	if err != nil {
		t.Fatal(err)
	}
	if da != db {
		t.Fatal("two runs of the same config rendered different documents")
	}
}
