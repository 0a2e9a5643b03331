package experiment

import (
	"reflect"
	"strings"
	"testing"

	"pnm/internal/marking"
	"pnm/internal/sim"
)

func TestFig4Checkpoints(t *testing.T) {
	series := Fig4(DefaultFig4())
	if len(series) != 3 {
		t.Fatalf("series = %d, want 3", len(series))
	}
	// Paper: ~90% at 13 packets (n=10), 33 (n=20), 54 (n=30).
	checks := []struct {
		idx     int
		packets int
	}{{0, 13}, {1, 33}, {2, 54}}
	for _, c := range checks {
		s := series[c.idx]
		y := s.Y[c.packets-1] // X starts at 1
		if y < 0.85 || y > 0.95 {
			t.Errorf("%s at L=%d: P=%.3f, want ~0.90", s.Name, c.packets, y)
		}
	}
}

func TestFig5SmallShape(t *testing.T) {
	cfg := Fig5Config{PathLens: []int{10}, MarksPerPacket: 3, MaxPackets: 20, Runs: 200, Seed: 1}
	series, err := Fig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := series[0]
	// Paper checkpoint: ~9 of 10 nodes (90%) collected within 7 packets.
	if got := s.Y[6]; got < 80 || got > 98 {
		t.Errorf("collected%% at 7 packets = %.1f, want ~90", got)
	}
	// Monotone non-decreasing.
	for i := 1; i < len(s.Y); i++ {
		if s.Y[i]+1e-9 < s.Y[i-1] {
			t.Fatalf("collection curve decreased at x=%d", i+1)
		}
	}
}

func TestFig67SmallShape(t *testing.T) {
	cfg := Fig67Config{
		PathLens:       []int{5, 10, 20},
		MarksPerPacket: 3,
		Traffics:       []int{100, 200},
		Runs:           30,
		Seed:           2,
	}
	res, err := Fig67(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 2 {
		t.Fatalf("failure series = %d, want 2", len(res.Failures))
	}
	// Paper: 200 packets suffice for paths up to 20 hops — near-zero
	// failures across all three lengths at the 200-packet budget.
	for i, n := range cfg.PathLens {
		if f := res.Failures[1].Y[i]; f > 2 {
			t.Errorf("n=%d: %g failures out of 30 at 200 packets, want <=2", n, f)
		}
	}
	// Figure 7 shape: packets-to-identify grows with path length, and for
	// n<=20 stays around the paper's ~55.
	avg := res.AvgPackets
	if avg.Y[0] > avg.Y[2] {
		t.Errorf("avg packets not increasing: %v", avg.Y)
	}
	if n20 := avg.Y[2]; n20 < 25 || n20 > 90 {
		t.Errorf("avg packets at n=20 = %.1f, want around 55", n20)
	}
}

func TestSecurityMatrixRendering(t *testing.T) {
	cfg := MatrixConfig{Forwarders: 8, MarksPerPacket: 3, Packets: 300, Seed: 3}
	cells, err := SecurityMatrix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 5*len(sim.Attacks()) {
		t.Fatalf("cells = %d, want %d", len(cells), 5*len(sim.Attacks()))
	}
	// The paper's core result: nested and pnm hold one-hop precision under
	// every applicable attack.
	for _, c := range cells {
		if c.Scheme == "pnm" && !c.Secure {
			t.Errorf("pnm insecure under %s", c.Attack)
		}
		if c.Scheme == "nested" && !c.Secure && !c.SelfDefeating {
			t.Errorf("nested insecure under %s", c.Attack)
		}
	}
	out := RenderMatrix(cells)
	if !strings.Contains(out, "pnm") || !strings.Contains(out, "MISLED") {
		t.Fatalf("matrix rendering:\n%s", out)
	}
}

// TestCatchSweep pins the packets-to-catch definition with hand-written
// predicates of the packet count: needed is one past the last packet after
// which the predicate was false, a predicate that drops back to false
// resets the catch, okAt reads the predicate at each checkpoint, and
// meanCatch averages over the caught runs only.
func TestCatchSweep(t *testing.T) {
	chain := func(run int) sim.ChainConfig {
		return sim.ChainConfig{Forwarders: run + 2, Scheme: marking.Nested{}, Attack: sim.AttackNone, Seed: int64(run)}
	}
	sweep := func(runs int, checkpoints []int, good func(*sim.Runner) bool) []catchRun {
		t.Helper()
		res, err := catchSweep(runs, 10, checkpoints, chain, good)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	steady := sweep(1, nil, func(r *sim.Runner) bool { return r.Offered() >= 3 })
	if want := (catchRun{okAt: []bool{}, needed: 3, caught: true}); !reflect.DeepEqual(steady[0], want) {
		t.Fatalf("good from packet 3: %+v, want %+v", steady[0], want)
	}
	// The same predicate dipping back to false at packet 6 resets the
	// catch to packet 7.
	dip := sweep(1, []int{2, 5, 6, 10}, func(r *sim.Runner) bool { return r.Offered() >= 3 && r.Offered() != 6 })
	if want := (catchRun{okAt: []bool{false, true, false, true}, needed: 7, caught: true}); !reflect.DeepEqual(dip[0], want) {
		t.Fatalf("dip at packet 6: %+v, want %+v", dip[0], want)
	}
	// Run k has k+2 forwarders and turns good at packet 3(k+2): runs 0
	// and 1 are caught at 6 and 9, run 2 (12) is still false at the end
	// of the 10-packet budget and drops out of the mean.
	runs := sweep(3, nil, func(r *sim.Runner) bool { return r.Offered() >= 3*len(r.Forwarders()) })
	if runs[2].caught {
		t.Fatalf("run 2 caught within budget: %+v", runs[2])
	}
	if avg, caught := meanCatch(runs); avg != 7.5 || caught != 2.0/3 {
		t.Fatalf("meanCatch = %v, %v; want 7.5, 2/3", avg, caught)
	}
}

func TestHeadlineSmall(t *testing.T) {
	cfg := HeadlineConfig{
		PathLens:       []int{20},
		MarksPerPacket: 3,
		Runs:           20,
		MaxPackets:     400,
		Seed:           4,
	}
	rows, err := Headline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	// Headline claim: a mole 20 hops away is caught within about 50
	// packets (we allow a generous band for the small run count).
	if r.AvgPackets < 25 || r.AvgPackets > 90 {
		t.Errorf("avg packets at 20 hops = %.1f, want ~50", r.AvgPackets)
	}
	if r.Identified < 0.9 {
		t.Errorf("identified fraction = %.2f, want >= 0.9", r.Identified)
	}
	if r.Latency <= 0 {
		t.Error("latency not computed")
	}
	if out := RenderHeadline(rows); !strings.Contains(out, "hops") {
		t.Fatalf("headline rendering:\n%s", out)
	}
}

func TestAblationTradeoff(t *testing.T) {
	cfg := AblationConfig{
		Forwarders:           10,
		MarksPerPacketValues: []float64{1, 3},
		Runs:                 20,
		MaxPackets:           600,
		Seed:                 5,
	}
	rows, err := AblateMarkingProbability(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// More marks per packet -> fewer packets needed but bigger packets.
	if rows[0].AvgPackets <= rows[1].AvgPackets {
		t.Errorf("np=1 (%.1f pkts) should need more packets than np=3 (%.1f)",
			rows[0].AvgPackets, rows[1].AvgPackets)
	}
	if rows[0].AvgBytes >= rows[1].AvgBytes {
		t.Errorf("np=1 (%.0fB) should be smaller than np=3 (%.0fB)",
			rows[0].AvgBytes, rows[1].AvgBytes)
	}
	if out := RenderAblation(rows); !strings.Contains(out, "marks/packet") {
		t.Fatalf("ablation rendering:\n%s", out)
	}
}
