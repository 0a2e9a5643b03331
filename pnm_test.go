package pnm

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestQuickstartFlow(t *testing.T) {
	topo, err := NewChain(11)
	if err != nil {
		t.Fatal(err)
	}
	keys := NewKeyStore([]byte("facade-test"))
	sys, err := NewSystem(topo, keys, PNMScheme(MarkingProbability(10, 3)))
	if err != nil {
		t.Fatal(err)
	}
	v, err := sys.TraceInjection(TraceConfig{Source: 11, Packets: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Identified || v.Stop != 10 {
		t.Fatalf("verdict = %+v, want identified at V10", v)
	}
	if !v.SuspectsContain(11) {
		t.Fatalf("suspects %v miss the source", v.Suspects)
	}
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(nil, nil, nil); err == nil {
		t.Fatal("want error for nil parts")
	}
}

func TestTraceInjectionValidation(t *testing.T) {
	topo, err := NewChain(5)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(topo, NewKeyStore([]byte("x")), NestedScheme())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.TraceInjection(TraceConfig{Source: SinkID, Packets: 1}); err == nil {
		t.Fatal("want error for sink source")
	}
	if _, err := sys.TraceInjection(TraceConfig{Source: 99, Packets: 1}); err == nil {
		t.Fatal("want error for unknown source")
	}
	if _, err := sys.TraceInjection(TraceConfig{Source: 5, Packets: 0}); err == nil {
		t.Fatal("want error for zero packets")
	}
}

func TestSingleTamperingForwarder(t *testing.T) {
	topo, err := NewChain(12)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(topo, NewKeyStore([]byte("facade-test")), NestedScheme())
	if err != nil {
		t.Fatal(err)
	}
	// A colluding mole at node 6 never marks: single-packet nested
	// traceback still stops within one hop of it or the source.
	v, err := sys.TraceInjection(TraceConfig{
		Source:    12,
		Packets:   1,
		Seed:      3,
		Forwarder: &ForwarderMole{ID: 6, Behavior: MarkNever},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !v.SuspectsContain(12) && !v.SuspectsContain(6) {
		t.Fatalf("verdict %+v misses both moles", v)
	}
}

func TestSchemeByName(t *testing.T) {
	for _, name := range []string{"pnm", "nested", "naive", "ams", "ppm", "none"} {
		s, err := SchemeByName(name, 0.3)
		if err != nil || s.Name() != name {
			t.Fatalf("SchemeByName(%q) = %v, %v", name, s, err)
		}
		for _, p := range []float64{math.NaN(), -0.1, 1.5} {
			if _, err := SchemeByName(name, p); err == nil {
				t.Fatalf("SchemeByName(%q, %v): want an error for a probability outside [0, 1]", name, p)
			}
		}
	}
}

func TestMarkingProbability(t *testing.T) {
	if got := MarkingProbability(10, 3); got != 0.3 {
		t.Fatalf("got %g", got)
	}
	if got := MarkingProbability(2, 3); got != 1 {
		t.Fatalf("capped: got %g", got)
	}
	if got := MarkingProbability(0, 3); got != 0 {
		t.Fatalf("zero nodes: got %g", got)
	}
}

func TestFacadeFilterAndEnergy(t *testing.T) {
	if got := ExpectedFilterTravel(10, 0); got != 10 {
		t.Fatalf("ExpectedFilterTravel = %g", got)
	}
	if got := FilterDeliveryProb(10, 1); got != 0 {
		t.Fatalf("FilterDeliveryProb = %g", got)
	}
	m := Mica2Energy()
	if m.PacketsPerSecond(36) < 40 {
		t.Fatal("energy model off")
	}
}

func TestFacadeCampaign(t *testing.T) {
	topo, err := NewGrid(GridConfig{Width: 6, Height: 6, Spacing: 1, RadioRange: 1.1})
	if err != nil {
		t.Fatal(err)
	}
	keys := NewKeyStore([]byte("facade-campaign"))
	sys, err := NewSystem(topo, keys, PNMScheme(0.4))
	if err != nil {
		t.Fatal(err)
	}
	deep := topo.DeepestNode()
	sources := []*SourceMole{{ID: deep, Base: Report{Event: 1}, Behavior: MarkNever}}
	c := sys.NewCampaign(sources, nil, 11)
	verdicts, err := c.Run(4, 250)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.ActiveSources()) != 0 {
		t.Fatal("source still active after campaign")
	}
	caught := false
	for _, v := range verdicts {
		if v.SuspectsContain(deep) {
			caught = true
		}
	}
	if !caught {
		t.Fatalf("campaign never localized the mole: %+v", verdicts)
	}
}

func TestFacadeLiveNetwork(t *testing.T) {
	topo, err := NewChain(8)
	if err != nil {
		t.Fatal(err)
	}
	keys := NewKeyStore([]byte("facade-live"))
	sys, err := NewSystem(topo, keys, PNMScheme(MarkingProbability(7, 3)))
	if err != nil {
		t.Fatal(err)
	}
	stolen := map[NodeID]Key{8: keys.Key(8)}
	env := &AdversaryEnv{Scheme: sys.Scheme(), StolenKeys: stolen}
	live, err := sys.StartLiveSystem(nil, env, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()

	src := &SourceMole{ID: 8, Base: Report{Event: 2}, Behavior: MarkNever}
	rng := rand.New(rand.NewSource(6))
	const packets = 200
	for i := 0; i < packets; i++ {
		if err := live.Inject(8, src.Next(env, rng)); err != nil {
			t.Fatal(err)
		}
	}
	if err := live.WaitDelivered(packets, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if v := live.Verdict(); !v.SuspectsContain(8) {
		t.Fatalf("live verdict %+v misses the mole", v)
	}
}

func TestFacadeReplayDefenses(t *testing.T) {
	sup := NewDuplicateSuppressor(8)
	rep := Report{Event: 1, Seq: 1}
	if sup.Duplicate(rep) {
		t.Fatal("first sighting flagged")
	}
	if !sup.Duplicate(rep) {
		t.Fatal("replay not flagged")
	}
	win := NewSequenceWindow(64)
	if !win.Accept(3, 10) || win.Accept(3, 10) {
		t.Fatal("sequence window broken")
	}
	var r ReplayerMole
	r.Capture(Message{Report: rep})
	if msg, ok := r.Next(); !ok || msg.Report.Seq != 1 {
		t.Fatal("replayer broken")
	}
}
