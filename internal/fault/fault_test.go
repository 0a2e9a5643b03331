package fault

import (
	"reflect"
	"testing"

	"pnm/internal/packet"
	"pnm/internal/topology"
)

// TestGenerateDeterministic: same seed, same plan; protected nodes are
// never victims; milestones are non-decreasing.
func TestGenerateDeterministic(t *testing.T) {
	topo, err := topology.NewGrid(topology.GridConfig{Width: 4, Height: 4, Spacing: 1, RadioRange: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	cfg := PlanConfig{NodeChurn: 3, LinkChurn: 2, SinkCrashes: 1, Protect: []packet.NodeID{15, 14}}
	a := Generate(7, topo, cfg)
	b := Generate(7, topo, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("plans diverge for the same seed:\n%v\n%v", a.Events, b.Events)
	}
	c := Generate(8, topo, cfg)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical plans")
	}
	last := 0
	for _, ev := range a.Events {
		if ev.At < last {
			t.Fatalf("milestones not sorted: %v", a.Events)
		}
		last = ev.At
		if ev.Node == 15 || ev.Node == 14 {
			t.Fatalf("protected node drawn as victim: %v", ev)
		}
	}
}
