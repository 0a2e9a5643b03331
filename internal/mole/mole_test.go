package mole

import (
	"math/rand"
	"testing"

	"pnm/internal/mac"
	"pnm/internal/marking"
	"pnm/internal/packet"
)

var testKS = mac.NewKeyStore([]byte("mole-test"))

func testEnv(scheme marking.Scheme, compromised ...packet.NodeID) *Env {
	keys := make(map[packet.NodeID]mac.Key, len(compromised))
	for _, id := range compromised {
		keys[id] = testKS.Key(id)
	}
	return &Env{Scheme: scheme, StolenKeys: keys}
}

func markedMsg(t *testing.T, scheme marking.Scheme, path ...packet.NodeID) packet.Message {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	msg := packet.Message{Report: packet.Report{Event: 1, Seq: 1}}
	for _, id := range path {
		msg = scheme.Mark(id, testKS.Key(id), msg, rng)
	}
	return msg
}

func TestRemoveFirst(t *testing.T) {
	msg := markedMsg(t, marking.Nested{}, 5, 4, 3)
	out, ok := RemoveFirst{N: 1}.Apply(msg, nil, nil)
	if !ok || len(out.Marks) != 2 || out.Marks[0].ID != 4 {
		t.Fatalf("out = %+v", out)
	}
	// Removing more than present empties the marks.
	out, ok = RemoveFirst{N: 10}.Apply(msg, nil, nil)
	if !ok || len(out.Marks) != 0 {
		t.Fatalf("out = %+v", out)
	}
	if len(msg.Marks) != 3 {
		t.Fatal("RemoveFirst mutated its input")
	}
}

func TestRemoveAll(t *testing.T) {
	msg := markedMsg(t, marking.Nested{}, 5, 4, 3)
	out, ok := RemoveAll{}.Apply(msg, nil, nil)
	if !ok || len(out.Marks) != 0 {
		t.Fatalf("out = %+v", out)
	}
}

func TestReorderReverse(t *testing.T) {
	msg := markedMsg(t, marking.Nested{}, 5, 4, 3)
	out, ok := Reorder{Reverse: true}.Apply(msg, nil, nil)
	if !ok || out.Marks[0].ID != 3 || out.Marks[2].ID != 5 {
		t.Fatalf("out = %+v", out)
	}
}

func TestReorderShuffleKeepsMultiset(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	msg := markedMsg(t, marking.Nested{}, 9, 8, 7, 6, 5)
	out, ok := Reorder{}.Apply(msg, nil, rng)
	if !ok || len(out.Marks) != 5 {
		t.Fatalf("out = %+v", out)
	}
	seen := map[packet.NodeID]bool{}
	for _, mk := range out.Marks {
		seen[mk.ID] = true
	}
	for _, id := range []packet.NodeID{5, 6, 7, 8, 9} {
		if !seen[id] {
			t.Fatalf("shuffle lost mark %v", id)
		}
	}
}

func TestAlter(t *testing.T) {
	msg := markedMsg(t, marking.Nested{}, 5, 4, 3)
	out, ok := Alter{}.Apply(msg, nil, nil)
	if !ok {
		t.Fatal("dropped")
	}
	for i := range out.Marks {
		if out.Marks[i].MAC == msg.Marks[i].MAC {
			t.Fatalf("mark %d not altered", i)
		}
	}
	// First=1 only alters the most upstream mark.
	out, _ = Alter{First: 1}.Apply(msg, nil, nil)
	if out.Marks[0].MAC == msg.Marks[0].MAC || out.Marks[1].MAC != msg.Marks[1].MAC {
		t.Fatal("Alter{First:1} scope wrong")
	}
}

func TestInsertFakePlain(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	env := testEnv(marking.Nested{})
	msg := markedMsg(t, marking.Nested{}, 5)
	out, ok := InsertFake{N: 2, Impersonate: []packet.NodeID{7, 8}}.Apply(msg, env, rng)
	if !ok || len(out.Marks) != 3 {
		t.Fatalf("out = %+v", out)
	}
	if out.Marks[0].ID != 7 || out.Marks[1].ID != 8 {
		t.Fatalf("impersonation order wrong: %+v", out.Marks)
	}
}

func TestInsertFakeAnonymousUnderPNM(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	env := testEnv(marking.PNM{P: 0.3})
	out, ok := InsertFake{N: 3}.Apply(packet.Message{Report: packet.Report{Seq: 1}}, env, rng)
	if !ok || len(out.Marks) != 3 {
		t.Fatalf("out = %+v", out)
	}
	for _, mk := range out.Marks {
		if !mk.Anonymous {
			t.Fatal("fake marks under PNM must mimic the anonymous format")
		}
	}
}

func TestInsertFakeUnderPPMHasNoMAC(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	env := testEnv(marking.PPM{P: 0.3})
	out, _ := InsertFake{N: 1, Impersonate: []packet.NodeID{9}}.Apply(packet.Message{}, env, rng)
	if out.Marks[0].MAC != ([packet.MACLen]byte{}) {
		t.Fatal("PPM fakes must carry no MAC")
	}
}

func TestSelectiveDropMatchesPlaintext(t *testing.T) {
	msg := markedMsg(t, marking.NaiveProbNested{P: 1}, 5, 4, 3)
	drop := SelectiveDrop{DropIfMarkedBy: []packet.NodeID{5}}
	if _, ok := drop.Apply(msg, nil, nil); ok {
		t.Fatal("packet bearing V5's plaintext mark was not dropped")
	}
	drop = SelectiveDrop{DropIfMarkedBy: []packet.NodeID{9}}
	if _, ok := drop.Apply(msg, nil, nil); !ok {
		t.Fatal("packet without target marks was dropped")
	}
}

func TestSelectiveDropBlindToAnonymousMarks(t *testing.T) {
	// The core PNM defense: the mole cannot attribute anonymous marks, so
	// its drop predicate never fires.
	msg := markedMsg(t, marking.PNM{P: 1}, 5, 4, 3)
	drop := SelectiveDrop{DropIfMarkedBy: []packet.NodeID{5, 4, 3}}
	if _, ok := drop.Apply(msg, nil, nil); !ok {
		t.Fatal("anonymous marks enabled selective dropping")
	}
}

func TestForwarderPipelineAndBehavior(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	env := testEnv(marking.Nested{}, 6)
	msg := markedMsg(t, marking.Nested{}, 8, 7)

	f := &Forwarder{ID: 6, Behavior: MarkNever, Tampers: []Tamper{RemoveFirst{N: 1}}}
	out, ok := f.Process(msg, env, rng)
	if !ok || len(out.Marks) != 1 {
		t.Fatalf("out = %+v", out)
	}

	f = &Forwarder{ID: 6, Behavior: MarkHonest}
	out, ok = f.Process(msg, env, rng)
	if !ok || len(out.Marks) != 3 || out.Marks[2].ID != 6 {
		t.Fatalf("honest mole mark missing: %+v", out)
	}
}

func TestForwarderDropShortCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	env := testEnv(marking.NaiveProbNested{P: 1}, 6)
	msg := markedMsg(t, marking.NaiveProbNested{P: 1}, 8, 7)
	f := &Forwarder{
		ID:       6,
		Behavior: MarkHonest,
		Tampers:  []Tamper{SelectiveDrop{DropIfMarkedBy: []packet.NodeID{8}}, RemoveAll{}},
	}
	if _, ok := f.Process(msg, env, rng); ok {
		t.Fatal("drop did not short-circuit the pipeline")
	}
}

func TestForwarderSwapProducesValidMarksForBothIdentities(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	env := testEnv(marking.Nested{}, 6, 9)
	f := &Forwarder{ID: 6, Behavior: MarkSwap, SwapPartner: 9}
	ids := map[packet.NodeID]bool{}
	for i := 0; i < 64; i++ {
		out, ok := f.Process(packet.Message{Report: packet.Report{Seq: uint32(i)}}, env, rng)
		if !ok || len(out.Marks) != 1 {
			t.Fatalf("out = %+v", out)
		}
		mk := out.Marks[0]
		ids[mk.ID] = true
		// The swapped mark must verify under the claimed identity's key.
		want := mac.Sum(testKS.Key(mk.ID), append(out.Report.Encode(nil), byte(mk.ID>>8), byte(mk.ID)))
		if !mac.Equal(mk.MAC, want) {
			t.Fatalf("swap mark for %v does not verify", mk.ID)
		}
	}
	if !ids[6] || !ids[9] {
		t.Fatalf("swap never used both identities: %v", ids)
	}
}

func TestSourceVariesContentAndSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	env := testEnv(marking.PNM{P: 0.3}, 5)
	src := &Source{ID: 5, Base: packet.Report{Event: 0xF0}, Behavior: MarkNever}
	seen := map[uint32]bool{}
	for i := 0; i < 50; i++ {
		msg := src.Next(env, rng)
		if seen[msg.Report.Seq] {
			t.Fatal("source reused a sequence number")
		}
		seen[msg.Report.Seq] = true
		if len(msg.Marks) != 0 {
			t.Fatal("silent source left marks")
		}
	}
}

func TestSourceFakeMarks(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	env := testEnv(marking.Nested{}, 5)
	src := &Source{ID: 5, Behavior: MarkNever, FakeMarks: 3}
	msg := src.Next(env, rng)
	if len(msg.Marks) != 3 {
		t.Fatalf("marks = %d, want 3 fakes", len(msg.Marks))
	}
}

func TestSourceSwapUsesBothIdentities(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	env := testEnv(marking.PNM{P: 0.3}, 5, 2)
	src := &Source{ID: 5, Behavior: MarkSwap, SwapPartner: 2}
	anons := map[[packet.AnonIDLen]byte]bool{}
	for i := 0; i < 32; i++ {
		msg := src.Next(env, rng)
		if len(msg.Marks) != 1 || !msg.Marks[0].Anonymous {
			t.Fatalf("marks = %+v", msg.Marks)
		}
		anons[msg.Marks[0].AnonID] = true
	}
	if len(anons) < 2 {
		t.Fatal("swap source produced a single anonymous identity")
	}
}

func TestSourceHonestMarksWithOwnKey(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	env := testEnv(marking.Nested{}, 5)
	src := &Source{ID: 5, Behavior: MarkHonest}
	msg := src.Next(env, rng)
	if len(msg.Marks) != 1 || msg.Marks[0].ID != 5 {
		t.Fatalf("marks = %+v", msg.Marks)
	}
	want := mac.Sum(testKS.Key(5), append(msg.Report.Encode(nil), 0, 5))
	if !mac.Equal(msg.Marks[0].MAC, want) {
		t.Fatal("honest source mark does not verify")
	}
}

func TestTamperNames(t *testing.T) {
	tampers := []Tamper{
		RemoveFirst{}, RemoveAll{}, RemoveByID{}, Reorder{}, ReorderFixed{},
		Alter{}, AlterByID{}, InsertFake{}, SelectiveDrop{},
	}
	seen := map[string]bool{}
	for _, tm := range tampers {
		name := tm.Name()
		if name == "" || seen[name] {
			t.Fatalf("tamper name %q empty or duplicated", name)
		}
		seen[name] = true
	}
}

func TestReplayerEmpty(t *testing.T) {
	var r Replayer
	if _, ok := r.Next(); ok {
		t.Fatal("empty replayer returned a message")
	}
}

func TestReplayerCycles(t *testing.T) {
	var r Replayer
	r.Capture(packet.Message{Report: packet.Report{Seq: 1}})
	r.Capture(packet.Message{Report: packet.Report{Seq: 2}})
	var seqs []uint32
	for i := 0; i < 4; i++ {
		msg, ok := r.Next()
		if !ok {
			t.Fatal("replayer ran dry")
		}
		seqs = append(seqs, msg.Report.Seq)
	}
	if seqs[0] != 1 || seqs[1] != 2 || seqs[2] != 1 || seqs[3] != 2 {
		t.Fatalf("seqs = %v", seqs)
	}
}
