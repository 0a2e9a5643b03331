package mole

import (
	"encoding/hex"
	"math/rand"
	"testing"

	"pnm/internal/mac"
	"pnm/internal/marking"
	"pnm/internal/packet"
)

// The golden forgeries are an oracle that does not run the marking code:
// each string is the hex wire encoding of one report carrying a mark
// forged by each of hops 6..1 — every hop a colluder whose key the moles
// hold — and then three inserted fakes, recorded from an earlier
// implementation whose moles wrote each scheme's format with their own
// code.
var (
	goldenKS     = mac.NewKeyStore([]byte("golden-marks"))
	goldenReport = packet.Report{Event: 0xE7, Location: 0x1C, Timestamp: 1_000_003, Seq: 42}
	goldenHops   = []packet.NodeID{6, 5, 4, 3, 2, 1}
)

var goldenForged = map[string]string{
	"nested": "000000e70000001c00000000000f42430000002a003f3d1472b881d97166ec000009f561cd0040e8566200000909385c6601ddb3fc000006c26a41410995a09a000005807172b3c49ba40b0000048a764dd33d515d99000003a3f3074e93b576650000024d5d9d7008660cae000001f94386fc8d0d7213",
	"pnm":    "000000e70000001c00000000000f42430000002a01183c3fae7166ecbd7cc3ba2601f561cd0040e8566209385c660101ddb3fc1472b881d99c8428016d5854ee941d6f9dbbb3ac3b01e10a1d36c2e357b8975ec9f201acbf1536e5b9b7dd6081ea7a01f7b885b6e0ace939f03540ac01e8a37b950e514d507cb629610180ce28e562563dd2d4c880ab",
	"naive":  "000000e70000001c00000000000f42430000002a003f3d1472b881d97166ec000009f561cd0040e8566200000909385c6601ddb3fc000006c26a41410995a09a000005807172b3c49ba40b0000048a764dd33d515d99000003a3f3074e93b576650000024d5d9d7008660cae000001f94386fc8d0d7213",
	"ams":    "000000e70000001c00000000000f42430000002a003f3d1472b881d97166ec000009f561cd0040e8566200000909385c6601ddb3fc000006c26a41410995a09a00000516ac6a7cb948f4be000004bfddc3384f104a0c00000354634303f278da610000029e70d02b8bfc51ac000001b7257b4df3de6dcd",
	"ppm":    "000000e70000001c00000000000f42430000002a003f3d000000000000000000000900000000000000000000090000000000000000000006000000000000000000000500000000000000000000040000000000000000000003000000000000000000000200000000000000000000010000000000000000",
	"none":   "000000e70000001c00000000000f42430000002a003f3d1472b881d97166ec000009f561cd0040e8566200000909385c6601ddb3fc000006c26a41410995a09a000005807172b3c49ba40b0000048a764dd33d515d99000003a3f3074e93b576650000024d5d9d7008660cae000001f94386fc8d0d7213",
}

// TestGoldenForgedMarks pins the moles' forged marks: an identity-swapping
// forwarder at every hop, whose coin always picks the partner, then a
// source-side insertion of three fakes.
func TestGoldenForgedMarks(t *testing.T) {
	for _, name := range marking.Names() {
		s, err := marking.New(name, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		keys := make(map[packet.NodeID]mac.Key)
		for _, id := range goldenHops {
			keys[id] = goldenKS.Key(id)
		}
		env := &Env{Scheme: s, StolenKeys: keys}
		rng := rand.New(rand.NewSource(7))
		msg := packet.Message{Report: goldenReport}
		for _, id := range goldenHops {
			f := &Forwarder{ID: id + 10, Behavior: MarkSwap, SwapPartner: id, SwapProb: 1}
			msg, _ = f.Process(msg, env, rng)
		}
		msg, _ = InsertFake{N: 2, Impersonate: []packet.NodeID{9}}.Apply(msg, env, rng)
		msg, _ = InsertFake{N: 1}.Apply(msg, env, rng)
		if got := hex.EncodeToString(msg.Encode(nil)); got != goldenForged[name] {
			t.Errorf("%s:\n got %s\nwant %s", name, got, goldenForged[name])
		}
	}
}
