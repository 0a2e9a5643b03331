package marking

import (
	"encoding/hex"
	"math/rand"
	"testing"

	"pnm/internal/mac"
	"pnm/internal/packet"
)

// The golden marks are an oracle that does not run this package's code:
// each string is the hex wire encoding of one report marked along hops
// 6..1 under one scheme, recorded from an earlier implementation in which
// every marking path wrote its marks with its own code. A change to the
// mark format, the coin or the MAC input fails here even when every path
// changes the same way.
var (
	goldenKS     = mac.NewKeyStore([]byte("golden-marks"))
	goldenReport = packet.Report{Event: 0xE7, Location: 0x1C, Timestamp: 1_000_003, Seq: 42}
	goldenHops   = []packet.NodeID{6, 5, 4, 3, 2, 1}
)

const (
	goldenSeed = 7
	goldenP    = 0.5
)

var goldenMarks = map[string]string{
	"nested": "000000e70000001c00000000000f42430000002a000006c26a41410995a09a000005807172b3c49ba40b0000048a764dd33d515d99000003a3f3074e93b576650000024d5d9d7008660cae000001f94386fc8d0d7213",
	"pnm":    "000000e70000001c00000000000f42430000002a01e10a1d366e89f30d9d647e3601acbf1536847f2f00a9033fc30180ce28e524ffa362ab195a24",
	"naive":  "000000e70000001c00000000000f42430000002a00000516ac6a7cb948f4be000004649dcc68a30ac98a0000012ca5d279b5a32646",
	"ams":    "000000e70000001c00000000000f42430000002a00000516ac6a7cb948f4be000004bfddc3384f104a0c000001b7257b4df3de6dcd",
	"ppm":    "000000e70000001c00000000000f42430000002a000005000000000000000000000400000000000000000000010000000000000000",
	"none":   "000000e70000001c00000000000f42430000002a",
}

// checkGolden compares msg's wire encoding with scheme name's golden hex.
func checkGolden(t *testing.T, path, name string, msg packet.Message) {
	t.Helper()
	if got := hex.EncodeToString(msg.Encode(nil)); got != goldenMarks[name] {
		t.Errorf("%s %s:\n got %s\nwant %s", name, path, got, goldenMarks[name])
	}
}

// TestGoldenMarkBytes pins every marking path against the golden bytes:
// per-hop Scheme.Mark, the incremental encoder, and PNM's in-place
// schedule path, each from the same rng seed.
func TestGoldenMarkBytes(t *testing.T) {
	for _, name := range Names() {
		s, err := New(name, goldenP)
		if err != nil {
			t.Fatal(err)
		}

		rng := rand.New(rand.NewSource(goldenSeed))
		msg := packet.Message{Report: goldenReport}
		for _, id := range goldenHops {
			msg = s.Mark(id, goldenKS.Key(id), msg, rng)
		}
		checkGolden(t, "Mark", name, msg)

		rng = rand.New(rand.NewSource(goldenSeed))
		inc := NewIncremental(goldenReport)
		for _, id := range goldenHops {
			inc.Apply(s, id, goldenKS.Key(id), rng)
		}
		checkGolden(t, "Incremental", name, inc.Message())

		if pnm, ok := s.(PNM); ok {
			rng = rand.New(rand.NewSource(goldenSeed))
			msg := packet.Message{Report: goldenReport}
			var buf []byte
			for _, id := range goldenHops {
				buf = pnm.MarkSched(mac.NewSchedule(goldenKS.Key(id)), buf, &msg, id, rng)
			}
			checkGolden(t, "MarkSched", name, msg)
		}
	}
}
