package mac

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"pnm/internal/obs"
	"pnm/internal/packet"
)

// TestScheduleMatchesCold pins the engine's correctness contract: a
// cached schedule's Sum and AnonID are bit-identical to the package-level
// (one-shot) functions for every key, message length and node ID.
func TestScheduleMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ks := NewKeyStore([]byte("schedule-equiv"))
	for trial := 0; trial < 64; trial++ {
		id := packet.NodeID(rng.Intn(1 << 12))
		k := ks.Key(id)
		s := NewSchedule(k)
		for _, n := range []int{0, 1, 31, 64, 65, 200} {
			data := make([]byte, n)
			rng.Read(data)
			if got, want := s.Sum(data, nil), Sum(k, data); got != want {
				t.Fatalf("Schedule.Sum(%d bytes) = %x, cold Sum = %x", n, got, want)
			}
		}
		report := packet.Report{
			Event:     rng.Uint32(),
			Location:  rng.Uint32(),
			Timestamp: rng.Uint64(),
			Seq:       rng.Uint32(),
		}
		if got, want := s.AnonID(report, id), AnonID(k, report, id); got != want {
			t.Fatalf("Schedule.AnonID = %x, cold AnonID = %x", got, want)
		}
	}
}

// TestScheduleTwoPartMatchesReference pins every MAC path against refMAC
// and AnonID against refAnonID, not against the package's own cold path:
// for random keys and every message length from 0 to 300, the cold Sum
// and Hasher.Sum are the reference H, and so is Sum(prefix, suffix) at
// every split point; AnonID is the reference H'. Schedules from a Hasher
// (shared scratch and store cores) and from NewSchedule (private scratch)
// are both checked, interleaved across keys so any state one call leaves
// in the shared scratch would show in the next.
func TestScheduleTwoPartMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ks := NewKeyStore([]byte("two-part"))
	h := ks.Hasher()
	data := make([]byte, 300)
	for trial := 0; trial < 4; trial++ {
		ids := []packet.NodeID{packet.NodeID(1 + rng.Intn(500)), packet.NodeID(1 + rng.Intn(500))}
		for n := 0; n <= len(data); n++ {
			rng.Read(data[:n])
			id := ids[n%2]
			k := ks.Key(id)
			want := refMAC(k, data[:n])
			if got := Sum(k, data[:n]); got != want {
				t.Fatalf("cold Sum(%v, %d bytes) = %x, reference = %x", id, n, got, want)
			}
			if got := h.Sum(id, data[:n]); got != want {
				t.Fatalf("Hasher.Sum(%v, %d bytes) = %x, reference = %x", id, n, got, want)
			}
			own := NewSchedule(k)
			for split := 0; split <= n; split++ {
				if got := h.Schedule(id).Sum(data[:split], data[split:n]); got != want {
					t.Fatalf("Hasher schedule %v: Sum(%d|%d bytes) = %x, reference = %x", id, split, n-split, got, want)
				}
				if got := own.Sum(data[:split], data[split:n]); got != want {
					t.Fatalf("NewSchedule %v: Sum(%d|%d bytes) = %x, reference = %x", id, split, n-split, got, want)
				}
			}
			report := packet.Report{Event: rng.Uint32(), Location: rng.Uint32(), Timestamp: rng.Uint64(), Seq: rng.Uint32()}
			wantAnon := refAnonID(k, report, id)
			if got := h.AnonID(id, report); got != wantAnon {
				t.Fatalf("Hasher.AnonID(%v) = %x, reference = %x", id, got, wantAnon)
			}
			if got := own.AnonID(report, id); got != wantAnon {
				t.Fatalf("NewSchedule(%v).AnonID = %x, reference = %x", id, got, wantAnon)
			}
		}
	}
}

// refSipHash is SipHash-2-4 (Aumasson and Bernstein, 2012) over a
// message of any length, written byte by byte from the paper and sharing
// no code with the package's three-word kernel: the message is padded
// with zeros to one byte short of a multiple of 8 and closed by its
// length mod 256, each 8 bytes are a little-endian word absorbed with two
// rounds, and four rounds after v2 ^= 0xff finish.
func refSipHash(key [16]byte, msg []byte) uint64 {
	return refSipHashLenByte(key, msg, byte(len(msg)))
}

// refSipHashLenByte is refSipHash with lenByte in the final word's top
// byte in place of the message length: the tests' control for what the
// length byte is for.
func refSipHashLenByte(key [16]byte, msg []byte, lenByte byte) uint64 {
	le := func(b []byte) uint64 {
		var w uint64
		for i := 7; i >= 0; i-- {
			w = w<<8 | uint64(b[i])
		}
		return w
	}
	k0, k1 := le(key[:8]), le(key[8:])
	v := [4]uint64{k0 ^ 0x736f6d6570736575, k1 ^ 0x646f72616e646f6d, k0 ^ 0x6c7967656e657261, k1 ^ 0x7465646279746573}
	round := func() {
		v[0] += v[1]
		v[1] = bits.RotateLeft64(v[1], 13)
		v[1] ^= v[0]
		v[0] = bits.RotateLeft64(v[0], 32)
		v[2] += v[3]
		v[3] = bits.RotateLeft64(v[3], 16)
		v[3] ^= v[2]
		v[0] += v[3]
		v[3] = bits.RotateLeft64(v[3], 21)
		v[3] ^= v[0]
		v[2] += v[1]
		v[1] = bits.RotateLeft64(v[1], 17)
		v[1] ^= v[2]
		v[2] = bits.RotateLeft64(v[2], 32)
	}
	b := append(append([]byte{}, msg...), make([]byte, 7-len(msg)%8)...)
	b = append(b, lenByte)
	for off := 0; off < len(b); off += 8 {
		m := le(b[off:])
		v[3] ^= m
		round()
		round()
		v[0] ^= m
	}
	v[2] ^= 0xff
	for range 4 {
		round()
	}
	return v[0] ^ v[1] ^ v[2] ^ v[3]
}

// refAnonKey is the AnonID subkey K_a, spelled out: the first 16 bytes of
// SHA-256 over the 16-byte domain string and the key.
func refAnonKey(k Key) [16]byte {
	sum := sha256.Sum256(append([]byte("pnm/anon-key/v2\x00"), k[:]...))
	return [16]byte(sum[:16])
}

// refAnonID is the tests' independent H': the first 4 bytes of
// refSipHash's little-endian output under refAnonKey(k) over the 22-byte
// message report ‖ be16(id), with the report's encoding spelled out here
// rather than taken from packet.Report.Encode.
func refAnonID(k Key, report packet.Report, id packet.NodeID) [packet.AnonIDLen]byte {
	var msg [22]byte
	binary.BigEndian.PutUint32(msg[0:], report.Event)
	binary.BigEndian.PutUint32(msg[4:], report.Location)
	binary.BigEndian.PutUint64(msg[8:], report.Timestamp)
	binary.BigEndian.PutUint32(msg[16:], report.Seq)
	binary.BigEndian.PutUint16(msg[20:], uint16(id))
	h := refSipHash(refAnonKey(k), msg[:])
	return [packet.AnonIDLen]byte{byte(h), byte(h >> 8), byte(h >> 16), byte(h >> 24)}
}

// TestRefSipHashVectors pins refSipHash to the published SipHash-2-4
// test vectors (the reference implementation's vectors.h) under the key
// 00 01 … 0f: the empty message and the 15-byte message 00 … 0e, whose
// final word carries seven message bytes.
func TestRefSipHashVectors(t *testing.T) {
	var key [16]byte
	msg := make([]byte, 15)
	for i := range key {
		key[i] = byte(i)
	}
	for i := range msg {
		msg[i] = byte(i)
	}
	for _, c := range []struct {
		n    int
		want uint64
	}{{0, 0x726fdb47dd0e0e31}, {15, 0xa129ca6149be45e5}} {
		if got := refSipHash(key, msg[:c.n]); got != c.want {
			t.Errorf("SipHash-2-4 of %d bytes = %#016x, published vector %#016x", c.n, got, c.want)
		}
	}
}

// refCore is the schedule core for k by the references: K_m and K_a as
// SipHash's two key words each.
func refCore(k Key) schedCore {
	words := func(key [16]byte) [2]uint64 {
		return [2]uint64{binary.LittleEndian.Uint64(key[:8]), binary.LittleEndian.Uint64(key[8:])}
	}
	return schedCore{mac: words(refMACKey(k)), anon: words(refAnonKey(k))}
}

// refMACKey is the marking-MAC subkey K_m, spelled out: the first 16
// bytes of SHA-256 over the 16-byte domain string and the key.
func refMACKey(k Key) [16]byte {
	sum := sha256.Sum256(append([]byte("pnm/mac-key/v2\x00\x00"), k[:]...))
	return [16]byte(sum[:16])
}

// refMAC is the tests' independent H: refSipHash's little-endian output
// under refMACKey(k) over m.
func refMAC(k Key, m []byte) [packet.MACLen]byte {
	return refTag(refSipHash(refMACKey(k), m))
}

// refTag lays a 64-bit SipHash output out little-endian.
func refTag(h uint64) [packet.MACLen]byte {
	var out [packet.MACLen]byte
	for i := range out {
		out[i] = byte(h >> (8 * i))
	}
	return out
}

// TestMarkMACLengthExtension is the forgery check for H's padding. A
// mark's tag must not verify any other message, and the extensions an
// attacker can build without the key are the messages whose padded words
// start like m's: m ‖ 0x00, m padded with zeros to its final word's
// length byte, and that glue followed by a further mark X. Against the
// control variant whose final word carries no length byte, m ‖ 0x00
// verifies under m's tag whenever the zero lands in m's own final word;
// against H none of the extensions verifies, on the cold Sum or on a
// Schedule at any split.
func TestMarkMACLengthExtension(t *testing.T) {
	k := Key{0xa5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	km := refMACKey(k)
	x := []byte("|a mark the attacker appends")
	s := NewSchedule(k)
	for _, n := range []int{0, 1, 6, 7, 8, 20, 46, 50, 163, 167, 255, 256} {
		m := make([]byte, n)
		for i := range m {
			m[i] = byte(i * 7)
		}
		if n%8 != 7 && refSipHashLenByte(km, m, 0) != refSipHashLenByte(km, append(m, 0), 0) {
			t.Fatalf("len %d: control forgery of m ‖ 0x00 failed against the variant without the length byte", n)
		}
		tag := Sum(k, m)
		if want := refMAC(k, m); tag != want {
			t.Fatalf("len %d: Sum = %x, reference = %x", n, tag, want)
		}
		glue := append(make([]byte, 7-n%8), byte(n))
		for _, ext := range [][]byte{
			append(append([]byte{}, m...), 0),
			append(append([]byte{}, m...), glue...),
			append(append(append([]byte{}, m...), glue...), x...),
		} {
			if Sum(k, ext) == tag {
				t.Fatalf("len %d: the cold Sum of a %d-byte extension verifies under m's tag", n, len(ext))
			}
			for split := 0; split <= len(ext); split++ {
				if s.Sum(ext[:split], ext[split:]) == tag {
					t.Fatalf("len %d: Schedule.Sum(%d|%d) of an extension verifies under m's tag", n, split, len(ext)-split)
				}
			}
		}
	}
}

// TestAnonIDPathsAgree pins the four ways to compute H' to one another
// for random keys, reports and IDs: the cold mac.AnonID (the node side),
// a NewSchedule's AnonID, a shared Hasher's AnonID (the sink's probe) and
// refAnonID.
func TestAnonIDPathsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	ks := NewKeyStore([]byte("anon-agree"))
	h := ks.Hasher()
	for trial := 0; trial < 500; trial++ {
		var k Key
		rng.Read(k[:])
		id := packet.NodeID(rng.Intn(1 << 16))
		report := packet.Report{Event: rng.Uint32(), Location: rng.Uint32(), Timestamp: rng.Uint64(), Seq: rng.Uint32()}
		want := refAnonID(k, report, id)
		if got := AnonID(k, report, id); got != want {
			t.Fatalf("trial %d: cold AnonID = %x, reference = %x", trial, got, want)
		}
		if got := NewSchedule(k).AnonID(report, id); got != want {
			t.Fatalf("trial %d: Schedule.AnonID = %x, reference = %x", trial, got, want)
		}
		// The store derives its own keys, so the Hasher is checked on
		// the store's key for a node ID drawn from a small range.
		sid := packet.NodeID(rng.Intn(256))
		if got, want := h.AnonID(sid, report), refAnonID(ks.Key(sid), report, sid); got != want {
			t.Fatalf("trial %d: Hasher.AnonID(%v) = %x, reference = %x", trial, sid, got, want)
		}
	}
}

// FuzzAnonIDPathsAgree pins every way to compute H' to the reference for
// a fuzzed key, report and ID: the cold AnonID, a NewSchedule's AnonID,
// and a Hasher's over a store whose master is the key bytes, on a report
// memo miss (the Hasher last saw another report), a hit, and a hit just
// after a probe for another ID.
func FuzzAnonIDPathsAgree(f *testing.F) {
	f.Add([]byte{}, uint32(0), uint32(0), uint64(0), uint32(0), uint16(0))
	f.Add([]byte("0123456789abcdef"), uint32(7), uint32(1024), uint64(1)<<40, uint32(3), uint16(2047))
	f.Add(bytes.Repeat([]byte{0xff}, 20), uint32(math.MaxUint32), uint32(1), uint64(math.MaxUint64), uint32(9), uint16(math.MaxUint16))
	f.Fuzz(func(t *testing.T, key []byte, event, location uint32, timestamp uint64, seq uint32, id uint16) {
		var k Key
		copy(k[:], key)
		report := packet.Report{Event: event, Location: location, Timestamp: timestamp, Seq: seq}
		nid := packet.NodeID(id)
		want := refAnonID(k, report, nid)
		if got := AnonID(k, report, nid); got != want {
			t.Fatalf("cold AnonID = %x, reference = %x", got, want)
		}
		if got := NewSchedule(k).AnonID(report, nid); got != want {
			t.Fatalf("Schedule.AnonID = %x, reference = %x", got, want)
		}
		ks := NewKeyStore(key)
		h := ks.Hasher()
		other := report
		other.Seq++
		h.AnonID(nid, other)
		want = refAnonID(ks.Key(nid), report, nid)
		for _, step := range []string{"memo miss", "memo hit"} {
			if got := h.AnonID(nid, report); got != want {
				t.Fatalf("Hasher.AnonID on a %s = %x, reference = %x", step, got, want)
			}
		}
		h.AnonID(nid^1, report)
		if got := h.AnonID(nid, report); got != want {
			t.Fatalf("Hasher.AnonID after another ID's probe = %x, reference = %x", got, want)
		}
	})
}

// FuzzSumPathsAgree pins every way to compute H to the reference for a
// fuzzed key and message of up to 512 bytes: the cold Sum, a
// NewSchedule's Sum and a Hasher's Sum over a store whose master is the
// key bytes, both schedules at every prefix/suffix split, each against
// refSipHash under refMACKey.
func FuzzSumPathsAgree(f *testing.F) {
	f.Add([]byte{}, []byte{}, uint16(0))
	f.Add([]byte("0123456789abcdef"), []byte("a 20-byte report...."), uint16(7))
	f.Add(bytes.Repeat([]byte{0xff}, 20), bytes.Repeat([]byte{0x5a}, 167), uint16(math.MaxUint16))
	f.Add([]byte{1}, bytes.Repeat([]byte{3}, 512), uint16(300))
	f.Fuzz(func(t *testing.T, key, msg []byte, id uint16) {
		if len(msg) > 512 {
			msg = msg[:512]
		}
		var k Key
		copy(k[:], key)
		want := refMAC(k, msg)
		if got := Sum(k, msg); got != want {
			t.Fatalf("cold Sum(%d bytes) = %x, reference = %x", len(msg), got, want)
		}
		ks := NewKeyStore(key)
		nid := packet.NodeID(id)
		h := ks.Hasher()
		wantH := refMAC(ks.Key(nid), msg)
		if got := h.Sum(nid, msg); got != wantH {
			t.Fatalf("Hasher.Sum(%d bytes) = %x, reference = %x", len(msg), got, wantH)
		}
		own := NewSchedule(k)
		for split := 0; split <= len(msg); split++ {
			if got := own.Sum(msg[:split], msg[split:]); got != want {
				t.Fatalf("NewSchedule: Sum(%d|%d bytes) = %x, reference = %x", split, len(msg)-split, got, want)
			}
			if got := h.Schedule(nid).Sum(msg[:split], msg[split:]); got != wantH {
				t.Fatalf("Hasher schedule: Sum(%d|%d bytes) = %x, reference = %x", split, len(msg)-split, got, wantH)
			}
		}
	})
}

// TestColdSumAllocs pins the node-side H at zero allocations at every
// length: the subkey's SHA-256 runs over a stack array, and SipHash reads
// the message in place.
func TestColdSumAllocs(t *testing.T) {
	k := Key{7}
	data := make([]byte, 1024)
	for _, n := range []int{0, 167, 448, 449, 1024} {
		if allocs := testing.AllocsPerRun(200, func() { Sum(k, data[:n]) }); allocs != 0 {
			t.Errorf("cold Sum of %d bytes allocates %.1f/op, want 0", n, allocs)
		}
	}
}

// TestColdAnonIDZeroAlloc pins the node-side H' at zero allocations:
// the subkey's SHA-256 and SipHash over stack arrays.
func TestColdAnonIDZeroAlloc(t *testing.T) {
	k := Key{7}
	report := packet.Report{Event: 3, Location: 4, Timestamp: 5, Seq: 6}
	if n := testing.AllocsPerRun(200, func() { AnonID(k, report, 9) }); n != 0 {
		t.Errorf("cold AnonID allocates %.1f/op, want 0", n)
	}
}

// TestAnonIDReportMemo pins the AnonID message memo: the scratch keeps
// the message words of the last report it saw, so a call for a different
// report — even one differing in a single field — must re-encode them,
// and a return to an earlier report must not reuse stale words. Every
// result, through a Hasher (one scratch across keys) and a NewSchedule,
// is checked against refAnonID.
func TestAnonIDReportMemo(t *testing.T) {
	ks := NewKeyStore([]byte("anon-memo"))
	h := ks.Hasher()
	a := packet.Report{Event: 1, Location: 2, Timestamp: 3, Seq: 4}
	b := packet.Report{Event: 9, Location: 8, Timestamp: 7, Seq: 6}
	seq := []packet.Report{a, b, a}
	for _, bump := range []func(*packet.Report){
		func(r *packet.Report) { r.Event++ },
		func(r *packet.Report) { r.Location++ },
		func(r *packet.Report) { r.Timestamp++ },
		func(r *packet.Report) { r.Seq++ },
	} {
		r := a
		bump(&r)
		seq = append(seq, r, a)
	}
	ids := []packet.NodeID{5, 300, 5}
	own := NewSchedule(ks.Key(5))
	for i, report := range seq {
		for _, id := range ids {
			want := refAnonID(ks.Key(id), report, id)
			if got := h.AnonID(id, report); got != want {
				t.Fatalf("step %d: Hasher.AnonID(%v, %+v) = %x, reference = %x", i, id, report, got, want)
			}
			if id == 5 {
				if got := own.AnonID(report, id); got != want {
					t.Fatalf("step %d: NewSchedule.AnonID(%+v) = %x, reference = %x", i, report, got, want)
				}
			}
		}
	}
}

// scratchOp is one call through a Hasher's shared scratch: an AnonID, or
// a Sum over prefix ‖ suffix bytes drawn from seed, under one of a few
// keys.
type scratchOp struct {
	anon           bool
	key            int
	prefix, suffix int
	seed           int64
	report         packet.Report
}

// scratchSeq is a random interleaving of scratch calls for quick.Check.
type scratchSeq []scratchOp

// edgeLens are the Sum part lengths (0–300) where the two-part SipHash
// changes shape: 0–16, every way a suffix can fall short of, fill or run
// past the prefix's partial word, and the lengths either side of 256,
// where the final word's length byte wraps.
var edgeLens = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 255, 256, 257}

// Generate implements quick.Generator: up to 48 calls, a third of them
// AnonIDs, with Sum part lengths drawn half from edgeLens and half
// uniformly from 0–300.
func (scratchSeq) Generate(rng *rand.Rand, _ int) reflect.Value {
	length := func() int {
		if rng.Intn(2) == 0 {
			return edgeLens[rng.Intn(len(edgeLens))]
		}
		return rng.Intn(301)
	}
	seq := make(scratchSeq, 1+rng.Intn(48))
	for i := range seq {
		seq[i] = scratchOp{
			anon:   rng.Intn(3) == 0,
			key:    rng.Intn(4),
			prefix: length(),
			suffix: length(),
			seed:   rng.Int63(),
			report: packet.Report{Event: rng.Uint32(), Location: rng.Uint32(), Timestamp: rng.Uint64(), Seq: rng.Uint32()},
		}
	}
	return reflect.ValueOf(seq)
}

// TestSharedScratchInterleavingMatchesReference drives one Hasher's
// scratch through random interleavings of Sum and AnonID over several
// keys and reports, and checks every Sum against refMAC and every AnonID
// against refAnonID. The one way a shared scratch can go wrong that a
// per-length test cannot see is state one call leaves behind for the
// next, such as stale AnonID message words. The test also requires that
// the sequences covered every edge length as a prefix and as a suffix,
// and every carry shape: each prefix residue mod 8 with each suffix
// length from 0 to 8 or more.
func TestSharedScratchInterleavingMatchesReference(t *testing.T) {
	ks := NewKeyStore([]byte("interleave"))
	ids := []packet.NodeID{3, 77, 1024, 2047}
	h := ks.Hasher()
	prefixes, suffixes, carries := map[int]bool{}, map[int]bool{}, map[[2]int]bool{}
	data := make([]byte, 600)
	prop := func(seq scratchSeq) bool {
		for i, op := range seq {
			id := ids[op.key]
			k := ks.Key(id)
			if op.anon {
				want := refAnonID(k, op.report, id)
				if got := h.AnonID(id, op.report); got != want {
					t.Logf("call %d of %d: AnonID(%v) = %x, reference = %x", i, len(seq), id, got, want)
					return false
				}
				continue
			}
			msg := data[:op.prefix+op.suffix]
			rand.New(rand.NewSource(op.seed)).Read(msg)
			prefix, suffix := msg[:op.prefix], msg[op.prefix:]
			want := refMAC(k, msg)
			if got := h.Schedule(id).Sum(prefix, suffix); got != want {
				t.Logf("call %d of %d: Sum(%v, %d|%d bytes) = %x, reference = %x", i, len(seq), id, op.prefix, op.suffix, got, want)
				return false
			}
			prefixes[op.prefix], suffixes[op.suffix] = true, true
			carries[[2]int{op.prefix % 8, min(op.suffix, 8)}] = true
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(23))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
	for _, n := range edgeLens {
		if !prefixes[n] || !suffixes[n] {
			t.Errorf("edge length %d not covered (prefix %v, suffix %v)", n, prefixes[n], suffixes[n])
		}
	}
	for r := range 8 {
		for n := range 9 {
			if !carries[[2]int{r, n}] {
				t.Errorf("carry shape (prefix %% 8 = %d, suffix %d) not covered", r, n)
			}
		}
	}
}

// TestScheduleReuseIsStateless verifies that interleaving Sum and AnonID
// calls on one schedule never leaks state between calls.
func TestScheduleReuseIsStateless(t *testing.T) {
	ks := NewKeyStore([]byte("schedule-reuse"))
	k := ks.Key(3)
	s := NewSchedule(k)
	data := []byte("the same input every time")
	report := packet.Report{Event: 1, Location: 2, Timestamp: 3, Seq: 4}
	wantSum := Sum(k, data)
	wantAnon := AnonID(k, report, 3)
	for i := 0; i < 10; i++ {
		if got := s.Sum(data, nil); got != wantSum {
			t.Fatalf("call %d: Sum drifted: %x != %x", i, got, wantSum)
		}
		if got := s.AnonID(report, 3); got != wantAnon {
			t.Fatalf("call %d: AnonID drifted: %x != %x", i, got, wantAnon)
		}
	}
}

// TestScheduleZeroAllocs pins the zero-alloc claim the sink's throughput
// rests on: after construction, neither Sum (whole or split input) nor
// AnonID allocates, on a NewSchedule or through a warm Hasher — the path
// every sink verifier and resolver takes.
func TestScheduleZeroAllocs(t *testing.T) {
	ks := NewKeyStore([]byte("schedule-allocs"))
	s := NewSchedule(ks.Key(1))
	h := ks.Hasher()
	h.Schedule(2)
	data := make([]byte, 200)
	report := packet.Report{Event: 9, Location: 9, Timestamp: 9, Seq: 9}

	for _, c := range []struct {
		name string
		op   func()
	}{
		{"Schedule.Sum", func() { s.Sum(data, nil) }},
		{"Schedule.Sum (split)", func() { s.Sum(data[:90], data[90:96]) }},
		{"Schedule.Sum (dense-300 shape)", func() { s.Sum(data[:163], data[163:167]) }},
		{"Schedule.Sum (suffix across a word)", func() { s.Sum(data[:61], data[61:80]) }},
		{"Schedule.Sum (word-aligned prefix)", func() { s.Sum(data[:56], data[56:60]) }},
		{"Schedule.AnonID", func() { s.AnonID(report, 1) }},
		{"Hasher Sum (split)", func() { h.Schedule(2).Sum(data[:90], data[90:96]) }},
		{"Hasher.AnonID", func() { h.AnonID(2, report) }},
	} {
		if n := testing.AllocsPerRun(200, c.op); n != 0 {
			t.Errorf("%s allocates %.1f/op, want 0", c.name, n)
		}
	}
}

// TestHasherCachesSchedules verifies the per-goroutine cache hands back
// the same schedule per node, counts misses as they happen and hits once
// published, and keeps one scratch for all of its schedules.
func TestHasherCachesSchedules(t *testing.T) {
	ks := NewKeyStore([]byte("hasher-cache"))
	h := ks.Hasher()
	reg := obs.New()
	h.Instrument(reg)

	s1 := h.Schedule(7)
	if s2 := h.Schedule(7); s2 != s1 {
		t.Fatal("second Schedule(7) returned a different instance")
	}
	if s8 := h.Schedule(8); s8.sc != s1.sc || s8.core == s1.core {
		t.Error("schedules of one Hasher must share its scratch and keep per-key cores")
	}
	if hits := reg.Counter("mac.schedule.hits").Value(); hits != 0 {
		t.Errorf("hits = %d before Publish, want 0 (published per call boundary)", hits)
	}
	h.Publish()
	if hits := reg.Counter("mac.schedule.hits").Value(); hits != 1 {
		t.Errorf("hits = %d after Publish, want 1", hits)
	}
	if misses := reg.Counter("mac.schedule.misses").Value(); misses != 2 {
		t.Errorf("misses = %d, want 2", misses)
	}

	// The convenience forms agree with the cold path.
	data := []byte("hello")
	if got, want := h.Sum(7, data), Sum(ks.Key(7), data); got != want {
		t.Errorf("Hasher.Sum = %x, want %x", got, want)
	}
	report := packet.Report{Event: 5}
	if got, want := h.AnonID(7, report), AnonID(ks.Key(7), report, 7); got != want {
		t.Errorf("Hasher.AnonID = %x, want %x", got, want)
	}
}

// TestHashersShareStoreCores pins the per-key/per-goroutine split: two
// Hashers over one store read the same 32-byte core per node (built once,
// counted by CoreBuilds, without caching the node's key) through their
// own scratch, a Hasher keeps one pointer per node and hands out
// two-pointer Schedules.
func TestHashersShareStoreCores(t *testing.T) {
	ks := NewKeyStore([]byte("shared-cores"))
	a, b := ks.Hasher(), ks.Hasher()
	if n := unsafe.Sizeof(schedCore{}); n != 32 {
		t.Errorf("schedCore is %d bytes, want 32 (two SipHash keys)", n)
	}
	ptr := unsafe.Sizeof(uintptr(0))
	if n := unsafe.Sizeof(a.cores[0]); n != ptr {
		t.Errorf("Hasher table entry is %d bytes, want %d (one core pointer)", n, ptr)
	}
	if n := unsafe.Sizeof(Schedule{}); n != 2*ptr {
		t.Errorf("Schedule is %d bytes, want %d (core and scratch pointers)", n, 2*ptr)
	}
	for id := packet.NodeID(1); id <= 5; id++ {
		sa, sb := a.Schedule(id), b.Schedule(id)
		if sa.core != sb.core {
			t.Fatalf("node %v: hashers hold different cores", id)
		}
		if sa.sc == sb.sc {
			t.Fatalf("node %v: hashers share a scratch", id)
		}
	}
	if got := ks.CoreBuilds(); got != 5 {
		t.Fatalf("CoreBuilds = %d after two hashers warmed 5 nodes, want 5", got)
	}
	if len(ks.keys) != 0 {
		t.Errorf("store caches %d key slots after building cores, want 0 (a core absorbs its key)", len(ks.keys))
	}
}

// benchData is a representative nested-MAC input: a report plus a few
// marks' worth of bytes.
var benchData = make([]byte, 80)

// BenchmarkSumCold measures the node-side path: K_m's SHA-256
// compression, then SipHash over the message.
func BenchmarkSumCold(b *testing.B) {
	ks := NewKeyStore([]byte("bench"))
	k := ks.Key(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Sum(k, benchData)
	}
}

// BenchmarkSumSchedule measures the cached-schedule path the sink runs.
func BenchmarkSumSchedule(b *testing.B) {
	ks := NewKeyStore([]byte("bench"))
	s := NewSchedule(ks.Key(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Sum(benchData, nil)
	}
}

// BenchmarkAnonIDCold measures the one-shot anonymous-ID derivation —
// the per-node unit of ExhaustiveResolver.buildTable's O(n) loop.
func BenchmarkAnonIDCold(b *testing.B) {
	ks := NewKeyStore([]byte("bench"))
	k := ks.Key(1)
	report := packet.Report{Event: 1, Seq: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		AnonID(k, report, 1)
	}
}

// BenchmarkAnonIDSchedule measures the cached-schedule derivation.
func BenchmarkAnonIDSchedule(b *testing.B) {
	ks := NewKeyStore([]byte("bench"))
	s := NewSchedule(ks.Key(1))
	report := packet.Report{Event: 1, Seq: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.AnonID(report, 1)
	}
}

// BenchmarkAnonIDHasher2k measures the resolver's probe shape on
// keyed-2k: one report, anonymous IDs over 2,048 warm keys taken in a
// scattered order, so each call restores a different key's core.
func BenchmarkAnonIDHasher2k(b *testing.B) {
	const nodes = 2048
	ks := NewKeyStore([]byte("bench"))
	h := ks.Hasher()
	for id := packet.NodeID(0); id < nodes; id++ {
		h.Schedule(id)
	}
	report := packet.Report{Event: 1, Location: 17, Timestamp: 5, Seq: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.AnonID(packet.NodeID(i*613%nodes), report)
	}
}

// benchSumSplit measures a nested-MAC check the way the verifier runs
// it: a per-packet encoding prefix of prefixLen bytes and a 4-byte
// anonymous-ID suffix.
func benchSumSplit(b *testing.B, prefixLen int) {
	ks := NewKeyStore([]byte("bench"))
	s := NewSchedule(ks.Key(1))
	data := make([]byte, prefixLen+packet.AnonIDLen)
	for i := range data {
		data[i] = byte(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sum(data[:prefixLen], data[prefixLen:])
	}
}

// BenchmarkSumSplitKeyed2k is keyed-2k's 50-byte check: a 20-byte report
// and two 13-byte anonymous marks, then the candidate's anonymous ID.
func BenchmarkSumSplitKeyed2k(b *testing.B) { benchSumSplit(b, 46) }

// BenchmarkSumSplitDense300 is dense-300's 167-byte check: a 20-byte
// report and 11 13-byte anonymous marks, then the candidate's anonymous
// ID.
func BenchmarkSumSplitDense300(b *testing.B) { benchSumSplit(b, 163) }

// BenchmarkScheduleCold2k measures a sink's cold start on keyed-2k's
// 2,048-node field: a fresh store and Hasher, then Hasher.Schedule over
// 2,048 node IDs that all miss, so each call derives its node's key and
// builds its core. One op is the whole warm-up.
func BenchmarkScheduleCold2k(b *testing.B) {
	const nodes = 2048
	master := []byte("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := NewKeyStore(master).Hasher()
		for id := packet.NodeID(0); id < nodes; id++ {
			h.Schedule(id)
		}
	}
}

// TestHashersColdMissConcurrent races two Hashers on one store through
// the same 2,048 cold IDs, each on its own goroutine: every build
// derives and absorbs on its Hasher's scratch under the store's lock.
// Both must hand out the cores a single-goroutine store builds, the
// store must build each core once, and schedules from either must MAC
// like the single-goroutine one's.
func TestHashersColdMissConcurrent(t *testing.T) {
	const nodes = 2048
	master := []byte("cold-race")
	ks := NewKeyStore(master)
	hs := [2]*Hasher{ks.Hasher(), ks.Hasher()}
	var wg sync.WaitGroup
	for _, h := range hs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := packet.NodeID(0); id < nodes; id++ {
				h.Schedule(id)
			}
		}()
	}
	wg.Wait()
	if got := ks.CoreBuilds(); got != nodes {
		t.Errorf("CoreBuilds = %d after two hashers missed %d IDs, want %d", got, nodes, nodes)
	}
	ref := NewKeyStore(master).Hasher()
	data := []byte("cold miss")
	report := packet.Report{Event: 4, Seq: 1}
	for id := packet.NodeID(0); id < nodes; id++ {
		want := ref.Schedule(id)
		for i, h := range hs {
			got := h.Schedule(id)
			if *got.core != *want.core {
				t.Fatalf("hasher %d node %v: core %x, single-goroutine store %x", i, id, *got.core, *want.core)
			}
			if got.Sum(data, nil) != want.Sum(data, nil) || got.AnonID(report, id) != want.AnonID(report, id) {
				t.Fatalf("hasher %d node %v: schedule disagrees with the single-goroutine store's", i, id)
			}
		}
		if hs[0].Schedule(id).core != hs[1].Schedule(id).core {
			t.Fatalf("node %v: hashers hold different cores", id)
		}
	}
}

// TestColdScheduleAllocs pins the cold path's allocations: derive makes
// none, and a cold Hasher.Schedule makes its core plus, at each doubling,
// a grown copy of the store's and the Hasher's tables — at most 1.1 per
// fresh ID over 2,048, in every build.
func TestColdScheduleAllocs(t *testing.T) {
	ks := NewKeyStore([]byte("cold-allocs"))
	h := ks.Hasher()
	if n := testing.AllocsPerRun(200, func() { ks.derive(9) }); n != 0 {
		t.Errorf("derive allocates %.1f/op, want 0", n)
	}
	// AllocsPerRun makes one warm-up call before the 2,048 it counts, so
	// every counted call is a fresh ID.
	next := packet.NodeID(0)
	if n := testing.AllocsPerRun(2048, func() { h.Schedule(next); next++ }); n > 1.1 {
		t.Errorf("cold Hasher.Schedule allocates %.3f per fresh ID, want at most 1.1", n)
	}
}

// TestWarmupTablesGrowLogarithmically pins growTo's geometric growth: a
// warm-up over every NodeID in ascending order reallocates each
// NodeID-indexed table (the store's keys and cores, the Hasher's cores)
// at most 2·log2(N) times (28 for N = 65,536), where growing 64 entries
// at a time would copy the table 1,024 times.
func TestWarmupTablesGrowLogarithmically(t *testing.T) {
	const n = math.MaxUint16 + 1
	ks := NewKeyStore([]byte("warm-up"))
	h := ks.Hasher()
	var lens, grows [3]int
	for id := 0; id < n; id++ {
		ks.Key(packet.NodeID(id))
		h.Schedule(packet.NodeID(id))
		for i, l := range [3]int{len(ks.keys), len(ks.cores), len(h.cores)} {
			if l != lens[i] {
				lens[i] = l
				grows[i]++
			}
		}
	}
	for i, name := range [3]string{"store keys", "store cores", "Hasher cores"} {
		if lens[i] != n {
			t.Errorf("%s table holds %d entries after the warm-up, want %d", name, lens[i], n)
		}
		if bound := 2 * (bits.Len(n) - 1); grows[i] > bound {
			t.Errorf("%s table grew %d times over %d ascending IDs, want at most %d", name, grows[i], n, bound)
		}
	}
}

// TestBuildCoreLeavesNoKey pins DESIGN §9's "a sink-side store holds no
// keys": after a Hasher's cold Schedule and after NewSchedule, neither
// the key nor HMAC's inner digest, from which the store's opad block
// gives the key, appears in the core or the scratch, and the store has
// cached no key slot.
func TestBuildCoreLeavesNoKey(t *testing.T) {
	const id = 41
	master := []byte("no-key-left")
	k := NewKeyStore(master).Key(id)
	mk := sha256.Sum256(master)
	ipad := bytes.Repeat([]byte{0x36}, blockSize)
	for i, b := range mk {
		ipad[i] ^= b
	}
	inner := sha256.Sum256(append(ipad, "key/\x00\x29"...))
	ks := NewKeyStore(master)
	h := ks.Hasher()
	for _, c := range []struct {
		name string
		s    Schedule
	}{{"Hasher", h.Schedule(id)}, {"NewSchedule", NewSchedule(k)}} {
		core := unsafe.Slice((*byte)(unsafe.Pointer(c.s.core)), unsafe.Sizeof(*c.s.core))
		sc := unsafe.Slice((*byte)(unsafe.Pointer(c.s.sc)), unsafe.Sizeof(*c.s.sc))
		for _, mem := range [][]byte{core, sc} {
			if bytes.Contains(mem, k[:]) || bytes.Contains(mem, inner[:KeyLen]) {
				t.Errorf("%s schedule keeps the key or the inner digest after a build", c.name)
			}
		}
	}
	if len(ks.keys) != 0 {
		t.Errorf("store caches %d key slots after a core build, want 0", len(ks.keys))
	}
}
