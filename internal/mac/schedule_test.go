package mac

import (
	"crypto/sha256"
	"encoding/binary"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"pnm/internal/obs"
	"pnm/internal/packet"
)

// TestScheduleMatchesCold pins the engine's correctness contract: a
// cached schedule's Sum and AnonID are bit-identical to the package-level
// (one-shot SHA-256) functions for every key, message length and node ID.
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

// refK holds FIPS 180-4's SHA-256 round constants (§4.2.2).
var refK = [64]uint32{
	0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
	0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
	0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
	0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
	0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
	0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
	0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
	0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
}

// refIV is SHA-256's initial hash value (FIPS 180-4 §5.3.3).
var refIV = [8]uint32{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19}

// refCompress is SHA-256's compression of one 64-byte block from chaining
// value h, written from FIPS 180-4 §6.2.2 and sharing no code with the
// stdlib digest the schedule drives.
func refCompress(h [8]uint32, block []byte) [8]uint32 {
	rotr := func(x uint32, n int) uint32 { return bits.RotateLeft32(x, -n) }
	var w [64]uint32
	for t := range 16 {
		w[t] = binary.BigEndian.Uint32(block[4*t:])
	}
	for t := 16; t < 64; t++ {
		s0 := rotr(w[t-15], 7) ^ rotr(w[t-15], 18) ^ w[t-15]>>3
		s1 := rotr(w[t-2], 17) ^ rotr(w[t-2], 19) ^ w[t-2]>>10
		w[t] = s1 + w[t-7] + s0 + w[t-16]
	}
	a, b, c, d, e, f, g, hh := h[0], h[1], h[2], h[3], h[4], h[5], h[6], h[7]
	for t := range 64 {
		t1 := hh + (rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25)) + (e&f ^ ^e&g) + refK[t] + w[t]
		t2 := (rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22)) + (a&b ^ a&c ^ b&c)
		hh, g, f, e, d, c, b, a = g, f, e, d+t1, c, b, a, t1+t2
	}
	return [8]uint32{h[0] + a, h[1] + b, h[2] + c, h[3] + d, h[4] + e, h[5] + f, h[6] + g, h[7] + hh}
}

// refAnonID is the tests' independent H': the first 4 bytes of
// SHA-256(key block ‖ message block) computed by refCompress, with both
// blocks and the padding spelled out here rather than taken from the
// package's constants.
func refAnonID(k Key, report packet.Report, id packet.NodeID) [packet.AnonIDLen]byte {
	var key, msg [64]byte
	copy(key[:], "pnm/anon-key/v1\x00")
	copy(key[16:], k[:])
	copy(msg[:], "pnm/anon-id/v2")
	binary.BigEndian.PutUint32(msg[14:], report.Event)
	binary.BigEndian.PutUint32(msg[18:], report.Location)
	binary.BigEndian.PutUint64(msg[22:], report.Timestamp)
	binary.BigEndian.PutUint32(msg[30:], report.Seq)
	binary.BigEndian.PutUint16(msg[34:], uint16(id))
	msg[36] = 0x80
	binary.BigEndian.PutUint64(msg[56:], 100*8) // 100 message bytes, in bits
	var out [packet.AnonIDLen]byte
	binary.BigEndian.PutUint32(out[:], refCompress(refCompress(refIV, key[:]), msg[:])[0])
	return out
}

// refPad is SHA-256's padding for an n-byte input: 0x80, zeros up to 56
// mod 64, then the input's bit length.
func refPad(n int) []byte {
	p := []byte{0x80}
	for (n+len(p))%64 != 56 {
		p = append(p, 0)
	}
	return binary.BigEndian.AppendUint64(p, uint64(n)*8)
}

// refContinue hashes msg by refCompress from chaining value h, which has
// already absorbed done bytes (a multiple of 64), padding msg for a
// done+len(msg)-byte input, and returns the full 32-byte final state.
func refContinue(h [8]uint32, done int, msg []byte) [8]uint32 {
	m := append(msg[:len(msg):len(msg)], refPad(done+len(msg))...)
	for off := 0; off < len(m); off += 64 {
		h = refCompress(h, m[off:off+64])
	}
	return h
}

// refMACKey is the marking-MAC key block, spelled out: the 16-byte
// domain string, the key, and 32 zeros.
func refMACKey(k Key) [64]byte {
	var key [64]byte
	copy(key[:], "pnm/mac-key/v1\x00\x00")
	copy(key[16:], k[:])
	return key
}

// refTrunc is the first 8 bytes of a hash state, big-endian.
func refTrunc(h [8]uint32) [packet.MACLen]byte {
	var out [packet.MACLen]byte
	binary.BigEndian.PutUint32(out[:], h[0])
	binary.BigEndian.PutUint32(out[4:], h[1])
	return out
}

// refMACInput is the bytes H hashes for message m under k: the key
// block, the 4-byte big-endian length of m, then m.
func refMACInput(k Key, m []byte) []byte {
	key := refMACKey(k)
	in := binary.BigEndian.AppendUint32(key[:], uint32(len(m)))
	return append(in, m...)
}

// refMAC is the tests' independent H: the first 8 bytes of
// SHA-256(key block ‖ be32(len m) ‖ m), computed by refCompress.
func refMAC(k Key, m []byte) [packet.MACLen]byte {
	return refTrunc(refContinue(refIV, 0, refMACInput(k, m)))
}

// TestMarkMACLengthExtension shows what the length word is for. An
// attacker holding a MAC's full 32-byte state — more than the 8 bytes a
// mark carries — can keep hashing from it over glue ‖ X, where glue is
// SHA-256's padding of the keyed input. Against SHA-256(key block ‖ m),
// the construction without the length word, that forges the MAC of
// m ‖ glue ‖ X without the key. Against H the forged input's length word
// differs from the one the state absorbed, so the same forgery fails on
// the cold Sum and on a Schedule. Message lengths cover one- and
// two-block glue.
func TestMarkMACLengthExtension(t *testing.T) {
	k := Key{0xa5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	x := []byte("|a mark the attacker appends")
	for _, n := range []int{0, 20, 46, 51, 52, 60, 64, 163} {
		m := make([]byte, n)
		for i := range m {
			m[i] = byte(i * 7)
		}
		// extend forges from the full state of SHA-256(in): it returns
		// the forged message m ‖ glue ‖ x and its truncated hash.
		extend := func(in []byte) ([]byte, [packet.MACLen]byte) {
			state := refContinue(refIV, 0, in)
			glue := refPad(len(in))
			ext := append(append(append([]byte{}, m...), glue...), x...)
			return ext, refTrunc(refContinue(state, len(in)+len(glue), x))
		}

		key := refMACKey(k)
		ext, forged := extend(append(key[:], m...))
		noLen := sha256.Sum256(append(key[:], ext...))
		if forged != [packet.MACLen]byte(noLen[:]) {
			t.Fatalf("len %d: control forgery failed against the no-length-word variant", n)
		}

		in := refMACInput(k, m)
		if got, want := Sum(k, m), refTrunc(refContinue(refIV, 0, in)); got != want {
			t.Fatalf("len %d: Sum = %x, but the attacker's state truncates to %x", n, got, want)
		}
		ext, forged = extend(in)
		if got := Sum(k, ext); got == forged {
			t.Fatalf("len %d: length extension forged the cold Sum of m ‖ glue ‖ X", n)
		}
		if got := NewSchedule(k).Sum(ext[:n], ext[n:]); got == forged {
			t.Fatalf("len %d: length extension forged Schedule.Sum of m ‖ glue ‖ X", n)
		}
	}
}

// TestRefCompressMatchesSum256 checks the reference against
// sha256.Sum256 on a one-block message, so a fault in refCompress itself
// cannot pass for a fault in the code under test.
func TestRefCompressMatchesSum256(t *testing.T) {
	var block [64]byte
	n := copy(block[:], "abc")
	block[n] = 0x80
	binary.BigEndian.PutUint64(block[56:], uint64(n)*8)
	want := sha256.Sum256([]byte("abc"))
	var got [sha256.Size]byte
	for i, w := range refCompress(refIV, block[:]) {
		binary.BigEndian.PutUint32(got[4*i:], w)
	}
	if got != want {
		t.Fatalf("refCompress(\"abc\") = %x, sha256.Sum256 = %x", got, want)
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

// TestColdSumAllocs pins the node-side H at zero allocations for a
// message that fits coldStack, as every mark chain the experiments build
// does, and at one beyond it.
func TestColdSumAllocs(t *testing.T) {
	k := Key{7}
	data := make([]byte, coldStack+1)
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {167, 0}, {coldStack, 0}, {coldStack + 1, 1}} {
		if n := testing.AllocsPerRun(200, func() { Sum(k, data[:c.n]) }); n != c.want {
			t.Errorf("cold Sum of %d bytes allocates %.1f/op, want %.0f", c.n, n, c.want)
		}
	}
}

// TestColdAnonIDZeroAlloc pins the node-side H' at zero allocations:
// one SHA-256 over a stack array.
func TestColdAnonIDZeroAlloc(t *testing.T) {
	k := Key{7}
	report := packet.Report{Event: 3, Location: 4, Timestamp: 5, Seq: 6}
	if n := testing.AllocsPerRun(200, func() { AnonID(k, report, 9) }); n != 0 {
		t.Errorf("cold AnonID allocates %.1f/op, want 0", n)
	}
}

// TestWholeBlockPaddingMatchesSum256 pins the premise of the whole-block
// engine on the running Go release: a fresh digest fed a message's whole
// blocks and then the padded tail padBlocks builds holds exactly
// sha256.Sum256 of the message, both in the state words the hot path
// reads in place and at chainOff of its marshaled state. Lengths 0–200
// cover one- and two-block padding (len % 64 below and from 56) and
// multi-block messages.
func TestWholeBlockPaddingMatchesSum256(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sc := newScratch()
	m := make([]byte, 200)
	for n := 0; n <= len(m); n++ {
		rng.Read(m[:n])
		sc.h.Reset()
		pending := sc.absorb(0, m[:n])
		sc.h.Write(sc.tail[:padBlocks(sc.tail[:], pending, n)])
		want := sha256.Sum256(m[:n])
		var words [sha256.Size]byte
		putWords(words[:], sc.words)
		if words != want {
			t.Fatalf("len %d: state words %x, sha256.Sum256 %x", n, words, want)
		}
		st, err := sc.h.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if got := [sha256.Size]byte(st[chainOff:]); got != want {
			t.Fatalf("len %d: chaining value at chainOff %x, sha256.Sum256 %x", n, got, want)
		}
	}
}

// TestAnonIDReportMemo pins the AnonID block memo: the scratch keeps the
// encoded block of the last report it saw, so a call for a different
// report — even one differing in a single field — must re-encode it, and
// a return to an earlier report must not reuse a stale block. Every
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

// edgeLens are the Sum part lengths (0–300) where the whole-block engine
// changes shape: each block boundary of the keyed input (which the length
// word shifts by 4) and its neighbours, and the last one-block-padding
// and first two-block-padding lengths after it.
var edgeLens = func() []int {
	var out []int
	for b := -macLenLen; b <= 300; b += blockSize {
		for _, n := range []int{b - 1, b, b + 1, b + 55, b + 56} {
			if n >= 0 && n <= 300 {
				out = append(out, n)
			}
		}
	}
	return out
}()

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
// against refAnonID. A restore writes only the digest's state words, so
// the one way it can go wrong that a per-length test cannot see is state
// one call leaves behind for the next: a buffered tail, a stale length
// word, a stale AnonID block. The test also requires that the sequences
// covered every edge length as a prefix and as a suffix, and every
// two-block-padding residue of the keyed input.
func TestSharedScratchInterleavingMatchesReference(t *testing.T) {
	ks := NewKeyStore([]byte("interleave"))
	ids := []packet.NodeID{3, 77, 1024, 2047}
	h := ks.Hasher()
	prefixes, suffixes, twoBlock := map[int]bool{}, map[int]bool{}, map[int]bool{}
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
			if r := (macLenLen + len(msg)) % blockSize; r >= blockSize-8 {
				twoBlock[r] = true
			}
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
	for r := blockSize - 8; r < blockSize; r++ {
		if !twoBlock[r] {
			t.Errorf("two-block padding residue %d not covered", r)
		}
	}
}

// TestStateTemplateLayout pins the layout guard's premise on the running
// Go release: a digest after one 64-byte block marshals to the template
// with its chaining value at chainOff, and a fresh scratch whose state
// words are overwritten with a core's chaining value hashes exactly like
// the digest that absorbed the key block — the MAC or the AnonID key
// block — and each of a core's two values is the one its block gives.
func TestStateTemplateLayout(t *testing.T) {
	k := Key{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	macKey := refMACKey(k)
	var anon [blockSize]byte
	anonKeyBlock(anon[:], k)
	core := newSchedCore(k)
	for _, c := range []struct {
		name  string
		block []byte
		core  *[8]uint32
	}{{"mac key", macKey[:], &core.mac}, {"anon key", anon[:], &core.anon}} {
		var chain [8]uint32
		absorbKeyBlock(&chain, c.block) // panics on a layout mismatch
		if chain != *c.core {
			t.Fatalf("%s: core holds %x, absorbKeyBlock gives %x", c.name, *c.core, chain)
		}
		live := sha256.New()
		live.Write(c.block)
		sc := newScratch()
		sc.restore(&chain)
		msg := []byte("after the key block")
		live.Write(msg)
		sc.h.Write(msg)
		if got, want := sc.h.Sum(nil), live.Sum(nil); string(got) != string(want) {
			t.Fatalf("%s: restored state hashes to %x, live digest to %x", c.name, got, want)
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
		{"Schedule.Sum (prefix over 128 bytes)", func() { s.Sum(data[:150], data[150:154]) }},
		{"Schedule.Sum (suffix across a block)", func() { s.Sum(data[:60], data[60:80]) }},
		{"Schedule.Sum (two-block padding)", func() { s.Sum(data[:56], data[56:60]) }},
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
// Hashers over one store read the same 64-byte core per node (built once,
// counted by CoreBuilds, without caching the node's key) through their
// own scratch, a Hasher keeps one pointer per node and hands out
// two-pointer Schedules.
func TestHashersShareStoreCores(t *testing.T) {
	ks := NewKeyStore([]byte("shared-cores"))
	a, b := ks.Hasher(), ks.Hasher()
	if n := unsafe.Sizeof(schedCore{}); n != 2*sha256.Size {
		t.Errorf("schedCore is %d bytes, want %d (two chaining values)", n, 2*sha256.Size)
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

// BenchmarkSumCold measures the node-side path: one SHA-256 over the key
// block, the length word and the message, key-block compression included.
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
