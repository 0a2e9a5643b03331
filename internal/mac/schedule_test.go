package mac

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"testing"
	"unsafe"

	"pnm/internal/obs"
	"pnm/internal/packet"
)

// TestScheduleMatchesColdHMAC pins the engine's correctness contract: a
// cached schedule's Sum and AnonID are bit-identical to the package-level
// (fresh-hmac.New) functions for every key, message length and node ID.
func TestScheduleMatchesColdHMAC(t *testing.T) {
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

// TestScheduleTwoPartMatchesStdlibHMAC pins the two-part Sum and AnonID
// against crypto/hmac directly, not against the package's own cold
// path: for random keys, every message length from 0 to 300 and every
// split point of it, Sum(prefix, suffix) is the truncated
// HMAC-SHA256(prefix ‖ suffix), and AnonID the truncated HMAC of
// anonDomain ‖ report ‖ id. Schedules from a Hasher (shared scratch and
// store cores) and from NewSchedule (private scratch) are both checked,
// interleaved across keys so any state one call leaves in the shared
// scratch would show in the next.
func TestScheduleTwoPartMatchesStdlibHMAC(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ks := NewKeyStore([]byte("two-part"))
	h := ks.Hasher()
	stdlib := func(k Key, parts ...[]byte) []byte {
		m := hmac.New(sha256.New, k[:])
		for _, p := range parts {
			m.Write(p)
		}
		return m.Sum(nil)
	}
	data := make([]byte, 300)
	for trial := 0; trial < 4; trial++ {
		ids := []packet.NodeID{packet.NodeID(1 + rng.Intn(500)), packet.NodeID(1 + rng.Intn(500))}
		for n := 0; n <= len(data); n++ {
			rng.Read(data[:n])
			id := ids[n%2]
			k := ks.Key(id)
			want := [packet.MACLen]byte(stdlib(k, data[:n]))
			own := NewSchedule(k)
			for split := 0; split <= n; split++ {
				if got := h.Schedule(id).Sum(data[:split], data[split:n]); got != want {
					t.Fatalf("Hasher schedule %v: Sum(%d|%d bytes) = %x, crypto/hmac = %x", id, split, n-split, got, want)
				}
				if got := own.Sum(data[:split], data[split:n]); got != want {
					t.Fatalf("NewSchedule %v: Sum(%d|%d bytes) = %x, crypto/hmac = %x", id, split, n-split, got, want)
				}
			}
			report := packet.Report{Event: rng.Uint32(), Location: rng.Uint32(), Timestamp: rng.Uint64(), Seq: rng.Uint32()}
			idb := binary.BigEndian.AppendUint16(nil, uint16(id))
			wantAnon := [packet.AnonIDLen]byte(stdlib(k, []byte(anonDomain), report.Encode(nil), idb))
			if got := h.AnonID(id, report); got != wantAnon {
				t.Fatalf("Hasher.AnonID(%v) = %x, crypto/hmac = %x", id, got, wantAnon)
			}
			if got := own.AnonID(report, id); got != wantAnon {
				t.Fatalf("NewSchedule(%v).AnonID = %x, crypto/hmac = %x", id, got, wantAnon)
			}
		}
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
// is checked against crypto/hmac.
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
			k := ks.Key(id)
			m := hmac.New(sha256.New, k[:])
			m.Write([]byte(anonDomain))
			m.Write(report.Encode(nil))
			m.Write([]byte{byte(id >> 8), byte(id)})
			want := [packet.AnonIDLen]byte(m.Sum(nil))
			if got := h.AnonID(id, report); got != want {
				t.Fatalf("step %d: Hasher.AnonID(%v, %+v) = %x, crypto/hmac = %x", i, id, report, got, want)
			}
			if id == 5 {
				if got := own.AnonID(report, id); got != want {
					t.Fatalf("step %d: NewSchedule.AnonID(%+v) = %x, crypto/hmac = %x", i, report, got, want)
				}
			}
		}
	}
}

// TestStateTemplateLayout pins the layout guard's premise on the running
// Go release: a digest after one 64-byte block marshals to the template
// with its chaining value at chainOff, and a state restored from a
// template copy carrying a core's chaining bytes hashes exactly like the
// digest that absorbed the pad.
func TestStateTemplateLayout(t *testing.T) {
	pad := make([]byte, blockSize)
	for i := range pad {
		pad[i] = byte(i) ^ 0x36
	}
	var chain [sha256.Size]byte
	absorbPad(&chain, pad) // panics on a layout mismatch
	live := sha256.New()
	live.Write(pad)
	sc := newScratch()
	sc.restore(&chain)
	msg := []byte("after the pad block")
	live.Write(msg)
	sc.h.Write(msg)
	if got, want := sc.h.Sum(nil), live.Sum(nil); string(got) != string(want) {
		t.Fatalf("restored state hashes to %x, live digest to %x", got, want)
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
// the same schedule per node, counts hits and misses, and keeps one
// scratch for all of its schedules.
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
	if hits := reg.Counter("mac.schedule.hits").Value(); hits != 1 {
		t.Errorf("hits = %d, want 1", hits)
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
// counted by CoreBuilds) through their own scratch, a Hasher keeps one
// pointer per node and hands out two-pointer Schedules, and
// InvalidateSchedules makes both rebuild on their next miss.
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
	old := a.Schedule(3).core
	ks.InvalidateSchedules()
	a.Schedule(9) // a miss notices the new epoch and drops a's table
	if a.Schedule(3).core == old {
		t.Fatal("Hasher kept a core from before InvalidateSchedules")
	}
	data := []byte("rotated")
	if got, want := a.Sum(3, data), Sum(ks.Key(3), data); got != want {
		t.Fatalf("Sum after invalidation = %x, want %x", got, want)
	}
	if got := ks.CoreBuilds(); got != 7 {
		t.Fatalf("CoreBuilds = %d after invalidation, want 7", got)
	}
}

// benchData is a representative nested-MAC input: a report plus a few
// marks' worth of bytes.
var benchData = make([]byte, 80)

// BenchmarkSumCold measures the pre-engine hot path: a fresh HMAC object
// per call, two pad compressions and several allocations each time.
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

// BenchmarkAnonIDCold measures the fresh-HMAC anonymous-ID derivation —
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
