package mac

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"pnm/internal/packet"
)

func TestSumDeterministic(t *testing.T) {
	k := Key{1, 2, 3}
	a := Sum(k, []byte("hello"))
	b := Sum(k, []byte("hello"))
	if a != b {
		t.Fatal("Sum is not deterministic")
	}
}

func TestSumKeySeparation(t *testing.T) {
	a := Sum(Key{1}, []byte("hello"))
	b := Sum(Key{2}, []byte("hello"))
	if a == b {
		t.Fatal("different keys produced the same MAC")
	}
}

func TestSumDataSeparation(t *testing.T) {
	k := Key{1}
	if Sum(k, []byte("a")) == Sum(k, []byte("b")) {
		t.Fatal("different data produced the same MAC")
	}
}

func TestEqual(t *testing.T) {
	a := Sum(Key{1}, []byte("x"))
	if !Equal(a, a) {
		t.Fatal("Equal(a, a) = false")
	}
	// A difference in any bit of either 32-bit half must show: Equal
	// folds the XORed word to 32 bits before its constant-time compare.
	for i := range a {
		for bit := 0; bit < 8; bit++ {
			b := a
			b[i] ^= 1 << bit
			if Equal(a, b) {
				t.Fatalf("Equal on MACs differing in byte %d bit %d = true", i, bit)
			}
		}
	}
}

func TestAnonIDBindsReportAndID(t *testing.T) {
	k := Key{9}
	base := packet.Report{Event: 1, Seq: 1}
	id1 := AnonID(k, base, 5)

	// Same inputs, same anonymous ID.
	if got := AnonID(k, base, 5); got != id1 {
		t.Fatal("AnonID is not deterministic")
	}
	// Different node ID changes it.
	if got := AnonID(k, base, 6); got == id1 {
		t.Fatal("AnonID ignores the node ID")
	}
	// Different report content changes it — the per-message mapping the
	// paper requires so that moles cannot build a static translation table.
	other := base
	other.Seq = 2
	if got := AnonID(k, other, 5); got == id1 {
		t.Fatal("AnonID ignores the report content")
	}
	// Different key changes it.
	if got := AnonID(Key{8}, base, 5); got == id1 {
		t.Fatal("AnonID ignores the key")
	}
}

func TestAnonIDDomainSeparatedFromSum(t *testing.T) {
	// H'_k must not be the prefix of H_k over the same bytes: the anonymous
	// ID must not leak a forgeable MAC fragment.
	k := Key{3}
	rep := packet.Report{Event: 7}
	var buf []byte
	buf = rep.Encode(buf)
	buf = append(buf, 0, 5)
	anon := AnonID(k, rep, 5)
	sum := Sum(k, buf)
	if anon == [packet.AnonIDLen]byte(sum[:packet.AnonIDLen]) {
		t.Fatal("AnonID collides with truncated Sum over the same bytes")
	}
}

func TestKeyStoreDeterministicAcrossInstances(t *testing.T) {
	a := NewKeyStore([]byte("master"))
	b := NewKeyStore([]byte("master"))
	for id := packet.NodeID(0); id < 64; id++ {
		if a.Key(id) != b.Key(id) {
			t.Fatalf("stores disagree on key for %v", id)
		}
	}
}

func TestKeyStoreMasterSeparation(t *testing.T) {
	a := NewKeyStore([]byte("m1"))
	b := NewKeyStore([]byte("m2"))
	if a.Key(1) == b.Key(1) {
		t.Fatal("different masters derived the same key")
	}
}

func TestKeyStoreUniqueKeysProperty(t *testing.T) {
	ks := NewKeyStore([]byte("unique"))
	f := func(a, b uint16) bool {
		if a == b {
			return true
		}
		return ks.Key(packet.NodeID(a)) != ks.Key(packet.NodeID(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestKeyStoreConcurrent races key derivation against schedule-core
// builds on one store: every goroutine reads keys and warms its own
// Hasher over the same nodes, and each core is still built once.
func TestKeyStoreConcurrent(t *testing.T) {
	ks := NewKeyStore([]byte("conc"))
	want := ks.Key(7)
	report := packet.Report{Event: 3}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := ks.Hasher()
			for id := packet.NodeID(0); id < 128; id++ {
				if id == 7 && ks.Key(id) != want {
					t.Error("concurrent derivation disagrees")
				}
				if h.AnonID(id, report) != AnonID(ks.Key(id), report, id) {
					t.Errorf("node %v: Hasher.AnonID disagrees with the cold path", id)
				}
			}
		}()
	}
	wg.Wait()
	if got := ks.CoreBuilds(); got != 128 {
		t.Errorf("CoreBuilds = %d after 16 hashers warmed 128 nodes, want 128", got)
	}
}

// hmacKey is the node key by the definition KeyStore documents, through
// crypto/hmac: the first KeyLen bytes of HMAC-SHA256 under SHA-256 of
// the master, over "key/" ‖ be16(id).
func hmacKey(master []byte, id packet.NodeID) Key {
	mk := sha256.Sum256(master)
	h := hmac.New(sha256.New, mk[:])
	h.Write(binary.BigEndian.AppendUint16([]byte("key/"), uint16(id)))
	return Key(h.Sum(nil)[:KeyLen])
}

// TestDeriveMatchesHMAC pins the key-block derivation to crypto/hmac for
// every node ID under three masters, on both paths that derive: Key (the
// node side, cached) and derive (the schedule path). The Hasher's core
// for each ID must be the reference subkeys of that key. IDs run
// upwards, the order a warm-up meets them in, so each NodeID-indexed
// table grows geometrically.
func TestDeriveMatchesHMAC(t *testing.T) {
	for _, master := range [][]byte{nil, []byte("master"), bytes.Repeat([]byte{0xa7}, 100)} {
		ks := NewKeyStore(master)
		h := ks.Hasher()
		for id := 0; id <= math.MaxUint16; id++ {
			nid := packet.NodeID(id)
			want := hmacKey(master, nid)
			if got := ks.Key(nid); got != want {
				t.Fatalf("master %q: Key(%d) = %x, HMAC = %x", master, id, got, want)
			}
			if got := ks.derive(nid); got != want {
				t.Fatalf("master %q: derive(%d) = %x, HMAC = %x", master, id, got, want)
			}
			if got, want := *h.Schedule(nid).core, refCore(want); got != want {
				t.Fatalf("master %q: node %d core = %x, reference = %x", master, id, got, want)
			}
		}
	}
}
