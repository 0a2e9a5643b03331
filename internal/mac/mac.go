// Package mac provides the symmetric-key primitives the paper assumes:
// each node shares a unique secret key with the sink and uses an efficient
// keyed hash H_k(.) to authenticate marks, plus a second keyed hash H'_k(.)
// that derives per-message anonymous IDs for PNM.
//
// Keys are derived deterministically from a master secret so that the sink,
// the simulated nodes, and the moles (which steal keys from compromised
// nodes) all agree without any key-exchange machinery.
package mac

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"math/bits"
	"sync"

	"pnm/internal/packet"
)

// KeyLen is the per-node symmetric key length in bytes.
const KeyLen = 16

// Key is a node's symmetric key, shared only with the sink.
type Key [KeyLen]byte

// Subkeys. H and H' each run under their own subkey of the node key k:
// the first 16 bytes of SHA-256(domain ‖ k), with a 16-byte domain string
// per hash. The domains differ, so for every key K_m and K_a hash
// different inputs and are unrelated pseudorandom keys (DESIGN §9).
const (
	// macSubkeyDomain opens the input of K_m, the marking MAC's subkey.
	macSubkeyDomain = "pnm/mac-key/v2\x00\x00"
	// anonSubkeyDomain opens the input of K_a, the anonymous-ID subkey.
	anonSubkeyDomain = "pnm/anon-key/v2\x00"
)

// subkey derives k's subkey under domain, a 16-byte string, as SipHash's
// key words k0 = LE64(d[0:8]) and k1 = LE64(d[8:16]) of
// d = SHA-256(domain ‖ k): one compression over a stack array.
// pnmlint:noalloc
func subkey(domain string, k Key) [2]uint64 {
	var in [2 * KeyLen]byte
	n := copy(in[:], domain)
	copy(in[n:], k[:])
	d := sha256.Sum256(in[:])
	return [2]uint64{binary.LittleEndian.Uint64(d[:8]), binary.LittleEndian.Uint64(d[8:16])}
}

// Sum computes the truncated keyed MAC H_k(data) carried in marks:
// SipHash-2-4's 64-bit output over data, little-endian, under k's subkey
// K_m. SipHash is a PRF built for short inputs, and its last word carries
// the message length, so its padding is injective and a tag says nothing
// about any other message, extensions of data included (DESIGN §9). This
// is the node-side path: K_m's one compression, then SipHash straight
// from data, with no allocation at any length.
// pnmlint:noalloc
func Sum(k Key, data []byte) [packet.MACLen]byte {
	key := subkey(macSubkeyDomain, k)
	return macTag(sipSum(&key, data, nil))
}

// macTag lays SipHash's 64-bit output out as a mark's MAC, little-endian.
// pnmlint:noalloc
func macTag(h uint64) [packet.MACLen]byte {
	var out [packet.MACLen]byte
	binary.LittleEndian.PutUint64(out[:], h)
	return out
}

// sipSum is SipHash-2-4 (Aumasson and Bernstein, 2012) under key over
// prefix ‖ suffix. It reads the whole words of each slice in place and
// copies neither: the prefix's last partial word carries over and is
// completed from the suffix, and the final word holds the bytes left and,
// in its top byte, the message length mod 256.
// pnmlint:noalloc
func sipSum(key *[2]uint64, prefix, suffix []byte) uint64 {
	n := len(prefix) + len(suffix)
	v0, v1, v2, v3 := sipInit(key)
	v0, v1, v2, v3 = sipWords(v0, v1, v2, v3, prefix)
	w, fill := loadLE(prefix[len(prefix)&^7:]), len(prefix)&7
	if fill > 0 {
		k := min(8-fill, len(suffix))
		w |= loadLE(suffix[:k]) << (8 * fill)
		fill += k
		suffix = suffix[k:]
		if fill == 8 {
			v0, v1, v2, v3 = sipWord(v0, v1, v2, v3, w)
			w, fill = 0, 0
		}
	}
	// A partial word still pending here emptied the suffix, so at most
	// one of w and the suffix's last partial word holds bytes.
	v0, v1, v2, v3 = sipWords(v0, v1, v2, v3, suffix)
	w |= loadLE(suffix[len(suffix)&^7:]) << (8 * fill)
	v0, v1, v2, v3 = sipWord(v0, v1, v2, v3, w|uint64(n)<<56)
	return sipFinal(v0, v1, v2, v3)
}

// loadLE returns b, shorter than 8 bytes, as the low bytes of a
// little-endian word.
// pnmlint:noalloc
func loadLE(b []byte) uint64 {
	var w uint64
	for i := len(b) - 1; i >= 0; i-- {
		w = w<<8 | uint64(b[i])
	}
	return w
}

// sipInit is SipHash's initial state under the key words key.
func sipInit(key *[2]uint64) (uint64, uint64, uint64, uint64) {
	return key[0] ^ 0x736f6d6570736575, key[1] ^ 0x646f72616e646f6d,
		key[0] ^ 0x6c7967656e657261, key[1] ^ 0x7465646279746573
}

// sipWords absorbs p's whole little-endian words, two rounds each, and
// ignores a trailing partial word.
// pnmlint:noalloc
func sipWords(v0, v1, v2, v3 uint64, p []byte) (uint64, uint64, uint64, uint64) {
	for ; len(p) >= 8; p = p[8:] {
		m := binary.LittleEndian.Uint64(p)
		v3 ^= m
		v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
		v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
		v0 ^= m
	}
	return v0, v1, v2, v3
}

// sipWord absorbs the one message word m: v3 ^= m, two rounds, v0 ^= m.
func sipWord(v0, v1, v2, v3, m uint64) (uint64, uint64, uint64, uint64) {
	v3 ^= m
	v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
	v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
	return v0 ^ m, v1, v2, v3
}

// sipFinal is SipHash-2-4's finalization: v2 ^= 0xff, four rounds, and
// the XOR of the four state words.
func sipFinal(v0, v1, v2, v3 uint64) uint64 {
	v2 ^= 0xff
	v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
	v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
	v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
	v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
	return v0 ^ v1 ^ v2 ^ v3
}

// sipRound is SipHash's add-rotate-xor round.
func sipRound(v0, v1, v2, v3 uint64) (uint64, uint64, uint64, uint64) {
	v0 += v1
	v1 = bits.RotateLeft64(v1, 13) ^ v0
	v0 = bits.RotateLeft64(v0, 32)
	v2 += v3
	v3 = bits.RotateLeft64(v3, 16) ^ v2
	v0 += v3
	v3 = bits.RotateLeft64(v3, 21) ^ v0
	v2 += v1
	v1 = bits.RotateLeft64(v1, 17) ^ v2
	v2 = bits.RotateLeft64(v2, 32)
	return v0, v1, v2, v3
}

// anonMsgLen is the length of the message H' hashes, report ‖ be16(id).
const anonMsgLen = packet.ReportLen + 2

// anonWords returns the message H' hashes for report, with the ID left
// zero, as SipHash-2-4's three little-endian message words: the report's
// first 16 bytes, then its last 4, the ID's two byte slots, a zero byte
// and the message length, SipHash's final-word layout. anonHash ORs the
// ID in.
// pnmlint:noalloc
func anonWords(report packet.Report) [3]uint64 {
	var b [24]byte
	report.Encode(b[:0])
	b[len(b)-1] = anonMsgLen
	return [3]uint64{binary.LittleEndian.Uint64(b[:8]), binary.LittleEndian.Uint64(b[8:16]), binary.LittleEndian.Uint64(b[16:])}
}

// anonHash is H' from K_a's key words and anonWords' message words:
// SipHash-2-4 over the three words, with be16(id) ORed into message bytes
// 20 and 21, truncated to the first 4 bytes of its little-endian output.
// It is a resolver probe, the sink's most frequent call, so every round
// is written out and inlined.
// pnmlint:noalloc
func anonHash(key *[2]uint64, m *[3]uint64, id packet.NodeID) [packet.AnonIDLen]byte {
	m0, m1, m2 := m[0], m[1], m[2]|uint64(id>>8)<<32|uint64(id&0xff)<<40
	v0, v1, v2, v3 := sipInit(key)
	v3 ^= m0
	v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
	v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
	v0 ^= m0
	v3 ^= m1
	v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
	v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
	v0 ^= m1
	v3 ^= m2
	v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
	v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
	v0 ^= m2
	v2 ^= 0xff
	v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
	v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
	v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
	v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
	var out [packet.AnonIDLen]byte
	binary.LittleEndian.PutUint32(out[:], uint32(v0^v1^v2^v3))
	return out
}

// AnonID computes the per-message anonymous ID i' = H'_ki(M | i), where M is
// the original report. Binding i' to M means the mapping changes with every
// distinct injected report, so an attacker cannot accumulate a static
// ID-translation table over time.
//
// H' is the first 4 bytes of SipHash-2-4's little-endian output under
// k's subkey K_a over the 22 bytes M ‖ be16(i): a PRF built for short
// inputs, which a Schedule runs from a cached K_a (DESIGN §9 gives the
// argument). This is the node-side path: the subkey's one SHA-256
// compression, then SipHash, over stack arrays.
// pnmlint:noalloc
func AnonID(k Key, report packet.Report, id packet.NodeID) [packet.AnonIDLen]byte {
	key, m := subkey(anonSubkeyDomain, k), anonWords(report)
	return anonHash(&key, &m, id)
}

// Equal reports whether two MACs match, in constant time.
func Equal(a, b [packet.MACLen]byte) bool {
	return subtle.ConstantTimeCompare(a[:], b[:]) == 1
}

// blockSize is SHA-256's block size, the length of HMAC's key blocks.
const blockSize = 64

// KeyStore derives and caches the per-node keys the sink maintains in its
// lookup table. It is safe for concurrent use (the netsim sink and nodes
// share one store).
//
// Node id's key is the first KeyLen bytes of HMAC-SHA256 under the
// SHA-256 of the master secret, over "key/" ‖ be16(id). The store keeps
// HMAC's two key blocks instead of the master, so a derivation is two
// sha256.Sum256 calls over stack arrays.
type KeyStore struct {
	// ipad and opad are HMAC's key blocks, SHA-256(master) XOR the ipad
	// and opad bytes, set by NewKeyStore and never written again, so
	// derive reads them without the lock.
	ipad, opad [blockSize]byte

	mu sync.RWMutex
	// keys caches the keys Key hands out (the node side, tests), indexed
	// by NodeID and grown like cores: 17 bytes a node. A schedule core
	// takes its subkeys from a key it derives itself, so a sink-side
	// store caches no keys at all.
	keys []keySlot // pnmlint:guarded-by mu

	// cores caches the immutable per-node halves of the key schedules
	// (32 bytes each), indexed by NodeID and shared across every Hasher
	// over this store: N workers warming up on the same node pay the key
	// derivation and the two subkeys once, not N times. A core never
	// changes once built, so the cache is never invalidated.
	cores      []*schedCore // pnmlint:guarded-by mu
	coreBuilds uint64       // pnmlint:guarded-by mu
}

// keySlot is one node's derived key; ok is false until it is derived.
type keySlot struct {
	k  Key
	ok bool
}

// NewKeyStore returns a store whose keys are derived from the given master
// secret. Two stores built from the same secret agree on every key.
func NewKeyStore(master []byte) *KeyStore {
	ks := new(KeyStore)
	key := sha256.Sum256(master)
	for i := range blockSize {
		ks.ipad[i], ks.opad[i] = 0x36, 0x5c
	}
	subtle.XORBytes(ks.ipad[:], ks.ipad[:], key[:])
	subtle.XORBytes(ks.opad[:], ks.opad[:], key[:])
	return ks
}

// Key returns node id's symmetric key.
func (ks *KeyStore) Key(id packet.NodeID) Key {
	ks.mu.RLock()
	var slot keySlot
	if int(id) < len(ks.keys) {
		slot = ks.keys[id]
	}
	ks.mu.RUnlock()
	if slot.ok {
		return slot.k
	}

	// Re-check under the write lock: between RUnlock and Lock another
	// goroutine may have derived this key, and with run-parallel
	// experiments hammering a shared store, every worker would otherwise
	// redo the derivation per miss.
	ks.mu.Lock()
	defer ks.mu.Unlock()
	ks.keys = growTo(ks.keys, id)
	if slot := ks.keys[id]; slot.ok {
		return slot.k
	}
	k := ks.derive(id)
	ks.keys[id] = keySlot{k: k, ok: true}
	return k
}

// derive computes node id's key, uncached: HMAC-SHA256 as two
// sha256.Sum256 calls over stack arrays, the inner over the ipad block ‖
// "key/" ‖ be16(id), the outer over the opad block ‖ the inner digest.
// The key blocks are immutable, so it needs no lock.
// pnmlint:noalloc
func (ks *KeyStore) derive(id packet.NodeID) Key {
	var in [blockSize + 6]byte
	copy(in[:], ks.ipad[:])
	n := blockSize + copy(in[blockSize:], "key/")
	binary.BigEndian.PutUint16(in[n:], uint16(id))
	inner := sha256.Sum256(in[:])
	var out [blockSize + sha256.Size]byte
	copy(out[:], ks.opad[:])
	copy(out[blockSize:], inner[:])
	d := sha256.Sum256(out[:])
	return Key(d[:KeyLen])
}
