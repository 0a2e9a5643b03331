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

// macKeyDomain opens the marking-MAC key block. It differs from
// anonSubkeyDomain, so H's chaining value and the subkey of H' under one
// node key hash different inputs.
const macKeyDomain = "pnm/mac-key/v1\x00\x00"

// macKeyBlock writes k's marking-MAC key block into b[:blockSize]: the
// 16-byte macKeyDomain, the 16-byte key, and 32 zeros.
// pnmlint:noalloc
func macKeyBlock(b []byte, k Key) {
	n := copy(b, macKeyDomain)
	n += copy(b[n:], k[:])
	clear(b[n:blockSize])
}

// macLenLen is the length word that follows the key block: the message
// length as a big-endian uint32. It makes the set of inputs prefix-free,
// which is what the cascade argument needs (DESIGN §9).
const macLenLen = 4

// coldStack is the longest MAC message the cold Sum hashes from a stack
// array; a longer one costs one allocation. Every mark chain the
// experiments build fits.
const coldStack = 448

// Sum computes the truncated keyed MAC H_k(data) carried in marks: the
// first 8 bytes of SHA-256(macKeyBlock(k) ‖ be32(len data) ‖ data). After
// the key block the hash is SHA-256's compression cascaded from a
// key-dependent chaining value, which a Schedule caches; the length word
// keeps one message from being a prefix of another, so the cascade is a
// PRF and length extension has nothing to extend (DESIGN §9). This is
// the node-side path: one SHA-256 over a stack array, or one allocation
// for a message longer than coldStack.
func Sum(k Key, data []byte) [packet.MACLen]byte {
	var stack [blockSize + macLenLen + coldStack]byte
	buf := stack[:]
	if n := blockSize + macLenLen + len(data); n > len(stack) {
		buf = make([]byte, n)
	}
	macKeyBlock(buf, k)
	binary.BigEndian.PutUint32(buf[blockSize:], uint32(len(data)))
	n := blockSize + macLenLen + copy(buf[blockSize+macLenLen:], data)
	sum := sha256.Sum256(buf[:n])
	return [packet.MACLen]byte(sum[:])
}

// anonSubkeyDomain opens the input K_a is hashed from. It differs from
// macKeyDomain, and the 32-byte input is shorter than a key block, so K_a
// and the MAC key block's chaining value never hash the same bytes.
const anonSubkeyDomain = "pnm/anon-key/v2\x00"

// anonSubkey derives k's anonymous-ID subkey K_a, the first 16 bytes of
// SHA-256(anonSubkeyDomain ‖ k), as SipHash's key words
// k0 = LE64(K_a[0:8]) and k1 = LE64(K_a[8:16]): one compression over a
// stack array.
// pnmlint:noalloc
func anonSubkey(k Key) [2]uint64 {
	var in [len(anonSubkeyDomain) + KeyLen]byte
	n := copy(in[:], anonSubkeyDomain)
	copy(in[n:], k[:])
	sum := sha256.Sum256(in[:])
	return [2]uint64{binary.LittleEndian.Uint64(sum[:8]), binary.LittleEndian.Uint64(sum[8:16])}
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
// SipHash-2-4 (Aumasson and Bernstein, 2012) over the three words, with
// be16(id) ORed into message bytes 20 and 21 — two rounds per word, then
// four after v2 ^= 0xff — truncated to the first 4 bytes of its
// little-endian output.
// pnmlint:noalloc
func anonHash(key *[2]uint64, m *[3]uint64, id packet.NodeID) [packet.AnonIDLen]byte {
	m0, m1, m2 := m[0], m[1], m[2]|uint64(id>>8)<<32|uint64(id&0xff)<<40
	v0 := key[0] ^ 0x736f6d6570736575
	v1 := key[1] ^ 0x646f72616e646f6d
	v2 := key[0] ^ 0x6c7967656e657261
	v3 := key[1] ^ 0x7465646279746573
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

// AnonID computes the per-message anonymous ID i' = H'_ki(M | i), where M is
// the original report. Binding i' to M means the mapping changes with every
// distinct injected report, so an attacker cannot accumulate a static
// ID-translation table over time.
//
// H' is the first 4 bytes of SipHash-2-4's little-endian output under
// k's subkey K_a (anonSubkey) over the 22 bytes M ‖ be16(i): a PRF built
// for short inputs, which a Schedule runs from a cached K_a (DESIGN §9
// gives the argument). This is the node-side path: the subkey's one
// SHA-256 compression, then SipHash, over stack arrays.
// pnmlint:noalloc
func AnonID(k Key, report packet.Report, id packet.NodeID) [packet.AnonIDLen]byte {
	key, m := anonSubkey(k), anonWords(report)
	return anonHash(&key, &m, id)
}

// Equal reports whether two MACs match, in constant time.
func Equal(a, b [packet.MACLen]byte) bool {
	return subtle.ConstantTimeCompare(a[:], b[:]) == 1
}

// KeyStore derives and caches the per-node keys the sink maintains in its
// lookup table. It is safe for concurrent use (the netsim sink and nodes
// share one store).
//
// Node id's key is the first KeyLen bytes of HMAC-SHA256 under the
// SHA-256 of the master secret, over "key/" ‖ be16(id). The store keeps
// HMAC's two pad states instead of the master (RFC 2104 §4), so a
// derivation is two compressions on a caller's scratch.
type KeyStore struct {
	// ipad and opad are the SHA-256 chaining values after the master
	// key's ipad and opad blocks, set by NewKeyStore and never written
	// again, so derive reads them without the lock.
	ipad, opad [8]uint32

	mu sync.RWMutex
	// sc is the scratch Key derives on, made on Key's first miss: a
	// sink-side store derives on its Hashers' scratch and never makes one.
	sc *scratch // pnmlint:guarded-by mu
	// keys caches the keys Key hands out (the node side, tests), indexed
	// by NodeID and grown in steps of 64 like cores: 17 bytes a node. A
	// schedule core absorbs a key it derives itself, so a sink-side store
	// caches no keys at all.
	keys []keySlot // pnmlint:guarded-by mu

	// cores caches the immutable key-absorbed halves of the per-node key
	// schedules (48 bytes each), indexed by NodeID and shared across every
	// Hasher over this store: N workers warming up on the same node pay
	// the key derivation, the key-block compression and the subkey's once,
	// not N times. A core never changes once built, so the cache is never
	// invalidated.
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
	sc := newScratch()
	key := sha256.Sum256(master)
	block := sc.tail[:blockSize]
	for _, pad := range []struct {
		chain *[8]uint32
		b     byte
	}{{&ks.ipad, 0x36}, {&ks.opad, 0x5c}} {
		for i := range block {
			block[i] = pad.b
		}
		subtle.XORBytes(block, block, key[:])
		sc.absorbKeyBlock(pad.chain, block)
	}
	clear(block)
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
	// redo the derivation's two compressions per miss.
	ks.mu.Lock()
	defer ks.mu.Unlock()
	ks.keys = growTo(ks.keys, id)
	if slot := ks.keys[id]; slot.ok {
		return slot.k
	}

	if ks.sc == nil {
		ks.sc = newScratch()
	}
	k := ks.derive(ks.sc, id)
	ks.keys[id] = keySlot{k: k, ok: true}
	return k
}

// derive computes node id's key on sc, uncached: HMAC-SHA256 resumed from
// the pad states, bit-identical to crypto/hmac. It costs two
// compressions: the inner block "key/" ‖ be16(id) with its padding from
// ipad, then the outer block, the 32-byte inner digest with its padding,
// from opad. The pad states are immutable, so it needs no lock; sc is the
// caller's.
// pnmlint:noalloc
func (ks *KeyStore) derive(sc *scratch, id packet.NodeID) Key {
	block := sc.tail[:blockSize]
	n := copy(block, "key/")
	binary.BigEndian.PutUint16(block[n:], uint16(id))
	padBlocks(block, n+2, blockSize+n+2)
	sc.restore(&ks.ipad)
	sc.h.Write(block)
	putWords(block[:sha256.Size], sc.words)
	padBlocks(block, sha256.Size, blockSize+sha256.Size)
	sc.restore(&ks.opad)
	sc.h.Write(block)
	var k Key
	putWords(k[:], sc.words)
	return k
}
