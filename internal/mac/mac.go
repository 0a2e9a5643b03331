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
	"crypto/hmac"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"sync"

	"pnm/internal/packet"
)

// KeyLen is the per-node symmetric key length in bytes.
const KeyLen = 16

// Key is a node's symmetric key, shared only with the sink.
type Key [KeyLen]byte

// macKeyDomain opens the marking-MAC key block. It differs from
// anonKeyDomain, so H and H' under one node key start from different
// chaining values.
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

// anonDomain opens the anonymous-ID message, which is fixed-length and
// so always one block after the key block.
const anonDomain = "pnm/anon-id/v2"

// The AnonID message anonDomain ‖ report ‖ id, laid out at fixed offsets.
const (
	anonReportOff = len(anonDomain)
	anonIDOff     = anonReportOff + packet.ReportLen
	anonMsgLen    = anonIDOff + 2
)

// anonKeyDomain opens the AnonID key block; it differs from macKeyDomain
// in its domain string, so the two key blocks of one key never coincide.
const anonKeyDomain = "pnm/anon-key/v1\x00"

// anonKeyBlock writes k's AnonID key block into b[:blockSize]: the
// 16-byte anonKeyDomain, the 16-byte key, and zeros.
// pnmlint:noalloc
func anonKeyBlock(b []byte, k Key) {
	n := copy(b, anonKeyDomain)
	n += copy(b[n:], k[:])
	clear(b[n:blockSize])
}

// AnonID computes the per-message anonymous ID i' = H'_ki(M | i), where M is
// the original report. Binding i' to M means the mapping changes with every
// distinct injected report, so an attacker cannot accumulate a static
// ID-translation table over time.
//
// H' is the first 4 bytes of SHA-256(anonKeyBlock(k) ‖ anonDomain ‖ M ‖ i).
// The input is always 100 bytes, so after the key block the hash is one
// compression keyed through its chaining value, which a Schedule caches
// (DESIGN §9 gives the PRF argument). This is the node-side path: one
// stack array, no allocation.
// pnmlint:noalloc
func AnonID(k Key, report packet.Report, id packet.NodeID) [packet.AnonIDLen]byte {
	var buf [blockSize + anonMsgLen]byte
	anonKeyBlock(buf[:], k)
	msg := buf[blockSize:]
	copy(msg, anonDomain)
	report.Encode(msg[:anonReportOff])
	binary.BigEndian.PutUint16(msg[anonIDOff:], uint16(id))
	sum := sha256.Sum256(buf[:])
	return [packet.AnonIDLen]byte(sum[:])
}

// Equal reports whether two MACs match, in constant time.
func Equal(a, b [packet.MACLen]byte) bool {
	return subtle.ConstantTimeCompare(a[:], b[:]) == 1
}

// KeyStore derives and caches the per-node keys the sink maintains in its
// lookup table. It is safe for concurrent use (the netsim sink and nodes
// share one store).
type KeyStore struct {
	master [32]byte

	mu sync.RWMutex
	// keys caches the keys Key hands out (the node side, tests), indexed
	// by NodeID and grown in steps of 64 like cores: 17 bytes a node. A
	// schedule core absorbs a key it derives itself, so a sink-side store
	// caches no keys at all.
	keys []keySlot // pnmlint:guarded-by mu

	// cores caches the immutable key-absorbed halves of the per-node key
	// schedules (64 bytes each), indexed by NodeID and shared across every
	// Hasher over this store: N workers warming up on the same node pay
	// the two key-block compressions once, not N times. A core never
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
	return &KeyStore{master: sha256.Sum256(master)}
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
	// redo the two HMAC compressions per miss.
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

// derive computes node id's key from the master secret, uncached: the
// truncated HMAC of "key/" ‖ id. ks.master is immutable, so it needs no
// lock.
func (ks *KeyStore) derive(id packet.NodeID) Key {
	h := hmac.New(sha256.New, ks.master[:])
	var buf [6]byte
	copy(buf[:4], "key/")
	binary.BigEndian.PutUint16(buf[4:], uint16(id))
	h.Write(buf[:])
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return Key(sum[:KeyLen])
}
