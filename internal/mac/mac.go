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

// Sum computes the truncated keyed MAC H_k(data) carried in marks.
func Sum(k Key, data []byte) [packet.MACLen]byte {
	h := hmac.New(sha256.New, k[:])
	h.Write(data)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	var out [packet.MACLen]byte
	copy(out[:], sum[:])
	return out
}

// anonDomain separates the anonymous-ID hash H'_k from the marking MAC H_k.
var anonDomain = []byte("pnm/anon-id/v1")

// AnonID computes the per-message anonymous ID i' = H'_ki(M | i), where M is
// the original report. Binding i' to M means the mapping changes with every
// distinct injected report, so an attacker cannot accumulate a static
// ID-translation table over time.
func AnonID(k Key, report packet.Report, id packet.NodeID) [packet.AnonIDLen]byte {
	h := hmac.New(sha256.New, k[:])
	h.Write(anonDomain)
	var buf [packet.ReportLen + 2]byte
	report.Encode(buf[:0])
	binary.BigEndian.PutUint16(buf[packet.ReportLen:], uint16(id))
	h.Write(buf[:])
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	var out [packet.AnonIDLen]byte
	copy(out[:], sum[:])
	return out
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

	mu   sync.RWMutex
	keys map[packet.NodeID]Key

	// cores caches the immutable pad-absorbed halves of the per-node key
	// schedules (64 bytes each), indexed by NodeID and shared across every
	// Hasher over this store: N workers warming up on the same node pay
	// the two pad compressions once, not N times. epoch versions the
	// cache — InvalidateSchedules bumps it, and Hashers that notice a new
	// epoch drop their local schedules.
	cores      []*schedCore // pnmlint:guarded-by mu
	epoch      uint64       // pnmlint:guarded-by mu
	coreBuilds uint64       // pnmlint:guarded-by mu
}

// NewKeyStore returns a store whose keys are derived from the given master
// secret. Two stores built from the same secret agree on every key.
func NewKeyStore(master []byte) *KeyStore {
	ks := &KeyStore{keys: make(map[packet.NodeID]Key)}
	ks.master = sha256.Sum256(master)
	return ks
}

// Key returns node id's symmetric key.
func (ks *KeyStore) Key(id packet.NodeID) Key {
	ks.mu.RLock()
	k, ok := ks.keys[id]
	ks.mu.RUnlock()
	if ok {
		return k
	}

	// Re-check under the write lock: between RUnlock and Lock another
	// goroutine may have derived this key, and with run-parallel
	// experiments hammering a shared store, every worker would otherwise
	// redo the two HMAC compressions per miss.
	ks.mu.Lock()
	defer ks.mu.Unlock()
	if k, ok := ks.keys[id]; ok {
		return k
	}

	h := hmac.New(sha256.New, ks.master[:])
	var buf [6]byte
	copy(buf[:4], "key/")
	binary.BigEndian.PutUint16(buf[4:], uint16(id))
	h.Write(buf[:])
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	copy(k[:], sum[:KeyLen])

	ks.keys[id] = k
	return k
}
