package sink

import (
	"crypto/sha256"
	"encoding/binary"
	"math/bits"
	"slices"

	"pnm/internal/packet"
	"pnm/internal/topology"
)

// This file is the plain reference the whole sink is checked against
// (FuzzSinkMatchesReference): PAPER.md §4's algorithm spelled out with
// no caches and no hints. It verifies each packet's nested MACs
// backwards, finds the marker of an anonymous mark by trying every
// candidate, adds the accepted chain to a set of chains, and after
// every packet recomputes the relative order's closure from that set and
// reads the verdict off it. It hashes with a byte-oriented SipHash-2-4
// of its own, derives the subkeys K_m and K_a with crypto/sha256 from
// the node keys it is handed, and calls no sink, mac or marking code:
// it imports only the standard library, the packet wire types and the
// topology field (TestReferenceImportsStayPlain holds that).

// refSink is the reference sink over one field.
type refSink struct {
	// key returns a node's 16-byte key, the one it shares with the sink.
	key func(packet.NodeID) [16]byte
	// field is the deployment: it bounds the plaintext ID range and
	// names the suspects' one-hop neighborhoods.
	field *topology.Network
	// anonymous selects PNM's anonymous marks; without it only plaintext
	// nested marks verify.
	anonymous bool
	// at returns the routing tree of a packet's stamped epoch: an
	// anonymous mark's candidates are the nodes routed in it strictly
	// below the previous marker (§7). nil makes every node of field a
	// candidate, the paper's base method.
	at func(topology.EpochVersion) *topology.Network
	// chains holds every packet's accepted chain, in arrival order.
	chains [][]packet.NodeID
}

// refView is the reference's state after a packet: the packet's result,
// the relative order over every chain so far (see order) and the
// verdict read off it.
type refView struct {
	res     Result
	seen    []packet.NodeID
	up      [][]bool
	verdict Verdict
}

// observe verifies msg against its stamped epoch, records the accepted
// chain and returns the reference's state.
func (r *refSink) observe(msg packet.Message, epoch topology.EpochVersion) refView {
	res := r.verify(msg, epoch)
	r.chains = append(r.chains, res.Chain)
	seen, up := r.order()
	return refView{res: res, seen: seen, up: up, verdict: r.verdict(seen, up)}
}

// verify walks msg's marks from the last one back and stops at the first
// mark without a verifying marker. The chain lists the accepted markers
// most upstream first.
func (r *refSink) verify(msg packet.Message, epoch topology.EpochVersion) Result {
	var chain []packet.NodeID
	prev := packet.SinkID
	for k := len(msg.Marks) - 1; k >= 0; k-- {
		id, ok := r.marker(msg, k, prev, epoch)
		if !ok {
			slices.Reverse(chain)
			return Result{Chain: chain, Stopped: true}
		}
		chain = append(chain, id)
		prev = id
	}
	slices.Reverse(chain)
	return Result{Chain: chain}
}

// marker returns the node that left mark k of msg, given that prev (the
// sink for the last mark) was verified one mark downstream. The mark's
// MAC covers the report and the k marks before it, then the marker's ID:
// the plaintext ID as two big-endian bytes, or the anonymous ID.
func (r *refSink) marker(msg packet.Message, k int, prev packet.NodeID, epoch topology.EpochVersion) (packet.NodeID, bool) {
	mk := msg.Marks[k]
	prefix := msg.Report.Encode(nil)
	for _, m := range msg.Marks[:k] {
		prefix = m.Encode(prefix)
	}
	if !mk.Anonymous {
		id := mk.ID
		ok := id != packet.SinkID && int(id) <= r.field.NumNodes() &&
			refTag(r.key(id), "pnm/mac-key/v2\x00\x00", slices.Concat(prefix, []byte{byte(id >> 8), byte(id)})) == mk.MAC
		return id, ok
	}
	if !r.anonymous {
		return 0, false
	}
	net := r.field
	if r.at != nil {
		net = r.at(epoch)
	}
	for id := packet.NodeID(1); int(id) <= net.NumNodes(); id++ {
		if r.at != nil && !refBelow(net, id, prev) {
			continue
		}
		if refAnonID(r.key(id), msg.Report, id) == mk.AnonID &&
			refTag(r.key(id), "pnm/mac-key/v2\x00\x00", slices.Concat(prefix, mk.AnonID[:])) == mk.MAC {
			return id, true
		}
	}
	return 0, false
}

// refBelow reports whether v is routed in net with a strictly above it
// on its path to the sink, found by walking v's parents.
func refBelow(net *topology.Network, v, a packet.NodeID) bool {
	if !net.HasRoute(v) {
		return false
	}
	for v != packet.SinkID {
		v = net.Parent(v)
		if v == a {
			return true
		}
	}
	return false
}

// order recomputes the relative order from every accepted chain: the
// nodes the chains name, sorted, and the closure of their consecutive
// pairs, where up[i][j] reports that seen[i] is strictly upstream of
// seen[j].
func (r *refSink) order() (seen []packet.NodeID, up [][]bool) {
	for _, c := range r.chains {
		for _, id := range c {
			if !slices.Contains(seen, id) {
				seen = append(seen, id)
			}
		}
	}
	slices.Sort(seen)
	n := len(seen)
	up = make([][]bool, n)
	for i := range up {
		up[i] = make([]bool, n)
	}
	for _, c := range r.chains {
		for i := 1; i < len(c); i++ {
			up[slices.Index(seen, c[i-1])][slices.Index(seen, c[i])] = true
		}
	}
	for m := range n {
		for a := range n {
			for b := range n {
				up[a][b] = up[a][b] || up[a][m] && up[m][b]
			}
		}
	}
	for i := range n {
		up[i][i] = false
	}
	return seen, up
}

// verdict reads the verdict off the relative order: a loop's line
// intersection or the minimal node as the stop, its one-hop
// neighborhood as the suspects.
func (r *refSink) verdict(seen []packet.NodeID, up [][]bool) Verdict {
	n := len(seen)
	if n == 0 {
		return Verdict{}
	}
	// Loops are the classes of mutually reachable nodes, each sorted
	// and found from its smallest member, so sorted by it too.
	var loops [][]int
	for i := range n {
		class := []int{i}
		for j := range n {
			if up[i][j] && up[j][i] {
				class = append(class, j)
			}
		}
		if len(class) > 1 && slices.Min(class) == i {
			slices.Sort(class)
			loops = append(loops, class)
		}
	}
	var v Verdict
	if len(loops) > 0 {
		loop := loops[0]
		for _, i := range loop {
			v.Loop = append(v.Loop, seen[i])
		}
		// The stop is where the loop meets the line: among the nodes
		// outside the loop with an upstream node inside it, the one with
		// the fewest upstream nodes outside it, the smallest ID on a tie;
		// the loop's first member when there is none.
		v.HasStop, v.Stop = true, v.Loop[0]
		best := -1
		for b := range n {
			if slices.Contains(loop, b) {
				continue
			}
			touches, outside := false, 0
			for a := range n {
				if up[a][b] {
					if slices.Contains(loop, a) {
						touches = true
					} else {
						outside++
					}
				}
			}
			if touches && (best == -1 || outside < best) {
				best, v.Stop = outside, seen[b]
			}
		}
		v.Suspects = r.field.Neighborhood(v.Stop)
		return v
	}
	var minimals []packet.NodeID
	for b := range n {
		minimal := true
		for a := range n {
			minimal = minimal && !up[a][b]
		}
		if minimal {
			minimals = append(minimals, seen[b])
		}
	}
	// Loop-free, the order has a minimal node: the smallest ID is the
	// stop, and one minimal identifies the source.
	v.HasStop, v.Stop = true, minimals[0]
	v.Suspects = r.field.Neighborhood(v.Stop)
	v.Identified = len(minimals) == 1
	return v
}

// refTag is a mark's MAC under key's subkey for domain: SipHash-2-4's
// output over msg, little-endian.
func refTag(key [16]byte, domain string, msg []byte) [packet.MACLen]byte {
	var tag [packet.MACLen]byte
	binary.LittleEndian.PutUint64(tag[:], refSip(refSubkey(key, domain), msg))
	return tag
}

// refAnonID is H': the first 4 bytes of SipHash-2-4's little-endian
// output under K_a over report ‖ be16(id).
func refAnonID(key [16]byte, report packet.Report, id packet.NodeID) [packet.AnonIDLen]byte {
	h := refSip(refSubkey(key, "pnm/anon-key/v2\x00"), append(report.Encode(nil), byte(id>>8), byte(id)))
	return [packet.AnonIDLen]byte{byte(h), byte(h >> 8), byte(h >> 16), byte(h >> 24)}
}

// refSubkey is a node key's subkey under a 16-byte domain string: the
// first 16 bytes of SHA-256(domain ‖ key).
func refSubkey(key [16]byte, domain string) [16]byte {
	d := sha256.Sum256(append([]byte(domain), key[:]...))
	return [16]byte(d[:16])
}

// refSip is SipHash-2-4 (Aumasson and Bernstein, 2012) byte by byte: the
// message padded with zeros to one byte short of a multiple of 8 and
// closed by its length mod 256, each 8 bytes a little-endian word
// absorbed with two rounds, and four rounds after v2 ^= 0xff.
func refSip(key [16]byte, msg []byte) uint64 {
	k0, k1 := binary.LittleEndian.Uint64(key[:8]), binary.LittleEndian.Uint64(key[8:])
	v := [4]uint64{k0 ^ 0x736f6d6570736575, k1 ^ 0x646f72616e646f6d, k0 ^ 0x6c7967656e657261, k1 ^ 0x7465646279746573}
	round := func() {
		v[0] += v[1]
		v[1] = bits.RotateLeft64(v[1], 13) ^ v[0]
		v[0] = bits.RotateLeft64(v[0], 32)
		v[2] += v[3]
		v[3] = bits.RotateLeft64(v[3], 16) ^ v[2]
		v[0] += v[3]
		v[3] = bits.RotateLeft64(v[3], 21) ^ v[0]
		v[2] += v[1]
		v[1] = bits.RotateLeft64(v[1], 17) ^ v[2]
		v[2] = bits.RotateLeft64(v[2], 32)
	}
	b := slices.Concat(msg, make([]byte, 7-len(msg)%8), []byte{byte(len(msg))})
	for ; len(b) > 0; b = b[8:] {
		m := binary.LittleEndian.Uint64(b)
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
