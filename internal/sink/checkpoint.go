package sink

import (
	"encoding/binary"
	"fmt"

	"pnm/internal/packet"
	"pnm/internal/topology"
)

// Checkpointing: the sink can persist its route-reconstruction state and
// resume traceback after a restart without re-observing past packets. The
// format stores the collected identities and the direct relations implied
// by the transitive closure (the closure itself is rebuilt on load, which
// keeps the format independent of the in-memory representation).

// checkpointMagic guards against feeding arbitrary bytes to Restore.
var checkpointMagic = [4]byte{'P', 'N', 'M', '1'}

// Checkpoint serializes the order matrix.
func (o *Order) Checkpoint() []byte {
	buf := append([]byte(nil), checkpointMagic[:]...)
	var tmp [4]byte
	binary.BigEndian.PutUint32(tmp[:], uint32(len(o.ids)))
	buf = append(buf, tmp[:]...)
	for _, id := range o.ids {
		var idb [2]byte
		binary.BigEndian.PutUint16(idb[:], uint16(id))
		buf = append(buf, idb[:]...)
	}
	// Count and emit the direct relations (restoring re-adds them as
	// edges, which regenerates an identical closure — it is a pure
	// function of the generating set). Earlier checkpoints emitted the
	// full closure here; those blobs restore identically, just larger,
	// since closure pairs also generate the closure.
	pairs := 0
	for i := range o.ids {
		pairs += o.dir[i].count()
	}
	binary.BigEndian.PutUint32(tmp[:], uint32(pairs))
	buf = append(buf, tmp[:]...)
	for i := range o.ids {
		o.dir[i].forEach(func(j int) {
			var pair [4]byte
			binary.BigEndian.PutUint16(pair[:2], uint16(o.ids[i]))
			binary.BigEndian.PutUint16(pair[2:], uint16(o.ids[j]))
			buf = append(buf, pair[:]...)
		})
	}
	return buf
}

// RestoreOrder rebuilds an order matrix from a checkpoint.
func RestoreOrder(data []byte) (*Order, error) {
	if len(data) < 8 || [4]byte(data[:4]) != checkpointMagic {
		return nil, fmt.Errorf("sink: not a traceback checkpoint")
	}
	rest := data[4:]
	n := int(binary.BigEndian.Uint32(rest[:4]))
	rest = rest[4:]
	if len(rest) < n*2+4 {
		return nil, fmt.Errorf("sink: checkpoint truncated in identity table")
	}
	o := NewOrder()
	for i := 0; i < n; i++ {
		o.index(packet.NodeID(binary.BigEndian.Uint16(rest[i*2:])))
	}
	rest = rest[n*2:]
	pairs := int(binary.BigEndian.Uint32(rest[:4]))
	rest = rest[4:]
	if len(rest) != pairs*4 {
		return nil, fmt.Errorf("sink: checkpoint has %d bytes of pairs, want %d", len(rest), pairs*4)
	}
	for p := 0; p < pairs; p++ {
		u := packet.NodeID(binary.BigEndian.Uint16(rest[p*4:]))
		v := packet.NodeID(binary.BigEndian.Uint16(rest[p*4+2:]))
		ui, ok := o.lookup(u)
		if !ok {
			return nil, fmt.Errorf("sink: checkpoint pair references unknown node %v", u)
		}
		vi, ok := o.lookup(v)
		if !ok {
			return nil, fmt.Errorf("sink: checkpoint pair references unknown node %v", v)
		}
		o.addEdge(ui, vi)
	}
	return o, nil
}

// trackerMagic marks the versioned full-tracker checkpoint: PNM2 carries
// the packet count ahead of an embedded PNM1 order block, so a restored
// sink's Packets() — and every packets-to-catch figure derived from it —
// survives a crash.
var trackerMagic = [4]byte{'P', 'N', 'M', '2'}

// Checkpoint serializes the tracker's full reconstruction state in the
// PNM2 format: the magic, the packet count, then the order matrix's PNM1
// block. The verifier and topology are configuration, not state, and are
// supplied again on restore.
func (t *Tracker) Checkpoint() []byte {
	buf := append([]byte(nil), trackerMagic[:]...)
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], uint64(t.packets))
	buf = append(buf, tmp[:]...)
	return append(buf, t.order.Checkpoint()...)
}

// RestoreTracker rebuilds a tracker from a PNM2 checkpoint, reattaching
// the verifier and (optional) topology. A bare PNM1 order block carries
// no packet count and is rejected.
func RestoreTracker(data []byte, verifier Verifier, topo *topology.Network) (*Tracker, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("sink: checkpoint too short")
	}
	if [4]byte(data[:4]) != trackerMagic {
		return nil, fmt.Errorf("sink: not a tracker checkpoint")
	}
	if len(data) < 12 {
		return nil, fmt.Errorf("sink: checkpoint truncated in packet count")
	}
	packets := int(binary.BigEndian.Uint64(data[4:12]))
	order, err := RestoreOrder(data[12:])
	if err != nil {
		return nil, err
	}
	return &Tracker{
		verifier: verifier,
		order:    order,
		topo:     topo,
		packets:  packets,
	}, nil
}
