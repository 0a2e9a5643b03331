package sink

import (
	"encoding/binary"
	"fmt"

	"pnm/internal/packet"
	"pnm/internal/topology"
)

// Checkpointing: the sink can persist its route-reconstruction state and
// resume traceback after a restart without re-observing past packets. The
// format stores the collected identities and the direct relations, which
// is all an Order keeps.

// checkpointMagic guards against feeding arbitrary bytes to Restore.
var checkpointMagic = [4]byte{'P', 'N', 'M', '1'}

// Checkpoint serializes the order matrix.
func (o *Order) Checkpoint() []byte {
	buf := binary.BigEndian.AppendUint32(checkpointMagic[:], uint32(len(o.ids)))
	for _, id := range o.ids {
		buf = binary.BigEndian.AppendUint16(buf, uint16(id))
	}
	// Count and emit the direct relations. Earlier checkpoints emitted
	// every closure pair here; those blobs restore to the same verdict,
	// just larger, since closure pairs generate the same closure, and a
	// node has a direct in-relation in one iff it has an ancestor.
	pairs := 0
	for i := range o.ids {
		pairs += o.dir[i].count()
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(pairs))
	for i, row := range o.dir {
		row.forEach(func(j int) {
			buf = binary.BigEndian.AppendUint16(buf, uint16(o.ids[i]))
			buf = binary.BigEndian.AppendUint16(buf, uint16(o.ids[j]))
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
		ui, uok := o.lookup(u)
		vi, vok := o.lookup(v)
		if !uok || !vok {
			return nil, fmt.Errorf("sink: checkpoint pair %v->%v references an unknown node", u, v)
		}
		if ui != vi {
			o.dir[ui].set(vi)
		}
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
	buf := binary.BigEndian.AppendUint64(trackerMagic[:], uint64(t.packets))
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
