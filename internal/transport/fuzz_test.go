package transport

import (
	"bytes"
	"io"
	"math/rand"
	"testing"

	"pnm/internal/packet"
)

// FuzzFrame feeds arbitrary bytes to the frame reader and the datagram
// decoder, proving neither panics, that every message a reader accepts
// re-frames to a decodable frame (the framing is canonical), that on
// both paths the payload a frame hands the sink to MAC is exactly the
// accepted message's encoding, and that FrameReader.Next and the read
// loop's frame.read, each over its own reader, accept the same messages
// and reject the same frames.
func FuzzFrame(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	var stream []byte
	for i := 0; i < 3; i++ {
		stream = AppendFrame(stream, randomMessage(rng, 4))
	}
	f.Add(stream)
	f.Add(AppendFrame(nil, packet.Message{}))
	f.Add([]byte{})
	f.Add([]byte{0x50, 0x4E, 1, 1, 0xFF, 0xFF, 0xFF, 0xFF})
	// A frame whose payload is a mark-count bomb.
	bomb := packet.Message{}
	for i := 0; i < 40; i++ {
		bomb.Marks = append(bomb.Marks, packet.Mark{ID: packet.NodeID(i + 1)})
	}
	f.Add(AppendFrame(nil, bomb))

	f.Fuzz(func(t *testing.T, data []byte) {
		limits := Limits{MaxFrameBytes: 1 << 12, MaxMarks: 16}
		fr := NewFrameReader(bytes.NewReader(data), limits)
		next := NewFrameReader(bytes.NewReader(data), limits)
		var fm frame          // reused across frames, like the read loop does
		var nm packet.Message // reused across frames, like Next's callers do
		for i := 0; i < 1000; i++ {
			err := fm.read(fr)
			nerr := next.Next(&nm)
			if (err == nil) != (nerr == nil) || (err != nil && err.Error() != nerr.Error()) {
				t.Fatalf("frame %d: frame.read returned %v, Next %v", i, err, nerr)
			}
			if err == io.EOF {
				break
			}
			if err != nil {
				if Recoverable(err) {
					continue // framing held; keep reading
				}
				break
			}
			msg := fm.msg
			if !bytes.Equal(nm.Encode(nil), msg.Encode(nil)) {
				t.Fatalf("frame %d: Next accepted %+v, frame.read %+v", i, nm, msg)
			}
			if !bytes.Equal(fm.payload, msg.Encode(nil)) {
				t.Fatalf("stream payload handed to the sink is not the message's encoding:\n got: %x\nwant: %x", fm.payload, msg.Encode(nil))
			}
			// Anything accepted must re-frame canonically.
			re := AppendFrame(nil, msg)
			var got packet.Message
			if err := DecodeDatagramInto(&got, re, limits); err != nil {
				t.Fatalf("accepted message does not re-frame: %v", err)
			}
			if !bytes.Equal(got.Encode(nil), msg.Encode(nil)) {
				t.Fatal("re-framed message differs")
			}
			if len(msg.Marks) > limits.MaxMarks {
				t.Fatalf("reader accepted %d marks over limit %d", len(msg.Marks), limits.MaxMarks)
			}
			if msg.WireSize() > limits.MaxFrameBytes {
				t.Fatalf("reader accepted %d bytes over limit %d", msg.WireSize(), limits.MaxFrameBytes)
			}
		}
		// The datagram path must hold for the same bytes.
		var dg frame
		if err := dg.decodeDatagram(data, limits); err == nil {
			if len(dg.msg.Marks) > limits.MaxMarks {
				t.Fatalf("datagram accepted %d marks over limit", len(dg.msg.Marks))
			}
			if !bytes.Equal(dg.payload, dg.msg.Encode(nil)) {
				t.Fatalf("datagram payload handed to the sink is not the message's encoding:\n got: %x\nwant: %x", dg.payload, dg.msg.Encode(nil))
			}
		}
	})
}
