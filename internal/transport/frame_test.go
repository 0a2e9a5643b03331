package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"

	"pnm/internal/packet"
)

// randomMessage builds an arbitrary valid message.
func randomMessage(rng *rand.Rand, maxMarks int) packet.Message {
	msg := packet.Message{Report: packet.Report{
		Event:     rng.Uint32(),
		Location:  rng.Uint32(),
		Timestamp: rng.Uint64(),
		Seq:       rng.Uint32(),
	}}
	n := rng.Intn(maxMarks + 1)
	for i := 0; i < n; i++ {
		var mk packet.Mark
		if rng.Intn(2) == 0 {
			mk.Anonymous = true
			rng.Read(mk.AnonID[:])
		} else {
			mk.ID = packet.NodeID(1 + rng.Intn(1<<15))
		}
		rng.Read(mk.MAC[:])
		msg.Marks = append(msg.Marks, mk)
	}
	return msg
}

func TestFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var stream []byte
	var want []packet.Message
	for i := 0; i < 50; i++ {
		msg := randomMessage(rng, 6)
		want = append(want, msg)
		stream = AppendFrame(stream, msg)
	}
	fr := NewFrameReader(bytes.NewReader(stream), Limits{})
	var got packet.Message // reused across frames, like the read loop does
	for i, w := range want {
		if err := fr.Next(&got); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got.Encode(nil), w.Encode(nil)) {
			t.Fatalf("frame %d round trip differs", i)
		}
	}
	if err := fr.Next(&got); err != io.EOF {
		t.Fatalf("want io.EOF at stream end, got %v", err)
	}
}

// frameWith builds a frame then lets the caller corrupt it.
func frameWith(corrupt func([]byte) []byte) []byte {
	msg := packet.Message{Report: packet.Report{Event: 1, Seq: 2},
		Marks: []packet.Mark{{ID: 3, MAC: [packet.MACLen]byte{4}}}}
	return corrupt(AppendFrame(nil, msg))
}

func TestFrameReaderHostileInput(t *testing.T) {
	markBomb := func(n int) []byte {
		msg := packet.Message{Report: packet.Report{Event: 9}}
		for i := 0; i < n; i++ {
			msg.Marks = append(msg.Marks, packet.Mark{ID: packet.NodeID(i + 1)})
		}
		return AppendFrame(nil, msg)
	}
	tests := []struct {
		name        string
		give        []byte
		limits      Limits
		wantErr     error
		recoverable bool
	}{
		{
			name: "truncated header",
			give: frameWith(func(b []byte) []byte { return b[:FrameHeaderLen-2] }),
		},
		{
			name: "truncated payload",
			give: frameWith(func(b []byte) []byte { return b[:len(b)-3] }),
		},
		{
			name:    "bad magic",
			give:    frameWith(func(b []byte) []byte { b[0] = 0xFF; return b }),
			wantErr: ErrBadMagic,
		},
		{
			name:    "bad version",
			give:    frameWith(func(b []byte) []byte { b[2] = 99; return b }),
			wantErr: ErrBadVersion,
		},
		{
			name:    "bad type",
			give:    frameWith(func(b []byte) []byte { b[3] = 42; return b }),
			wantErr: ErrBadType,
		},
		{
			name: "oversized length claim",
			give: frameWith(func(b []byte) []byte {
				binary.BigEndian.PutUint32(b[4:], 1<<30)
				return b
			}),
			wantErr: ErrFrameTooBig,
		},
		{
			name:        "mark-count bomb",
			give:        markBomb(64),
			limits:      Limits{MaxMarks: 8},
			wantErr:     ErrBadPayload,
			recoverable: true,
		},
		{
			name: "unknown mark kind",
			give: frameWith(func(b []byte) []byte {
				// First mark's flag byte sits right after the report.
				b[FrameHeaderLen+packet.ReportLen] = 7
				return b
			}),
			wantErr:     ErrBadPayload,
			recoverable: true,
		},
		{
			name: "trailing garbage payload",
			give: frameWith(func(b []byte) []byte {
				b = append(b, 0xAB)
				binary.BigEndian.PutUint32(b[4:], uint32(len(b)-FrameHeaderLen))
				return b
			}),
			wantErr:     ErrBadPayload,
			recoverable: true,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			fr := NewFrameReader(bytes.NewReader(tt.give), tt.limits)
			var msg packet.Message
			err := fr.Next(&msg)
			if err == nil {
				t.Fatal("want error")
			}
			if tt.wantErr != nil && !errors.Is(err, tt.wantErr) {
				t.Fatalf("err = %v, want %v", err, tt.wantErr)
			}
			if got := Recoverable(err); got != tt.recoverable {
				t.Fatalf("Recoverable = %v, want %v", got, tt.recoverable)
			}
			if len(msg.Marks) != 0 {
				t.Fatalf("rejected frame left %d marks in msg", len(msg.Marks))
			}
		})
	}
}

func TestFrameReaderRecoversAfterBadPayload(t *testing.T) {
	good := packet.Message{Report: packet.Report{Event: 7}}
	stream := frameWith(func(b []byte) []byte {
		b[FrameHeaderLen+packet.ReportLen] = 7 // unknown mark kind
		return b
	})
	stream = AppendFrame(stream, good)
	fr := NewFrameReader(bytes.NewReader(stream), Limits{})
	var got packet.Message
	if err := fr.Next(&got); !Recoverable(err) {
		t.Fatalf("first frame: want recoverable error, got %v", err)
	}
	if err := fr.Next(&got); err != nil {
		t.Fatalf("second frame: %v", err)
	}
	if got.Report != good.Report {
		t.Fatalf("second frame = %+v", got)
	}
}

func TestDecodeDatagram(t *testing.T) {
	msg := randomMessage(rand.New(rand.NewSource(2)), 4)
	b := AppendFrame(nil, msg)
	var got packet.Message
	if err := DecodeDatagramInto(&got, b, Limits{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Encode(nil), msg.Encode(nil)) {
		t.Fatal("datagram round trip differs")
	}
	if err := DecodeDatagramInto(&got, b[:5], Limits{}); err == nil {
		t.Fatal("want error for truncated datagram")
	}
	if err := DecodeDatagramInto(&got, append(b, 1), Limits{}); err == nil {
		t.Fatal("want error for datagram with trailing bytes")
	}
	b[0] = 0xFF
	if err := DecodeDatagramInto(&got, b, Limits{}); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("want ErrBadMagic, got %v", err)
	}
}

// TestHeaderErrorLeavesNoMarks decodes a 2-mark frame into a message,
// then feeds each kind of bad header to Next and to DecodeDatagramInto
// with the same message: both must return the header's error and leave
// no marks behind, as they document, so a caller that reuses the
// message after a rejected frame never sees the previous frame's marks.
func TestHeaderErrorLeavesNoMarks(t *testing.T) {
	good := AppendFrame(nil, randomMessage(rand.New(rand.NewSource(3)), 2))
	corrupt := func(at int, b byte) []byte {
		f := bytes.Clone(good)
		f[at] = b
		return f
	}
	for _, tc := range []struct {
		name  string
		frame []byte
		want  error
	}{
		{"magic", corrupt(0, 0xFF), ErrBadMagic},
		{"version", corrupt(2, FrameVersion+1), ErrBadVersion},
		{"type", corrupt(3, FrameReport+1), ErrBadType},
		{"length", corrupt(4, 0x7F), ErrFrameTooBig},
	} {
		var msg packet.Message
		if err := DecodeDatagramInto(&msg, good, Limits{}); err != nil || len(msg.Marks) != 2 {
			t.Fatalf("%s: good frame decoded to %d marks, err %v", tc.name, len(msg.Marks), err)
		}
		if err := DecodeDatagramInto(&msg, tc.frame, Limits{}); !errors.Is(err, tc.want) || len(msg.Marks) != 0 {
			t.Errorf("%s: DecodeDatagramInto returned %v and left %d marks, want %v and none", tc.name, err, len(msg.Marks), tc.want)
		}
		fr := NewFrameReader(bytes.NewReader(append(bytes.Clone(good), tc.frame...)), Limits{})
		if err := fr.Next(&msg); err != nil || len(msg.Marks) != 2 {
			t.Fatalf("%s: good frame read as %d marks, err %v", tc.name, len(msg.Marks), err)
		}
		if err := fr.Next(&msg); !errors.Is(err, tc.want) || len(msg.Marks) != 0 {
			t.Errorf("%s: Next returned %v and left %d marks, want %v and none", tc.name, err, len(msg.Marks), tc.want)
		}
	}
}
