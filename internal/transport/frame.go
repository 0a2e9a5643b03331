// Package transport puts the wire format on real sockets: a length-
// prefixed, versioned frame around the packet.Message encoding, a TCP
// (and optional UDP) ingest server feeding the sink, and a client for
// load generators. This is the trust
// boundary: everything read here is attacker-controlled bytes, so every
// decode path is bounded (max frame size, max marks) and every rejection
// is counted, never panicked on.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"

	"pnm/internal/packet"
)

// Frame header layout: magic(2) version(1) type(1) length(4, big endian),
// then length payload bytes. The header is fixed-size so a reader can
// resynchronize only at connection granularity — a malformed header kills
// the connection, a malformed payload only the frame.
const (
	// frameMagic guards against a peer speaking a different protocol.
	frameMagic uint16 = 0x504E // "PN"
	// FrameVersion is the current header version.
	FrameVersion byte = 1
	// FrameReport is the only frame type so far: one encoded
	// packet.Message. Further types (checkpoint transfer, say) get new
	// values; unknown types are a counted error.
	FrameReport byte = 1
	// FrameHeaderLen is the fixed header size.
	FrameHeaderLen = 8
)

// Default ingest bounds. A report plus a full routing path of marks is
// well under a kilobyte; 64 KiB leaves room for deep topologies while
// capping what one hostile frame can make the server allocate.
const (
	// DefaultMaxFrameBytes bounds one frame's payload.
	DefaultMaxFrameBytes = 64 << 10
	// DefaultMaxMarks bounds the marks one message may carry. Each mark
	// costs the sink MAC work, so this bounds per-packet verification
	// cost, not just memory.
	DefaultMaxMarks = 512
)

// steadyPayloadBytes is the payload capacity a FrameReader retains across
// frames. Honest traffic — a report plus a full routing path of marks —
// is well under this; a near-MaxFrameBytes frame still decodes, but its
// buffer is transient, so one oversized frame cannot pin 64 KiB per
// connection for the connection's lifetime.
const steadyPayloadBytes = 4 << 10

// Limits bounds what the frame layer accepts from a peer.
type Limits struct {
	// MaxFrameBytes rejects frames whose payload exceeds this; <= 0
	// selects DefaultMaxFrameBytes.
	MaxFrameBytes int
	// MaxMarks rejects messages carrying more marks; <= 0 selects
	// DefaultMaxMarks.
	MaxMarks int
}

// withDefaults fills zero fields.
func (l Limits) withDefaults() Limits {
	if l.MaxFrameBytes <= 0 {
		l.MaxFrameBytes = DefaultMaxFrameBytes
	}
	if l.MaxMarks <= 0 {
		l.MaxMarks = DefaultMaxMarks
	}
	return l
}

// decodeLimit maps the frame limits onto the packet decoder's bounds.
func (l Limits) decodeLimit() packet.DecodeLimit {
	return packet.DecodeLimit{MaxBytes: l.MaxFrameBytes, MaxMarks: l.MaxMarks}
}

// Frame-layer errors. Header errors are fatal to the stream (framing can
// no longer be trusted); payload errors are recoverable (the frame
// boundary held, only its contents were hostile).
var (
	// ErrBadMagic reports a peer that is not speaking this protocol.
	ErrBadMagic = errors.New("transport: bad frame magic")
	// ErrBadVersion reports an unsupported frame version.
	ErrBadVersion = errors.New("transport: unsupported frame version")
	// ErrBadType reports an unknown frame type.
	ErrBadType = errors.New("transport: unknown frame type")
	// ErrFrameTooBig reports a length field beyond the limit.
	ErrFrameTooBig = errors.New("transport: frame exceeds size limit")
	// ErrBadPayload wraps a payload that failed the bounded message
	// decode. It is the only recoverable frame error.
	ErrBadPayload = errors.New("transport: bad frame payload")
)

// Frame error constructors, hoisted out of the noalloc-annotated decode
// bodies so the fmt boxing of their arguments stays off the per-frame
// path (errors never reach steady state; the happy path calls none of
// these).
//
//go:noinline
func errHeaderIO(err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("transport: frame header: %w", err)
}

//go:noinline
func errPayloadIO(err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("transport: frame payload: %w", err)
}

//go:noinline
func errVersion(v byte) error { return fmt.Errorf("%w: %d", ErrBadVersion, v) }

//go:noinline
func errType(t byte) error { return fmt.Errorf("%w: %d", ErrBadType, t) }

//go:noinline
func errTooBig(n, max int) error {
	return fmt.Errorf("%w: %d > %d bytes", ErrFrameTooBig, n, max)
}

//go:noinline
func errPayload(err error) error {
	return fmt.Errorf("%w: %v", ErrBadPayload, err)
}

//go:noinline
func errDatagramLen(got, claimed int) error {
	return fmt.Errorf("transport: datagram length %d, header claims %d", got, claimed)
}

// Recoverable reports whether a FrameReader.Next error allows reading the
// following frame: the framing survived, only the payload was rejected.
func Recoverable(err error) bool {
	return errors.Is(err, ErrBadPayload)
}

// AppendFrame appends one framed message to dst and returns it — the
// encoding side of the wire format, shared by the client and tests.
func AppendFrame(dst []byte, msg packet.Message) []byte {
	start := len(dst)
	var hdr [FrameHeaderLen]byte
	binary.BigEndian.PutUint16(hdr[0:], frameMagic)
	hdr[2] = FrameVersion
	hdr[3] = FrameReport
	dst = append(dst, hdr[:]...)
	dst = msg.Encode(dst)
	payload := len(dst) - start - FrameHeaderLen
	binary.BigEndian.PutUint32(dst[start+4:], uint32(payload))
	return dst
}

// FrameReader decodes a stream of frames under the given limits. It is a
// single-goroutine object (one per connection) reusing one header and
// one payload buffer across frames.
type FrameReader struct {
	br      *bufio.Reader
	limits  Limits
	hdr     [FrameHeaderLen]byte
	payload []byte
}

// NewFrameReader wraps r. Zero limit fields select the defaults.
func NewFrameReader(r io.Reader, limits Limits) *FrameReader {
	return &FrameReader{br: bufio.NewReader(r), limits: limits.withDefaults()}
}

// Next reads one frame and decodes its message into msg, reusing msg's
// mark storage (packet.DecodeLimit.DecodeInto). io.EOF cleanly between
// frames means the stream ended; any other error classifies via
// Recoverable, and msg holds no marks. The decoded message owns its
// memory — nothing in it aliases the reader's buffers, so the caller may
// hand msg off and keep reading. In steady state (payloads within
// steadyPayloadBytes, mark count within msg's capacity) Next allocates
// nothing per frame.
// pnmlint:noalloc
func (fr *FrameReader) Next(msg *packet.Message) error {
	p, err := fr.readInto(msg, fr.payload)
	if cap(p) <= steadyPayloadBytes {
		fr.payload = p
	}
	return err
}

// readInto reads one frame, its payload into buf's storage (payloadBuf),
// and decodes the message into msg. It returns the payload read — the
// bytes msg was decoded from, once the error is nil — and buf's storage
// for reuse otherwise; on error msg holds no marks. The header is one
// read: io.EOF before its first byte is the stream's clean end, and any
// shorter header is truncated.
// pnmlint:noalloc
func (fr *FrameReader) readInto(msg *packet.Message, buf []byte) ([]byte, error) {
	msg.Marks = msg.Marks[:0]
	if _, err := io.ReadFull(fr.br, fr.hdr[:]); err != nil {
		if err == io.EOF {
			return buf, io.EOF
		}
		return buf, errHeaderIO(err)
	}
	n, err := payloadLen(fr.hdr, fr.limits)
	if err != nil {
		return buf, err
	}
	buf = payloadBuf(buf, n)
	if _, err := io.ReadFull(fr.br, buf); err != nil {
		return buf, errPayloadIO(err)
	}
	if err := fr.limits.decodeLimit().DecodeInto(msg, buf); err != nil {
		// The frame boundary held; only the contents are rejected.
		return buf, errPayload(err)
	}
	return buf, nil
}

// payloadLen checks a frame header — magic, version, type and the
// length bound of limits, whose defaults are filled — and returns the
// payload length it declares. Both ingest paths, the stream's readInto
// and DecodeDatagramInto, check headers here.
// pnmlint:noalloc
func payloadLen(hdr [FrameHeaderLen]byte, limits Limits) (int, error) {
	if binary.BigEndian.Uint16(hdr[0:]) != frameMagic {
		return 0, ErrBadMagic
	}
	if hdr[2] != FrameVersion {
		return 0, errVersion(hdr[2])
	}
	if hdr[3] != FrameReport {
		return 0, errType(hdr[3])
	}
	n := int(binary.BigEndian.Uint32(hdr[4:]))
	if n > limits.MaxFrameBytes {
		return 0, errTooBig(n, limits.MaxFrameBytes)
	}
	return n, nil
}

// minPayloadCap is the smallest payload buffer payloadBuf makes: an
// honest report with a few marks fits, and a buffer grows by powers of
// two from there.
const minPayloadCap = 256

// payloadBuf returns an n-byte payload buffer in buf's storage when buf
// is a steady one with room. Payloads up to steadyPayloadBytes reuse buf
// or get a buffer of the next power of two, at least minPayloadCap
// bytes; larger ones get a transient allocation, and a buffer over the
// steady cap is never reused. So whoever keeps the buffers it returns —
// a FrameReader, a pooled frame — keeps at most steadyPayloadBytes per
// buffer by dropping any larger one, no matter what frame sizes a peer
// sends. Sizing a buffer to its frames, not to the cap, also keeps the
// many pooled frames' payloads from all starting on a page boundary,
// where they would compete for the same cache sets. Not inlined: its
// growth and oversize allocations must not land inside callers' noalloc
// ranges (the steady state allocates nothing).
//
//go:noinline
func payloadBuf(buf []byte, n int) []byte {
	if n > steadyPayloadBytes {
		return make([]byte, n)
	}
	if cap(buf) < n || cap(buf) > steadyPayloadBytes {
		buf = make([]byte, max(minPayloadCap, 1<<bits.Len(uint(n-1))))
	}
	return buf[:n]
}

// DecodeDatagramInto decodes one datagram carrying exactly one frame —
// the UDP ingest path — into a caller-owned message, reusing its mark
// storage. Every error is per-datagram (there is no stream to corrupt),
// so callers count and continue. Nothing in msg aliases b after return;
// on error msg holds no marks.
// pnmlint:noalloc
func DecodeDatagramInto(msg *packet.Message, b []byte, limits Limits) error {
	msg.Marks = msg.Marks[:0]
	limits = limits.withDefaults()
	if len(b) < FrameHeaderLen {
		return errHeaderIO(io.ErrUnexpectedEOF)
	}
	n, err := payloadLen([FrameHeaderLen]byte(b), limits)
	if err != nil {
		return err
	}
	if n != len(b)-FrameHeaderLen {
		return errDatagramLen(len(b)-FrameHeaderLen, n)
	}
	if err := limits.decodeLimit().DecodeInto(msg, b[FrameHeaderLen:]); err != nil {
		return errPayload(err)
	}
	return nil
}
