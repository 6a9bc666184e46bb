package session

import (
	"encoding/binary"
	"fmt"

	"repro/internal/bitutil"
	"repro/internal/mac"
	"repro/internal/radio"
)

// Wire format. Every session message is one radio data frame whose header
// ID is the session ID, the demultiplexing key, and whose payload is
//
//	kind(1) body(…) fcs(4)
//
// with the CRC-32 FCS covering kind+body, so a corrupted datagram that
// slips past the radio header checks is still rejected with a typed error.
// Bodies are fixed-layout big-endian.
//
// A DATA body is offset(8)‖bytes, at least one byte: the 64-bit offset
// anchors reconnect-with-resume and, divided by the chunk size, indexes the
// gateway's reassembly window and its acks. The message FCS is the chunk's
// one checksum; the client's ARQ sequence numbers never leave the client.

// ProtocolVersion is the session-layer handshake version.
const ProtocolVersion = 1

// Kind discriminates session messages.
type Kind uint8

const (
	// KindHello opens a session: client → gateway.
	KindHello Kind = iota + 1
	// KindHelloAck accepts it, granting chunk size and credit.
	KindHelloAck
	// KindData carries one payload chunk at its offset.
	KindData
	// KindAck acknowledges chunks: ARQ Block Ack bitmap + cumulative
	// offset + credit grant.
	KindAck
	// KindResume re-attaches a reconnecting peer to its session.
	KindResume
	// KindResumeAck confirms, reporting the last contiguous offset the
	// gateway holds so the client rewinds exactly that far.
	KindResumeAck
	// KindFin announces the transfer is fully acknowledged client-side.
	KindFin
	// KindFinAck confirms the gateway verified the complete transfer.
	KindFinAck
	// KindReset aborts the session (either direction).
	KindReset
)

func (k Kind) String() string {
	switch k {
	case KindHello:
		return "hello"
	case KindHelloAck:
		return "hello-ack"
	case KindData:
		return "data"
	case KindAck:
		return "ack"
	case KindResume:
		return "resume"
	case KindResumeAck:
		return "resume-ack"
	case KindFin:
		return "fin"
	case KindFinAck:
		return "fin-ack"
	case KindReset:
		return "reset"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Chunk sizing: a DATA message must fit one radio data frame —
// kind(1) + offset(8) + chunk + message FCS (4).
const (
	chunkOverhead = 1 + 8 + 4
	// MaxChunkBytes bounds one chunk's payload bytes.
	MaxChunkBytes = radio.MaxDataPayload - chunkOverhead
	// DefaultChunkBytes is the negotiation default.
	DefaultChunkBytes = 1024
	// maxResetReason bounds the RESET reason string on the wire.
	maxResetReason = 120
)

// Msg is a decoded session message. Fields are populated per Kind; Session
// is copied from the radio header by the transport for convenience.
type Msg struct {
	Kind    Kind
	Session uint64

	// Total is the transfer length in bytes (Hello, Resume, Fin).
	Total uint64
	// ChunkSize is the requested (Hello/Resume) or granted
	// (HelloAck/ResumeAck) chunk payload size.
	ChunkSize uint32
	// Credit is the flow-control grant: how many chunks beyond the
	// cumulative offset the sender may have outstanding
	// (HelloAck, Ack, ResumeAck).
	Credit uint16
	// Ack is the ARQ Block Ack bitmap (Ack).
	Ack mac.BlockAck
	// CumOffset is the receiver's contiguous byte high-water mark
	// (Ack, ResumeAck).
	CumOffset uint64
	// Chunk is the DATA body, offset(8)‖bytes (Data). Aliases the decode
	// buffer.
	Chunk []byte
	// Reason documents a Reset.
	Reason string
}

// AppendMessage serializes m (without the radio framing) onto dst.
func AppendMessage(dst []byte, m *Msg) ([]byte, error) {
	start := len(dst)
	dst = append(dst, byte(m.Kind))
	var scratch [8]byte
	u64 := func(v uint64) {
		binary.BigEndian.PutUint64(scratch[:], v)
		dst = append(dst, scratch[:8]...)
	}
	u32 := func(v uint32) {
		binary.BigEndian.PutUint32(scratch[:4], v)
		dst = append(dst, scratch[:4]...)
	}
	u16 := func(v uint16) {
		binary.BigEndian.PutUint16(scratch[:2], v)
		dst = append(dst, scratch[:2]...)
	}
	switch m.Kind {
	case KindHello, KindResume:
		dst = append(dst, ProtocolVersion)
		u64(m.Total)
		u32(m.ChunkSize)
	case KindHelloAck:
		u32(m.ChunkSize)
		u16(m.Credit)
	case KindData:
		if len(m.Chunk) <= 8 {
			return nil, fmt.Errorf("session: data chunk %d bytes, need ≥ 9", len(m.Chunk))
		}
		dst = append(dst, m.Chunk...)
	case KindAck:
		u16(m.Ack.Start)
		u64(m.Ack.Bitmap)
		u64(m.CumOffset)
		u16(m.Credit)
	case KindResumeAck:
		u32(m.ChunkSize)
		u16(m.Credit)
		u64(m.CumOffset)
	case KindFin:
		u64(m.Total)
	case KindFinAck:
	case KindReset:
		r := m.Reason
		if len(r) > maxResetReason {
			r = r[:maxResetReason]
		}
		dst = append(dst, byte(len(r)))
		dst = append(dst, r...)
	default:
		return nil, fmt.Errorf("session: cannot encode message kind %v", m.Kind)
	}
	// FCS over kind+body: AppendFCS works on a standalone slice, so wrap
	// the appended region.
	framed := bitutil.AppendFCS(dst[start:])
	return append(dst[:start], framed...), nil
}

// DecodeMessage parses one session message payload (the bytes of a radio
// data frame). The returned Msg's Chunk aliases b. Corrupt or truncated
// input yields typed errors, never panics.
func DecodeMessage(b []byte) (*Msg, error) {
	body, ok := bitutil.CheckFCS(b)
	if !ok {
		return nil, fmt.Errorf("session: message FCS check failed")
	}
	if len(body) < 1 {
		return nil, fmt.Errorf("session: empty message")
	}
	m := &Msg{Kind: Kind(body[0])}
	body = body[1:]
	need := func(n int) error {
		if len(body) < n {
			return fmt.Errorf("session: %v message body %d bytes, need %d", m.Kind, len(body), n)
		}
		return nil
	}
	switch m.Kind {
	case KindHello, KindResume:
		if err := need(13); err != nil {
			return nil, err
		}
		if body[0] != ProtocolVersion {
			return nil, fmt.Errorf("session: protocol version %d, want %d", body[0], ProtocolVersion)
		}
		m.Total = binary.BigEndian.Uint64(body[1:])
		m.ChunkSize = binary.BigEndian.Uint32(body[9:])
	case KindHelloAck:
		if err := need(6); err != nil {
			return nil, err
		}
		m.ChunkSize = binary.BigEndian.Uint32(body[0:])
		m.Credit = binary.BigEndian.Uint16(body[4:])
	case KindData:
		if len(body) <= 8 {
			return nil, fmt.Errorf("session: data chunk %d bytes, need ≥ 9", len(body))
		}
		m.Chunk = body
	case KindAck:
		if err := need(20); err != nil {
			return nil, err
		}
		m.Ack.Start = binary.BigEndian.Uint16(body[0:])
		m.Ack.Bitmap = binary.BigEndian.Uint64(body[2:])
		m.CumOffset = binary.BigEndian.Uint64(body[10:])
		m.Credit = binary.BigEndian.Uint16(body[18:])
	case KindResumeAck:
		if err := need(14); err != nil {
			return nil, err
		}
		m.ChunkSize = binary.BigEndian.Uint32(body[0:])
		m.Credit = binary.BigEndian.Uint16(body[4:])
		m.CumOffset = binary.BigEndian.Uint64(body[6:])
	case KindFin:
		if err := need(8); err != nil {
			return nil, err
		}
		m.Total = binary.BigEndian.Uint64(body[0:])
	case KindFinAck:
	case KindReset:
		if err := need(1); err != nil {
			return nil, err
		}
		n := int(body[0])
		if n > maxResetReason || len(body) < 1+n {
			return nil, fmt.Errorf("session: reset reason %d bytes, have %d", n, len(body)-1)
		}
		m.Reason = string(body[1 : 1+n])
	default:
		return nil, fmt.Errorf("session: unknown message kind %d", uint8(m.Kind))
	}
	return m, nil
}

// chunkPayload lays one chunk out as the DATA body: the 64-bit offset that
// anchors resume, then the bytes. The client queues it into its ARQ window
// and sends it as it stands.
func chunkPayload(offset uint64, data []byte) []byte {
	payload := make([]byte, 8+len(data))
	binary.BigEndian.PutUint64(payload, offset)
	copy(payload[8:], data)
	return payload
}

// splitChunk reverses chunkPayload on a body DecodeMessage accepted.
func splitChunk(body []byte) (offset uint64, data []byte) {
	return binary.BigEndian.Uint64(body), body[8:]
}
