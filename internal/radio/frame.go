// Package radio provides the IQ sample transport that stands in for the
// host↔USRP2 link of the paper's testbed: a compact framed format carrying
// synchronized multi-antenna complex baseband over any io.Reader/io.Writer
// (TCP), over UDP datagrams with loss detection, or in-process. Samples are
// serialized as interleaved float32 I/Q, the format SDR front-ends commonly
// emit.
package radio

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Frame format (big-endian):
//
//	magic   uint32  "MNIQ" (0x4D4E4951)
//	version uint8   4 (1 = legacy, no packet field; 2 = no session field;
//	                3 = no station fields)
//	streams uint8   number of antenna streams (1-4)
//	flags   uint16  bit 0: end-of-burst; bit 1: data payload (version ≥ 3)
//	seq     uint64  frame sequence number
//	count   uint32  samples per stream — or payload bytes for a data frame
//	packet  uint64  TX-assigned packet ID (version ≥ 2; 0 = unknown)
//	session uint64  session ID (version ≥ 3; 0 = sessionless)
//	station uint16  AP-assigned station ID (version ≥ 4; 0 = unassociated)
//	group   uint64  MU group bitmap (version ≥ 4; bit i = station slot i
//	                addressed by this transmission; 0 = single-user)
//	payload streams × count × (float32 I, float32 Q), stream-major —
//	        or count opaque bytes for a data frame
//
// The packet ID is the cross-process correlation key: the transmitter stamps
// every frame of a burst with the MAC packet it carries, so receive-side
// traces and flight-recorder dumps can be joined to the TX record without
// decoding the payload. Version 1 frames (pre-ID) still decode, with ID 0.
//
// The session ID is the demultiplexing key of the session gateway
// (internal/session): a long-running process serves many independent links
// over one socket, routing each frame to its session by this field. Data
// frames (FlagData) carry opaque session-layer bytes instead of IQ samples
// and use the version-3 or version-4 form; sample paths reject them with
// typed errors. Version 1 and 2 frames still decode, with session ID 0.
//
// The station ID and group bitmap are the multi-user extension
// (internal/apmac, internal/mumimo): an access point serves many stations
// over one socket, routing uplink frames to per-station MAC state by the
// station field and announcing which station slots a precoded downlink
// burst addresses through the group bitmap. EncodeFrame/EncodeDataFrame
// select the version-4 form automatically when either field is present;
// versions 1-3 still decode, with station 0 and an empty bitmap.
const (
	frameMagic   = 0x4D4E4951
	frameVersion = 2
	// frameVersionSession is the extended form carrying the session field;
	// EncodeFrame selects it automatically when a session ID is present.
	frameVersionSession = 3
	// frameVersionMU is the multi-user form carrying the station ID and
	// group bitmap; selected automatically when either field is present.
	frameVersionMU = 4
	headerSizeV1   = 4 + 1 + 1 + 2 + 8 + 4
	headerSizeV2   = headerSizeV1 + 8
	headerSize     = headerSizeV2
	headerSizeV3   = headerSizeV2 + 8
	headerSizeV4   = headerSizeV3 + 2 + 8

	// MaxSamplesPerFrame bounds a frame to fit a UDP datagram under the
	// common 1500-byte MTU minus headers when streaming one antenna; the
	// writer splits larger bursts automatically.
	MaxSamplesPerFrame = 4096

	// MaxDataPayload bounds a data frame's byte payload so one session
	// message always fits a single UDP datagram under the common MTU.
	MaxDataPayload = 1400
)

// FlagEndOfBurst marks the final frame of a burst (packet).
const FlagEndOfBurst = 1 << 0

// FlagData marks a frame whose payload is Count opaque bytes (session-layer
// messages) rather than IQ samples. Requires the version-3 header form.
const FlagData = 1 << 1

// Header describes one frame.
type Header struct {
	Streams int
	Flags   uint16
	Seq     uint64
	Count   int
	// PacketID is the TX-assigned MAC packet this frame's samples belong to
	// (0 = unknown / legacy frame).
	PacketID uint64
	// SessionID identifies the gateway session this frame belongs to
	// (0 = sessionless; carried by the version-3/4 wire forms).
	SessionID uint64
	// StationID identifies the associated station this frame belongs to at
	// a multi-user access point (0 = unassociated; carried only by the
	// version-4 wire form).
	StationID uint16
	// GroupBitmap announces the MU group of a precoded downlink burst:
	// bit i set means station slot i is addressed by this transmission
	// (0 = single-user; carried only by the version-4 wire form).
	GroupBitmap uint64
	// wireVersion records a decoded non-default wire form (1, 3, or 4);
	// zero for the default version-2 form and on caller-built headers,
	// whose form EncodeFrame derives from the fields present.
	wireVersion byte
}

// isMU reports whether the header carries multi-user fields that force the
// version-4 wire form.
func (h Header) isMU() bool { return h.StationID != 0 || h.GroupBitmap != 0 }

// IsData reports whether the frame carries opaque bytes rather than samples.
func (h Header) IsData() bool { return h.Flags&FlagData != 0 }

// HeaderLen returns the wire size of this header — the payload offset within
// its frame. Decoded headers report their wire form; caller-built headers
// report the form EncodeFrame would choose.
func (h Header) HeaderLen() int {
	switch h.wireVersion {
	case 1:
		return headerSizeV1
	case frameVersion:
		return headerSizeV2
	case frameVersionSession:
		return headerSizeV3
	case frameVersionMU:
		return headerSizeV4
	}
	if h.isMU() {
		return headerSizeV4
	}
	if h.SessionID != 0 || h.IsData() {
		return headerSizeV3
	}
	return headerSizeV2
}

// EncodeFrame appends one frame carrying samples[stream][i] to dst and
// returns the extended buffer. All streams must have equal length ≤
// MaxSamplesPerFrame. A non-zero SessionID selects the version-3 wire form;
// data frames are encoded by EncodeDataFrame, not here.
func EncodeFrame(dst []byte, h Header, samples [][]complex128) ([]byte, error) {
	if h.IsData() {
		return nil, fmt.Errorf("radio: EncodeFrame carries samples; use EncodeDataFrame for data frames")
	}
	if h.Streams < 1 || h.Streams > 4 || len(samples) != h.Streams {
		return nil, fmt.Errorf("radio: %d streams invalid or mismatched with %d slices", h.Streams, len(samples))
	}
	n := len(samples[0])
	for i, s := range samples {
		if len(s) != n {
			return nil, fmt.Errorf("radio: stream %d has %d samples, stream 0 has %d", i, len(s), n)
		}
	}
	if n == 0 || n > MaxSamplesPerFrame {
		return nil, fmt.Errorf("radio: frame sample count %d outside [1, %d]", n, MaxSamplesPerFrame)
	}
	dst = appendHeader(dst, h, n)
	var scratch [8]byte
	for _, s := range samples {
		for _, v := range s {
			binary.BigEndian.PutUint32(scratch[0:], math.Float32bits(float32(real(v))))
			binary.BigEndian.PutUint32(scratch[4:], math.Float32bits(float32(imag(v))))
			dst = append(dst, scratch[:]...)
		}
	}
	return dst, nil
}

// appendHeader serializes h with the given count field, choosing the
// version-2 form for sessionless sample frames, version 4 when multi-user
// fields are present, and version 3 otherwise.
func appendHeader(dst []byte, h Header, count int) []byte {
	var hdr [headerSizeV4]byte
	binary.BigEndian.PutUint32(hdr[0:], frameMagic)
	hdr[5] = byte(h.Streams)
	binary.BigEndian.PutUint16(hdr[6:], h.Flags)
	binary.BigEndian.PutUint64(hdr[8:], h.Seq)
	binary.BigEndian.PutUint32(hdr[16:], uint32(count))
	binary.BigEndian.PutUint64(hdr[20:], h.PacketID)
	if h.isMU() {
		hdr[4] = frameVersionMU
		binary.BigEndian.PutUint64(hdr[28:], h.SessionID)
		binary.BigEndian.PutUint16(hdr[36:], h.StationID)
		binary.BigEndian.PutUint64(hdr[38:], h.GroupBitmap)
		return append(dst, hdr[:headerSizeV4]...)
	}
	if h.SessionID == 0 && !h.IsData() {
		hdr[4] = frameVersion
		return append(dst, hdr[:headerSizeV2]...)
	}
	hdr[4] = frameVersionSession
	binary.BigEndian.PutUint64(hdr[28:], h.SessionID)
	return append(dst, hdr[:headerSizeV3]...)
}

// EncodeDataFrame appends one version-3 (or version-4, when multi-user
// fields are present) data frame carrying payload to dst and returns the
// extended buffer. The header's Streams and Count are implied
// (1, len(payload)); FlagData is set automatically and the end-of-burst
// flag is preserved. Data frames are the transport of the session gateway
// and the AP MAC, so a demultiplexing key — a non-zero SessionID or
// StationID — is required.
func EncodeDataFrame(dst []byte, h Header, payload []byte) ([]byte, error) {
	if h.SessionID == 0 && h.StationID == 0 {
		return nil, fmt.Errorf("radio: data frames require a non-zero session or station ID")
	}
	if len(payload) == 0 || len(payload) > MaxDataPayload {
		return nil, fmt.Errorf("radio: data payload %d outside [1, %d]", len(payload), MaxDataPayload)
	}
	h.Flags |= FlagData
	h.Streams = 1
	dst = appendHeader(dst, h, len(payload))
	return append(dst, payload...), nil
}

// DecodeDataPayload returns the opaque byte payload following a decoded data
// frame header. The result aliases b; callers that keep it across reads of a
// shared buffer must copy.
func DecodeDataPayload(h Header, b []byte) ([]byte, error) {
	if !h.IsData() {
		return nil, fmt.Errorf("radio: frame is not a data frame")
	}
	if len(b) < h.Count {
		return nil, fmt.Errorf("radio: data payload needs %d bytes, got %d", h.Count, len(b))
	}
	return b[:h.Count], nil
}

// DecodeHeader parses a frame header. The current version-4 form, the
// version-3 form (no station fields), the version-2 form (no session ID),
// and the legacy version-1 form (no packet ID) are all accepted; use
// HeaderLen on the result for the payload offset.
func DecodeHeader(b []byte) (Header, error) {
	if len(b) < headerSizeV1 {
		return Header{}, fmt.Errorf("radio: header needs %d bytes, got %d", headerSizeV1, len(b))
	}
	if binary.BigEndian.Uint32(b[0:]) != frameMagic {
		return Header{}, fmt.Errorf("radio: bad magic %#08x", binary.BigEndian.Uint32(b[0:]))
	}
	if b[4] != 1 && b[4] != frameVersion && b[4] != frameVersionSession && b[4] != frameVersionMU {
		return Header{}, fmt.Errorf("radio: unsupported version %d", b[4])
	}
	version := b[4]
	h := Header{
		Streams: int(b[5]),
		Flags:   binary.BigEndian.Uint16(b[6:]),
		Seq:     binary.BigEndian.Uint64(b[8:]),
		Count:   int(binary.BigEndian.Uint32(b[16:])),
	}
	if version != frameVersion {
		h.wireVersion = version
	}
	if version >= frameVersion {
		if len(b) < headerSizeV2 {
			return Header{}, fmt.Errorf("radio: v2 header needs %d bytes, got %d", headerSizeV2, len(b))
		}
		h.PacketID = binary.BigEndian.Uint64(b[20:])
	}
	if version >= frameVersionSession {
		if len(b) < headerSizeV3 {
			return Header{}, fmt.Errorf("radio: v3 header needs %d bytes, got %d", headerSizeV3, len(b))
		}
		h.SessionID = binary.BigEndian.Uint64(b[28:])
	}
	if version >= frameVersionMU {
		if len(b) < headerSizeV4 {
			return Header{}, fmt.Errorf("radio: v4 header needs %d bytes, got %d", headerSizeV4, len(b))
		}
		h.StationID = binary.BigEndian.Uint16(b[36:])
		h.GroupBitmap = binary.BigEndian.Uint64(b[38:])
	}
	if h.IsData() {
		// Data frames: opaque byte payload, single logical stream, only the
		// session- or MU-extended forms. Truncated or corrupt demux fields
		// land here as typed errors, never panics.
		if version != frameVersionSession && version != frameVersionMU {
			return Header{}, fmt.Errorf("radio: data frame requires the v%d or v%d header form, got v%d",
				frameVersionSession, frameVersionMU, version)
		}
		if h.SessionID == 0 && h.StationID == 0 {
			return Header{}, fmt.Errorf("radio: data frame with no session or station ID")
		}
		if h.Streams != 1 {
			return Header{}, fmt.Errorf("radio: data frame stream count %d (want 1)", h.Streams)
		}
		if h.Count < 1 || h.Count > MaxDataPayload {
			return Header{}, fmt.Errorf("radio: data payload %d out of range", h.Count)
		}
		return h, nil
	}
	if h.Streams < 1 || h.Streams > 4 {
		return Header{}, fmt.Errorf("radio: stream count %d out of range", h.Streams)
	}
	if h.Count < 1 || h.Count > MaxSamplesPerFrame {
		return Header{}, fmt.Errorf("radio: sample count %d out of range", h.Count)
	}
	return h, nil
}

// DecodePayload parses the sample payload following a decoded header,
// appending to per-stream slices in dst (growing as needed). dst must have
// h.Streams entries.
func DecodePayload(dst [][]complex128, h Header, b []byte) ([][]complex128, error) {
	if h.IsData() {
		return nil, fmt.Errorf("radio: data frame carries bytes, not samples; use DecodeDataPayload")
	}
	want := h.Streams * h.Count * 8
	if len(b) < want {
		return nil, fmt.Errorf("radio: payload needs %d bytes, got %d", want, len(b))
	}
	if len(dst) != h.Streams {
		return nil, fmt.Errorf("radio: dst has %d streams, frame has %d", len(dst), h.Streams)
	}
	off := 0
	for s := 0; s < h.Streams; s++ {
		for i := 0; i < h.Count; i++ {
			re := math.Float32frombits(binary.BigEndian.Uint32(b[off:]))
			im := math.Float32frombits(binary.BigEndian.Uint32(b[off+4:]))
			dst[s] = append(dst[s], complex(float64(re), float64(im)))
			off += 8
		}
	}
	return dst, nil
}

// StreamWriter writes bursts as a sequence of frames over a stream
// transport (TCP or anything io.Writer). Not safe for concurrent use.
type StreamWriter struct {
	w       io.Writer
	streams int
	seq     uint64
	buf     []byte
}

// NewStreamWriter returns a writer for the given antenna count.
func NewStreamWriter(w io.Writer, streams int) (*StreamWriter, error) {
	if streams < 1 || streams > 4 {
		return nil, fmt.Errorf("radio: stream count %d out of range [1,4]", streams)
	}
	return &StreamWriter{w: w, streams: streams}, nil
}

// WriteBurstID sends one burst with every frame stamped with the
// TX-assigned packet ID, the cross-process correlation key.
func (w *StreamWriter) WriteBurstID(packetID uint64, samples [][]complex128) error {
	if len(samples) != w.streams {
		return fmt.Errorf("radio: %d streams, writer configured for %d", len(samples), w.streams)
	}
	total := len(samples[0])
	if total == 0 {
		return fmt.Errorf("radio: empty burst")
	}
	for off := 0; off < total; off += MaxSamplesPerFrame {
		end := off + MaxSamplesPerFrame
		if end > total {
			end = total
		}
		var flags uint16
		if end == total {
			flags = FlagEndOfBurst
		}
		chunk := make([][]complex128, w.streams)
		for s := range samples {
			if len(samples[s]) != total {
				return fmt.Errorf("radio: ragged burst")
			}
			chunk[s] = samples[s][off:end]
		}
		w.buf = w.buf[:0]
		var err error
		w.buf, err = EncodeFrame(w.buf, Header{Streams: w.streams, Flags: flags, Seq: w.seq, Count: end - off, PacketID: packetID}, chunk)
		if err != nil {
			return err
		}
		w.seq++
		if _, err := w.w.Write(w.buf); err != nil {
			return fmt.Errorf("radio: write: %w", err)
		}
	}
	return nil
}

// StreamReader reads bursts from a stream transport.
type StreamReader struct {
	r   io.Reader
	hdr [headerSizeV4]byte
	buf []byte
	// lastPacketID is the packet ID carried by the most recently assembled
	// burst's frames.
	lastPacketID uint64
}

// NewStreamReader returns a reader.
func NewStreamReader(r io.Reader) *StreamReader {
	return &StreamReader{r: r}
}

// LastPacketID returns the TX-assigned packet ID of the last burst ReadBurst
// returned (0 before the first burst or on legacy frames).
func (r *StreamReader) LastPacketID() uint64 { return r.lastPacketID }

// ReadBurst reassembles frames until an end-of-burst flag and returns the
// per-stream samples. io.EOF is returned (possibly wrapping partial data
// loss) when the transport closes cleanly between bursts.
func (r *StreamReader) ReadBurst() ([][]complex128, error) {
	var out [][]complex128
	for {
		// Read the short (v1) prefix first; the version byte decides whether
		// the packet-ID extension follows.
		if _, err := io.ReadFull(r.r, r.hdr[:headerSizeV1]); err != nil {
			if err == io.EOF && out == nil {
				return nil, io.EOF
			}
			return nil, fmt.Errorf("radio: read header: %w", err)
		}
		hl := headerSizeV1
		switch r.hdr[4] {
		case 1:
		case frameVersionSession:
			hl = headerSizeV3
		case frameVersionMU:
			hl = headerSizeV4
		default:
			hl = headerSizeV2
		}
		if hl > headerSizeV1 {
			if _, err := io.ReadFull(r.r, r.hdr[headerSizeV1:hl]); err != nil {
				return nil, fmt.Errorf("radio: read header: %w", err)
			}
		}
		h, err := DecodeHeader(r.hdr[:hl])
		if err != nil {
			return nil, err
		}
		if h.IsData() {
			return nil, fmt.Errorf("radio: data frame on a sample stream")
		}
		need := h.Streams * h.Count * 8
		if cap(r.buf) < need {
			r.buf = make([]byte, need)
		}
		r.buf = r.buf[:need]
		if _, err := io.ReadFull(r.r, r.buf); err != nil {
			return nil, fmt.Errorf("radio: read payload: %w", err)
		}
		if out == nil {
			out = make([][]complex128, h.Streams)
			r.lastPacketID = h.PacketID
		}
		if len(out) != h.Streams {
			return nil, fmt.Errorf("radio: stream count changed mid-burst")
		}
		out, err = DecodePayload(out, h, r.buf)
		if err != nil {
			return nil, err
		}
		if h.Flags&FlagEndOfBurst != 0 {
			return out, nil
		}
	}
}
