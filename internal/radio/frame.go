// Package radio provides the IQ sample transport that stands in for the
// host↔USRP2 link of the paper's testbed: a compact framed format carrying
// synchronized multi-antenna complex baseband over any io.Reader/io.Writer
// (TCP), over UDP datagrams with loss detection, or in-process. Samples are
// serialized as interleaved float32 I/Q, the format SDR front-ends commonly
// emit. The same frame carries opaque data payloads, which DatagramService
// serves over one supervised UDP socket for the session gateway and the
// multi-user AP.
package radio

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Frame layout: one fixed 28-byte header, big-endian, then the payload.
//
//	magic   [0-3]   uint32  "MNIQ" (0x4D4E4951)
//	version [4]     uint8   2
//	streams [5]     uint8   antenna streams (1-4); 1 on a data frame
//	flags   [6-7]   uint16  bit 0: end of burst; bit 1: data payload
//	seq     [8-15]  uint64  frame sequence number
//	count   [16-19] uint32  samples per stream, or payload bytes on a data frame
//	id      [20-27] uint64  demultiplexing key (Header.ID)
//	payload [28-]   streams × count × (float32 I, float32 Q), stream-major,
//	                or count opaque bytes on a data frame
//
// A 1-stream datagram of 180 samples is 1468 bytes, inside a 1500-byte MTU
// with the IP and UDP headers.
const (
	frameMagic   = 0x4D4E4951
	frameVersion = 2
	headerSize   = 28

	// MaxSamplesPerFrame bounds a frame to fit a UDP datagram under the
	// common 1500-byte MTU minus headers when streaming one antenna; the
	// writer splits larger bursts automatically.
	MaxSamplesPerFrame = 4096

	// MaxDataPayload bounds a data frame's byte payload so one message
	// always fits a single UDP datagram under the common MTU.
	MaxDataPayload = 1400
)

// FlagEndOfBurst marks the final frame of a burst (packet).
const FlagEndOfBurst = 1 << 0

// FlagData marks a frame whose payload is Count opaque bytes (session or AP
// MAC messages) rather than IQ samples.
const FlagData = 1 << 1

// Header describes one frame.
type Header struct {
	Streams int
	Flags   uint16
	Seq     uint64
	Count   int
	// ID is the frame's one demultiplexing key. On a sample frame it is the
	// TX-assigned packet ID (0 = unknown): the transmitter stamps every
	// frame of a burst with it, so receive-side traces and flight-recorder
	// dumps join the TX record without decoding the payload. On a data
	// frame it names the owner of the bytes — a session ID, a station ID or
	// an association nonce — and is never 0; what it names is the owning
	// protocol's business, not the radio layer's.
	ID uint64
}

// IsData reports whether the frame carries opaque bytes rather than samples.
func (h Header) IsData() bool { return h.Flags&FlagData != 0 }

// HeaderLen returns the wire size of the header, the payload offset within
// its frame. Every frame has the same header.
func (Header) HeaderLen() int { return headerSize }

// EncodeFrame appends one frame carrying samples[stream][i] to dst and
// returns the extended buffer. All streams must have equal length ≤
// MaxSamplesPerFrame; data frames are encoded by EncodeDataFrame, not here.
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

// appendHeader serializes h with the given count field.
func appendHeader(dst []byte, h Header, count int) []byte {
	var hdr [headerSize]byte
	binary.BigEndian.PutUint32(hdr[0:], frameMagic)
	hdr[4] = frameVersion
	hdr[5] = byte(h.Streams)
	binary.BigEndian.PutUint16(hdr[6:], h.Flags)
	binary.BigEndian.PutUint64(hdr[8:], h.Seq)
	binary.BigEndian.PutUint32(hdr[16:], uint32(count))
	binary.BigEndian.PutUint64(hdr[20:], h.ID)
	return append(dst, hdr[:headerSize]...)
}

// EncodeDataFrame appends one data frame carrying payload to dst and returns
// the extended buffer. The header's Streams and Count are implied
// (1, len(payload)); FlagData is set automatically and the end-of-burst flag
// is preserved. Data frames are routed by their owner, so a non-zero ID is
// required.
func EncodeDataFrame(dst []byte, h Header, payload []byte) ([]byte, error) {
	if h.ID == 0 {
		return nil, fmt.Errorf("radio: data frames require a non-zero ID")
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

// DecodeHeader parses a frame header; the payload starts at HeaderLen.
// Corrupt or truncated input yields typed errors, never panics.
func DecodeHeader(b []byte) (Header, error) {
	if len(b) < headerSize {
		return Header{}, fmt.Errorf("radio: header needs %d bytes, got %d", headerSize, len(b))
	}
	if binary.BigEndian.Uint32(b[0:]) != frameMagic {
		return Header{}, fmt.Errorf("radio: bad magic %#08x", binary.BigEndian.Uint32(b[0:]))
	}
	if b[4] != frameVersion {
		return Header{}, fmt.Errorf("radio: unsupported version %d", b[4])
	}
	h := Header{
		Streams: int(b[5]),
		Flags:   binary.BigEndian.Uint16(b[6:]),
		Seq:     binary.BigEndian.Uint64(b[8:]),
		Count:   int(binary.BigEndian.Uint32(b[16:])),
		ID:      binary.BigEndian.Uint64(b[20:]),
	}
	if h.IsData() {
		if h.ID == 0 {
			return Header{}, fmt.Errorf("radio: data frame with ID 0")
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
		w.buf, err = EncodeFrame(w.buf, Header{Streams: w.streams, Flags: flags, Seq: w.seq, Count: end - off, ID: packetID}, chunk)
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
	hdr [headerSize]byte
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
// returned (0 before the first burst or when the sender stamped none).
func (r *StreamReader) LastPacketID() uint64 { return r.lastPacketID }

// ReadBurst reassembles frames until an end-of-burst flag and returns the
// per-stream samples. io.EOF is returned (possibly wrapping partial data
// loss) when the transport closes cleanly between bursts.
func (r *StreamReader) ReadBurst() ([][]complex128, error) {
	var out [][]complex128
	for {
		if _, err := io.ReadFull(r.r, r.hdr[:]); err != nil {
			if err == io.EOF && out == nil {
				return nil, io.EOF
			}
			return nil, fmt.Errorf("radio: read header: %w", err)
		}
		h, err := DecodeHeader(r.hdr[:])
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
			r.lastPacketID = h.ID
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
