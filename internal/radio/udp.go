package radio

import (
	"fmt"
	"net"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
)

// UDPSender streams bursts as UDP datagrams, one frame per datagram. UDP
// mirrors the lossy sample path between an SDR front end and the host: the
// receiver detects gaps via sequence numbers and zero-fills them, which the
// PHY experiences as erasure noise — exactly how dropped Ethernet sample
// packets manifest on a real USRP link.
type UDPSender struct {
	conn    *net.UDPConn
	streams int
	seq     uint64
	buf     []byte
	// SamplesPerDatagram bounds the frame size; the default keeps 1-stream
	// datagrams under a 1500-byte MTU.
	SamplesPerDatagram int
	// Intercept, when set, sees every encoded frame before transmission and
	// returns the datagrams to actually send: none (loss), the input
	// (possibly mutated), or several (delayed frames released out of order).
	// The slice passed in is a private copy the hook may keep or mutate.
	// Used by the faults package to inject link-level impairments.
	Intercept func(datagram []byte) [][]byte
}

// NewUDPSender dials the receiver address.
func NewUDPSender(addr string, streams int) (*UDPSender, error) {
	if streams < 1 || streams > 4 {
		return nil, fmt.Errorf("radio: stream count %d out of range [1,4]", streams)
	}
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("radio: resolve %q: %w", addr, err)
	}
	conn, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		return nil, fmt.Errorf("radio: dial %q: %w", addr, err)
	}
	return &UDPSender{conn: conn, streams: streams, SamplesPerDatagram: 180 / streams * streams}, nil
}

// Close releases the socket.
func (s *UDPSender) Close() error { return s.conn.Close() }

// LocalAddr returns the sender's local address.
func (s *UDPSender) LocalAddr() net.Addr { return s.conn.LocalAddr() }

// WriteBurst sends one burst as a train of datagrams, the last flagged
// end-of-burst. The frames carry packet ID 0 (unknown); transmitters that
// track MAC packets use WriteBurstID.
func (s *UDPSender) WriteBurst(samples [][]complex128) error {
	return s.WriteBurstID(0, samples)
}

// WriteBurstID sends one burst with every datagram's frame stamped with the
// TX-assigned packet ID, so the receiver can correlate the burst with the
// sender's record even across datagram loss.
func (s *UDPSender) WriteBurstID(packetID uint64, samples [][]complex128) error {
	if len(samples) != s.streams {
		return fmt.Errorf("radio: %d streams, sender configured for %d", len(samples), s.streams)
	}
	per := s.SamplesPerDatagram
	if per < 1 {
		per = 1
	}
	if per > MaxSamplesPerFrame {
		per = MaxSamplesPerFrame
	}
	total := len(samples[0])
	if total == 0 {
		return fmt.Errorf("radio: empty burst")
	}
	for off := 0; off < total; off += per {
		end := off + per
		if end > total {
			end = total
		}
		var flags uint16
		if end == total {
			flags = FlagEndOfBurst
		}
		chunk := make([][]complex128, s.streams)
		for st := range samples {
			chunk[st] = samples[st][off:end]
		}
		s.buf = s.buf[:0]
		var err error
		s.buf, err = EncodeFrame(s.buf, Header{Streams: s.streams, Flags: flags, Seq: s.seq, Count: end - off, PacketID: packetID}, chunk)
		if err != nil {
			return err
		}
		s.seq++
		if s.Intercept != nil {
			for _, d := range s.Intercept(append([]byte(nil), s.buf...)) {
				if _, err := s.conn.Write(d); err != nil {
					return fmt.Errorf("radio: udp write: %w", err)
				}
			}
			continue
		}
		if _, err := s.conn.Write(s.buf); err != nil {
			return fmt.Errorf("radio: udp write: %w", err)
		}
	}
	return nil
}

// UDPReceiver receives bursts and accounts for datagram loss.
type UDPReceiver struct {
	conn *net.UDPConn
	buf  []byte
	// Lost counts datagrams missing from the sequence so far.
	Lost uint64
	// Corrupt counts datagrams with unparseable headers or truncated
	// payloads.
	Corrupt uint64
	// Late counts datagrams that arrived after their gap was already
	// zero-filled (reordered or duplicated frames); they are discarded.
	Late uint64
	// nextSeq is the expected next sequence number (0 before first frame).
	nextSeq uint64
	started bool
	// lastPacketID is the packet ID carried by the most recently assembled
	// burst's frames.
	lastPacketID uint64
	// clk computes read deadlines; injectable (SetClock) so deadline logic
	// is testable without wall-clock dependence.
	clk clock.Clock
	// Exposition counters mirroring the tallies above (nil until Instrument).
	cDatagrams *obs.Counter
	cLost      *obs.Counter
	cCorrupt   *obs.Counter
	cLate      *obs.Counter
}

// maxGapFill caps the zero-fill for one sequence gap (in samples per
// stream) so a corrupted sequence number cannot force an absurd allocation.
const maxGapFill = 1 << 20

// udpReadBuffer is the receive socket buffer NewUDPReceiver requests.
const udpReadBuffer = 4 << 20

// NewUDPReceiver listens on addr (e.g. "127.0.0.1:0").
func NewUDPReceiver(addr string) (*UDPReceiver, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("radio: resolve %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("radio: listen %q: %w", addr, err)
	}
	// A burst arrives as a train of datagrams that can outrun a reader kept
	// off the CPU, and the default ~208 KB socket buffer holds only part of
	// a long one. Request 4 MiB, as UHD does for USRP2 sample streams. Linux
	// clamps the request to net.core.rmem_max, so a host with a lower
	// ceiling keeps working at that ceiling; the error is dropped.
	_ = conn.SetReadBuffer(udpReadBuffer)
	return &UDPReceiver{conn: conn, buf: make([]byte, 65536), clk: clock.System}, nil
}

// SetClock replaces the receiver's time source for deadline computation.
// Nil restores the system clock.
func (r *UDPReceiver) SetClock(c clock.Clock) { r.clk = clock.Or(c) }

// Instrument registers the receiver's link counters in reg: datagrams seen
// plus the loss/corruption/reorder tallies the exported fields track. A nil
// registry leaves the receiver un-instrumented (counters stay no-ops).
func (r *UDPReceiver) Instrument(reg *obs.Registry) {
	r.cDatagrams = reg.Counter("mimonet_udp_datagrams_total",
		"UDP sample datagrams received (including discarded ones)")
	r.cLost = reg.Counter("mimonet_udp_lost_total",
		"datagrams missing from the sequence, zero-filled as erasures")
	r.cCorrupt = reg.Counter("mimonet_udp_corrupt_total",
		"datagrams with unparseable headers or truncated payloads")
	r.cLate = reg.Counter("mimonet_udp_late_total",
		"reordered or duplicated datagrams discarded after their gap was filled")
}

// Close releases the socket.
func (r *UDPReceiver) Close() error { return r.conn.Close() }

// Addr returns the bound address (useful with port 0).
func (r *UDPReceiver) Addr() net.Addr { return r.conn.LocalAddr() }

// LastPacketID returns the TX-assigned packet ID of the last burst ReadBurst
// returned (0 before the first burst or on legacy frames).
func (r *UDPReceiver) LastPacketID() uint64 { return r.lastPacketID }

// ReadBurst assembles one burst. Missing datagrams are zero-filled with the
// frame size inferred from neighbours, and counted in Lost. timeout bounds
// the wait for each datagram; zero means no deadline.
func (r *UDPReceiver) ReadBurst(timeout time.Duration) ([][]complex128, error) {
	var out [][]complex128
	lastCount := 0
	for {
		if timeout > 0 {
			if err := r.conn.SetReadDeadline(r.clk.Now().Add(timeout)); err != nil {
				return nil, err
			}
		}
		n, _, err := r.conn.ReadFromUDP(r.buf)
		if err != nil {
			return nil, fmt.Errorf("radio: udp read: %w", err)
		}
		r.cDatagrams.Inc()
		h, err := DecodeHeader(r.buf[:n])
		if err != nil {
			// Foreign, truncated, or corrupted beyond recognition.
			r.Corrupt++
			r.cCorrupt.Inc()
			continue
		}
		if r.started && h.Seq < r.nextSeq {
			// Reordered or duplicated: its position was already zero-filled
			// (or consumed); splicing it in now would misalign the stream.
			r.Late++
			r.cLate.Inc()
			continue
		}
		if r.started && h.Seq > r.nextSeq {
			gap := h.Seq - r.nextSeq
			r.Lost += gap
			r.cLost.Add(int64(gap))
			// Zero-fill the missing samples so the stream stays aligned,
			// bounded so a corrupted sequence number cannot force an absurd
			// allocation.
			if out != nil && lastCount > 0 {
				fill := int(gap) * lastCount
				if gap > maxGapFill/uint64(lastCount) {
					fill = maxGapFill
				}
				for s := range out {
					out[s] = append(out[s], make([]complex128, fill)...)
				}
			}
		}
		r.started = true
		r.nextSeq = h.Seq + 1
		if out == nil {
			out = make([][]complex128, h.Streams)
			r.lastPacketID = h.PacketID
		}
		if len(out) != h.Streams {
			return nil, fmt.Errorf("radio: stream count changed mid-burst")
		}
		if dec, derr := DecodePayload(out, h, r.buf[h.HeaderLen():n]); derr != nil {
			// Truncated payload: keep the stream aligned by zero-filling the
			// samples this frame claimed to carry. The end-of-burst flag is
			// still honoured so the burst terminates.
			r.Corrupt++
			r.cCorrupt.Inc()
			for s := range out {
				out[s] = append(out[s], make([]complex128, h.Count)...)
			}
		} else {
			out = dec
		}
		lastCount = h.Count
		if h.Flags&FlagEndOfBurst != 0 {
			return out, nil
		}
	}
}
