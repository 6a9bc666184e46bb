package radio

import (
	"bytes"
	"io"
	"math/cmplx"
	"math/rand"
	"net"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

func randBurst(r *rand.Rand, streams, n int) [][]complex128 {
	out := make([][]complex128, streams)
	for s := range out {
		out[s] = make([]complex128, n)
		for i := range out[s] {
			out[s][i] = complex(r.NormFloat64(), r.NormFloat64())
		}
	}
	return out
}

func burstsAlmostEqual(a, b [][]complex128, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for s := range a {
		if len(a[s]) != len(b[s]) {
			return false
		}
		for i := range a[s] {
			if cmplx.Abs(a[s][i]-b[s][i]) > tol {
				return false
			}
		}
	}
	return true
}

func TestFrameEncodeDecode(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	burst := randBurst(r, 2, 100)
	h := Header{Streams: 2, Flags: FlagEndOfBurst, Seq: 42, Count: 100}
	enc, err := EncodeFrame(nil, h, burst)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != FrameSize(2, 100) {
		t.Fatalf("frame size %d, want %d", len(enc), FrameSize(2, 100))
	}
	got, err := DecodeHeader(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("header = %+v, want %+v", got, h)
	}
	dst := make([][]complex128, 2)
	dst, err = DecodePayload(dst, got, enc[headerSize:])
	if err != nil {
		t.Fatal(err)
	}
	// float32 quantization tolerance.
	if !burstsAlmostEqual(dst, burst, 1e-6) {
		t.Error("payload round trip failed")
	}
}

func TestFrameValidation(t *testing.T) {
	if _, err := EncodeFrame(nil, Header{Streams: 5}, nil); err == nil {
		t.Error("5 streams should fail")
	}
	if _, err := EncodeFrame(nil, Header{Streams: 1}, [][]complex128{{}}); err == nil {
		t.Error("empty frame should fail")
	}
	if _, err := EncodeFrame(nil, Header{Streams: 2}, [][]complex128{{1}, {1, 2}}); err == nil {
		t.Error("ragged streams should fail")
	}
	big := make([]complex128, MaxSamplesPerFrame+1)
	if _, err := EncodeFrame(nil, Header{Streams: 1}, [][]complex128{big}); err == nil {
		t.Error("oversize frame should fail")
	}
	if _, err := DecodeHeader([]byte{1, 2, 3}); err == nil {
		t.Error("short header should fail")
	}
	bad := make([]byte, 24)
	if _, err := DecodeHeader(bad); err == nil {
		t.Error("bad magic should fail")
	}
}

func TestStreamWriterReaderRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	var buf bytes.Buffer
	w, err := NewStreamWriter(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Two bursts, one larger than a frame.
	b1 := randBurst(r, 2, MaxSamplesPerFrame+1000)
	b2 := randBurst(r, 2, 37)
	if err := w.WriteBurst(b1); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBurst(b2); err != nil {
		t.Fatal(err)
	}
	rd := NewStreamReader(&buf)
	got1, err := rd.ReadBurst()
	if err != nil {
		t.Fatal(err)
	}
	if !burstsAlmostEqual(got1, b1, 1e-6) {
		t.Error("burst 1 mismatch")
	}
	got2, err := rd.ReadBurst()
	if err != nil {
		t.Fatal(err)
	}
	if !burstsAlmostEqual(got2, b2, 1e-6) {
		t.Error("burst 2 mismatch")
	}
	if _, err := rd.ReadBurst(); err != io.EOF {
		t.Errorf("want io.EOF at end, got %v", err)
	}
}

func TestStreamWriterValidation(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewStreamWriter(&buf, 0); err == nil {
		t.Error("0 streams should fail")
	}
	w, _ := NewStreamWriter(&buf, 2)
	if err := w.WriteBurst([][]complex128{{1}}); err == nil {
		t.Error("wrong stream count should fail")
	}
	if err := w.WriteBurst([][]complex128{{}, {}}); err == nil {
		t.Error("empty burst should fail")
	}
	if err := w.WriteBurst([][]complex128{{1, 2}, {1}}); err == nil {
		t.Error("ragged burst should fail")
	}
}

func TestTCPTransport(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	burst := randBurst(r, 2, 5000)
	errCh := make(chan error, 1)
	go func() {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			errCh <- err
			return
		}
		defer conn.Close()
		w, err := NewStreamWriter(conn, 2)
		if err != nil {
			errCh <- err
			return
		}
		errCh <- w.WriteBurst(burst)
	}()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	got, err := NewStreamReader(conn).ReadBurst()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if !burstsAlmostEqual(got, burst, 1e-6) {
		t.Error("TCP burst mismatch")
	}
}

func TestUDPTransport(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	rx, err := NewUDPReceiver("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	tx, err := NewUDPSender(rx.Addr().String(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	burst := randBurst(r, 2, 3000)
	go func() {
		// Give the reader a moment, then send.
		time.Sleep(20 * time.Millisecond)
		tx.WriteBurst(burst)
	}()
	got, err := rx.ReadBurst(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !burstsAlmostEqual(got, burst, 1e-6) {
		t.Error("UDP burst mismatch")
	}
	if rx.Lost != 0 {
		t.Errorf("loopback lost %d datagrams", rx.Lost)
	}
}

// TestUDPReceiverAbsorbsBurstBeforeRead sends a whole two-stream burst
// (about 650 KB of datagrams) before the reader's first read, as happens
// when the reading goroutine is kept off the CPU. The receive socket buffer
// must hold all of it. The test needs net.core.rmem_max ≥ 4 MiB, since Linux
// clamps the buffer request to it.
func TestUDPReceiverAbsorbsBurstBeforeRead(t *testing.T) {
	raw, err := os.ReadFile("/proc/sys/net/core/rmem_max")
	if err != nil {
		t.Skipf("cannot read the socket buffer ceiling: %v", err)
	}
	if ceiling, err := strconv.Atoi(strings.TrimSpace(string(raw))); err != nil || ceiling < udpReadBuffer {
		t.Skipf("net.core.rmem_max = %s, below the %d-byte buffer request", strings.TrimSpace(string(raw)), udpReadBuffer)
	}
	rx, err := NewUDPReceiver("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	tx, err := NewUDPSender(rx.Addr().String(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	burst := randBurst(rand.New(rand.NewSource(9)), 2, 40000)
	if err := tx.WriteBurst(burst); err != nil {
		t.Fatal(err)
	}
	got, err := rx.ReadBurst(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rx.Lost != 0 {
		t.Fatalf("lost %d of the burst's datagrams before the first read", rx.Lost)
	}
	if !burstsAlmostEqual(got, burst, 1e-6) {
		t.Error("burst read back differs from the one sent")
	}
}

func TestUDPSenderValidation(t *testing.T) {
	if _, err := NewUDPSender("127.0.0.1:9", 9); err == nil {
		t.Error("9 streams should fail")
	}
	if _, err := NewUDPSender("bogus::address::", 1); err == nil {
		t.Error("bad address should fail")
	}
}

func TestUDPLossDetection(t *testing.T) {
	// Simulate loss by encoding frames manually and skipping one sequence.
	rx, err := NewUDPReceiver("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	conn, err := net.Dial("udp", rx.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	chunk := [][]complex128{make([]complex128, 50)}
	for i := range chunk[0] {
		chunk[0][i] = complex(1, 1)
	}
	send := func(seq uint64, flags uint16) {
		f, err := EncodeFrame(nil, Header{Streams: 1, Flags: flags, Seq: seq, Count: 50}, chunk)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(f); err != nil {
			t.Fatal(err)
		}
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		send(0, 0)
		send(1, 0)
		// seq 2 lost
		send(3, FlagEndOfBurst)
	}()
	got, err := rx.ReadBurst(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rx.Lost != 1 {
		t.Errorf("Lost = %d, want 1", rx.Lost)
	}
	// 4 frames worth of samples: 3 received + 1 zero-filled.
	if len(got[0]) != 200 {
		t.Errorf("burst length %d, want 200 (with zero-fill)", len(got[0]))
	}
	for i := 100; i < 150; i++ {
		if got[0][i] != 0 {
			t.Fatalf("zero-filled region sample %d = %v", i, got[0][i])
		}
	}
}

func BenchmarkEncodeFrame2x4096(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	burst := randBurst(r, 2, 4096)
	h := Header{Streams: 2, Seq: 0, Count: 4096}
	buf := make([]byte, 0, FrameSize(2, 4096))
	b.SetBytes(int64(2 * 4096 * 16))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = EncodeFrame(buf[:0], h, burst)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func TestDecodePayloadValidation(t *testing.T) {
	h := Header{Streams: 2, Count: 10}
	if _, err := DecodePayload(make([][]complex128, 2), h, make([]byte, 10)); err == nil {
		t.Error("short payload should fail")
	}
	if _, err := DecodePayload(make([][]complex128, 1), h, make([]byte, 2*10*8)); err == nil {
		t.Error("wrong dst stream count should fail")
	}
}

func TestStreamReaderRejectsMidBurstChange(t *testing.T) {
	var buf bytes.Buffer
	chunk1 := [][]complex128{make([]complex128, 10)}
	chunk2 := [][]complex128{make([]complex128, 10), make([]complex128, 10)}
	f1, err := EncodeFrame(nil, Header{Streams: 1, Seq: 0, Count: 10}, chunk1)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := EncodeFrame(nil, Header{Streams: 2, Seq: 1, Count: 10, Flags: FlagEndOfBurst}, chunk2)
	if err != nil {
		t.Fatal(err)
	}
	buf.Write(f1)
	buf.Write(f2)
	if _, err := NewStreamReader(&buf).ReadBurst(); err == nil {
		t.Error("stream-count change mid-burst should fail")
	}
}

func TestStreamReaderTruncatedPayload(t *testing.T) {
	chunk := [][]complex128{make([]complex128, 10)}
	f, err := EncodeFrame(nil, Header{Streams: 1, Count: 10, Flags: FlagEndOfBurst}, chunk)
	if err != nil {
		t.Fatal(err)
	}
	r := NewStreamReader(bytes.NewReader(f[:len(f)-5]))
	if _, err := r.ReadBurst(); err == nil {
		t.Error("truncated payload should fail")
	}
}

func TestUDPReceiverBadAddress(t *testing.T) {
	if _, err := NewUDPReceiver("not::a::valid::addr::::"); err == nil {
		t.Error("bad listen address should fail")
	}
}

func TestUDPSenderLocalAddr(t *testing.T) {
	rx, err := NewUDPReceiver("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	tx, err := NewUDPSender(rx.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()
	if tx.LocalAddr() == nil {
		t.Error("LocalAddr returned nil")
	}
	if err := tx.WriteBurst([][]complex128{{}}); err == nil {
		t.Error("empty burst should fail")
	}
	if err := tx.WriteBurst([][]complex128{{1}, {1}}); err == nil {
		t.Error("wrong stream count should fail")
	}
}

// encodeV1Frame hand-builds a legacy (version 1, 20-byte header) frame so
// compatibility stays pinned even though the writer now emits version 2.
func encodeV1Frame(h Header, samples [][]complex128) []byte {
	v2, err := EncodeFrame(nil, h, samples)
	if err != nil {
		panic(err)
	}
	out := append([]byte(nil), v2[:headerSizeV1]...)
	out[4] = 1
	return append(out, v2[headerSize:]...)
}

func TestDecodeHeaderV1Compat(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	burst := randBurst(r, 2, 10)
	raw := encodeV1Frame(Header{Streams: 2, Flags: FlagEndOfBurst, Seq: 3, Count: 10, PacketID: 77}, burst)
	h, err := DecodeHeader(raw)
	if err != nil {
		t.Fatal(err)
	}
	if h.PacketID != 0 {
		t.Fatalf("v1 packet id = %d, want 0 (field absent on the wire)", h.PacketID)
	}
	if h.HeaderLen() != headerSizeV1 {
		t.Fatalf("v1 header len = %d, want %d", h.HeaderLen(), headerSizeV1)
	}
	dst := make([][]complex128, 2)
	dst, err = DecodePayload(dst, h, raw[h.HeaderLen():])
	if err != nil {
		t.Fatal(err)
	}
	if !burstsAlmostEqual(dst, burst, 1e-6) {
		t.Error("v1 payload round trip failed")
	}
	// A v2-length claim on a v1-length buffer must error, not read past.
	raw[4] = frameVersion
	if _, err := DecodeHeader(raw[:headerSizeV1]); err == nil {
		t.Error("truncated v2 header should fail")
	}
}

func TestPacketIDRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	burst := randBurst(r, 1, 5)
	enc, err := EncodeFrame(nil, Header{Streams: 1, Flags: FlagEndOfBurst, Seq: 0, Count: 5, PacketID: 1 << 40}, burst)
	if err != nil {
		t.Fatal(err)
	}
	h, err := DecodeHeader(enc)
	if err != nil {
		t.Fatal(err)
	}
	if h.PacketID != 1<<40 || h.HeaderLen() != headerSize {
		t.Fatalf("decoded %+v", h)
	}
}

func TestStreamBurstPacketID(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var buf bytes.Buffer
	w, err := NewStreamWriter(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	// A multi-frame burst with an ID, then a plain WriteBurst (ID 0), then a
	// legacy v1 burst: LastPacketID must track each.
	b1 := randBurst(r, 2, MaxSamplesPerFrame+10)
	b2 := randBurst(r, 2, 8)
	if err := w.WriteBurstID(42, b1); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBurst(b2); err != nil {
		t.Fatal(err)
	}
	buf.Write(encodeV1Frame(Header{Streams: 2, Flags: FlagEndOfBurst, Seq: 9, Count: 8}, b2))

	rd := NewStreamReader(&buf)
	if rd.LastPacketID() != 0 {
		t.Fatal("packet id before first burst should be 0")
	}
	got, err := rd.ReadBurst()
	if err != nil {
		t.Fatal(err)
	}
	if !burstsAlmostEqual(got, b1, 1e-6) || rd.LastPacketID() != 42 {
		t.Fatalf("burst 1 id = %d, want 42", rd.LastPacketID())
	}
	if _, err := rd.ReadBurst(); err != nil || rd.LastPacketID() != 0 {
		t.Fatalf("burst 2 id = %d (err %v), want 0", rd.LastPacketID(), err)
	}
	got, err = rd.ReadBurst()
	if err != nil || rd.LastPacketID() != 0 {
		t.Fatalf("legacy burst id = %d (err %v), want 0", rd.LastPacketID(), err)
	}
	if !burstsAlmostEqual(got, b2, 1e-6) {
		t.Error("legacy burst payload mismatch")
	}
}

func TestUDPBurstPacketID(t *testing.T) {
	recv, err := NewUDPReceiver("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	send, err := NewUDPSender(recv.Addr().String(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()

	r := rand.New(rand.NewSource(12))
	burst := randBurst(r, 2, 500) // several datagrams
	done := make(chan error, 1)
	go func() { done <- send.WriteBurstID(7, burst) }()
	got, err := recv.ReadBurst(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !burstsAlmostEqual(got, burst, 1e-6) {
		t.Error("udp burst payload mismatch")
	}
	if recv.LastPacketID() != 7 {
		t.Fatalf("udp packet id = %d, want 7", recv.LastPacketID())
	}
}
