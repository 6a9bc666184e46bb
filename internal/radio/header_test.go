package radio

import (
	"bytes"
	"encoding/hex"
	"testing"
)

// TestSampleFrameWireBytes pins a multi-stream sample frame with a packet ID
// to its encoding byte for byte, so recordings and live links keep the one
// 28-byte layout.
func TestSampleFrameWireBytes(t *testing.T) {
	samples := [][]complex128{{1 + 2i, -0.5 + 0.25i, 3e-3 - 7i}, {0, -1i, 2.5}}
	b, err := EncodeFrame(nil, Header{Streams: 2, Flags: FlagEndOfBurst, Seq: 0x0102030405060708, Count: 3, ID: 0x1122334455667788}, samples)
	if err != nil {
		t.Fatal(err)
	}
	const want = "4d4e4951" + "02" + "02" + "0001" + "0102030405060708" + "00000003" + "1122334455667788" +
		"3f80000040000000bf0000003e8000003b449ba6c0e00000" +
		"000000000000000000000000bf8000004020000000000000"
	if got := hex.EncodeToString(b); got != want {
		t.Fatalf("encoded frame\n got %s\nwant %s", got, want)
	}
}

// TestDecodeHeaderRejectsOtherVersions: version 2 is the only header form.
func TestDecodeHeaderRejectsOtherVersions(t *testing.T) {
	b, err := EncodeFrame(nil, Header{Streams: 1, Count: 1, ID: 3}, [][]complex128{{1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []byte{0, 1, 3, 4, 255} {
		bad := append([]byte(nil), b...)
		bad[4] = v
		if _, err := DecodeHeader(bad); err == nil {
			t.Errorf("version %d accepted", v)
		}
	}
}

// TestMUSampleFrameRoundTrip: a precoded 4-stream downlink burst keeps the
// one header and every field through decode.
func TestMUSampleFrameRoundTrip(t *testing.T) {
	samples := [][]complex128{{1 + 2i}, {3 - 4i}, {-5 + 0.5i}, {-1i}}
	h := Header{Streams: 4, Flags: FlagEndOfBurst, Seq: 42, Count: 1, ID: 7}
	b, err := EncodeFrame(nil, h, samples)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != headerSize+4*8 {
		t.Fatalf("frame %d bytes, want %d", len(b), headerSize+4*8)
	}
	dec, err := DecodeHeader(b)
	if err != nil {
		t.Fatal(err)
	}
	if dec != h {
		t.Errorf("decoded %+v, want %+v", dec, h)
	}
	out, err := DecodePayload(make([][]complex128, dec.Streams), dec, b[dec.HeaderLen():])
	if err != nil {
		t.Fatal(err)
	}
	for s := range samples {
		if out[s][0] != samples[s][0] {
			t.Fatalf("stream %d: %v != %v", s, out[s][0], samples[s][0])
		}
	}
}

// TestMUDataFrameRoundTrip: a station ID and an association nonce are both
// valid data-frame keys — stations talk to the AP MAC before any session
// exists, and before they hold a station ID.
func TestMUDataFrameRoundTrip(t *testing.T) {
	payload := bytes.Repeat([]byte{0x5A}, 33)
	for _, id := range []uint64{7, 0x0123456789ABCDEF} {
		b, err := EncodeDataFrame(nil, Header{Seq: 5, ID: id}, payload)
		if err != nil {
			t.Fatal(err)
		}
		h, err := DecodeHeader(b)
		if err != nil {
			t.Fatal(err)
		}
		if !h.IsData() || h.ID != id {
			t.Fatalf("decoded header %+v, want data frame for ID %#x", h, id)
		}
		body, err := DecodeDataPayload(h, b[h.HeaderLen():])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, payload) {
			t.Error("payload corrupted over the round trip")
		}
	}
}

// TestMUDataFrameRequiresDemuxKey: with ID 0 there is nothing to route by,
// so encode and decode both reject the frame.
func TestMUDataFrameRequiresDemuxKey(t *testing.T) {
	if _, err := EncodeDataFrame(nil, Header{}, []byte{1}); err == nil {
		t.Error("data frame with no demux key must not encode")
	}
	b, err := EncodeDataFrame(nil, Header{ID: 1}, []byte{1})
	if err != nil {
		t.Fatal(err)
	}
	b[27] = 0 // zero the ID field in place
	if _, err := DecodeHeader(b); err == nil {
		t.Error("data frame with ID 0 must not decode")
	}
}

// TestMUTruncatedHeader: a header cut anywhere short of its 28 bytes is a
// typed error, not a panic or a misparse.
func TestMUTruncatedHeader(t *testing.T) {
	b, err := EncodeDataFrame(nil, Header{ID: 3}, []byte{1})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < headerSize; n++ {
		if _, err := DecodeHeader(b[:n]); err == nil {
			t.Errorf("truncated header (%d bytes) must not decode", n)
		}
	}
}

// TestMUStreamReader: the framed stream reader reassembles a burst across
// continuation frames and tracks each burst's ID.
func TestMUStreamReader(t *testing.T) {
	var buf bytes.Buffer
	mk := func(h Header, samples [][]complex128) {
		b, err := EncodeFrame(nil, h, samples)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
	}
	// Burst 1: two frames (continuation + end of burst).
	mk(Header{Streams: 1, Count: 2, ID: 3}, [][]complex128{{1, 2}})
	mk(Header{Streams: 1, Count: 1, Flags: FlagEndOfBurst, ID: 3}, [][]complex128{{3}})
	// Burst 2: one frame without an ID.
	mk(Header{Streams: 1, Count: 1, Flags: FlagEndOfBurst, Seq: 1}, [][]complex128{{4}})

	r := NewStreamReader(&buf)
	first, err := r.ReadBurst()
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 1 || len(first[0]) != 3 {
		t.Fatalf("burst 1 shape %d×%d, want 1×3", len(first), len(first[0]))
	}
	if r.LastPacketID() != 3 {
		t.Errorf("burst 1 packet ID %d, want 3", r.LastPacketID())
	}
	second, err := r.ReadBurst()
	if err != nil {
		t.Fatal(err)
	}
	if len(second[0]) != 1 || second[0][0] != 4 || r.LastPacketID() != 0 {
		t.Fatalf("burst 2 = %v id %d, want [4] id 0", second[0], r.LastPacketID())
	}
}
