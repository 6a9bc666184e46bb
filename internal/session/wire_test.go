package session

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/bitutil"
	"repro/internal/mac"
	"repro/internal/radio"
)

// sampleMessages holds one message of every kind.
var sampleMessages = []Msg{
	{Kind: KindHello, Total: 1 << 20, ChunkSize: 1024},
	{Kind: KindHelloAck, ChunkSize: 1024, Credit: 32},
	{Kind: KindData, Chunk: chunkPayload(4096, []byte("payload bytes"))},
	{Kind: KindAck, Ack: mac.BlockAck{Start: 17, Bitmap: 0xDEADBEEF}, CumOffset: 99 * 1024, Credit: 12},
	{Kind: KindResume, Total: 1 << 20, ChunkSize: 1024},
	{Kind: KindResumeAck, ChunkSize: 1024, Credit: 32, CumOffset: 512 * 1024},
	{Kind: KindFin, Total: 1 << 20},
	{Kind: KindFinAck},
	{Kind: KindReset, Reason: "busy"},
}

func TestMessageRoundTrip(t *testing.T) {
	for _, want := range sampleMessages {
		t.Run(want.Kind.String(), func(t *testing.T) {
			wire, err := AppendMessage(nil, &want)
			if err != nil {
				t.Fatal(err)
			}
			got, err := DecodeMessage(wire)
			if err != nil {
				t.Fatal(err)
			}
			if got.Kind != want.Kind || got.Total != want.Total ||
				got.ChunkSize != want.ChunkSize || got.Credit != want.Credit ||
				got.Ack != want.Ack || got.CumOffset != want.CumOffset ||
				got.Reason != want.Reason || !bytes.Equal(got.Chunk, want.Chunk) {
				t.Fatalf("round trip mismatch: got %+v want %+v", got, want)
			}
		})
	}
}

func TestMessageRejectsCorruption(t *testing.T) {
	wire, err := AppendMessage(nil, &Msg{Kind: KindAck, CumOffset: 12345, Credit: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Every single-byte flip must fail the FCS, so a mangled datagram can
	// never forge an acknowledgement.
	for i := range wire {
		bad := append([]byte(nil), wire...)
		bad[i] ^= 0x40
		if _, err := DecodeMessage(bad); err == nil {
			t.Fatalf("corrupt byte %d accepted", i)
		}
	}
	// Truncations at every length must fail cleanly too.
	for n := range wire {
		if _, err := DecodeMessage(wire[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	if _, err := DecodeMessage(nil); err == nil {
		t.Fatal("empty message accepted")
	}
}

// TestChunkRoundTrip: a chunk travels as offset‖bytes inside one DATA
// message, checked by the message FCS alone; a body too short to hold an
// offset and one byte is rejected on both sides.
func TestChunkRoundTrip(t *testing.T) {
	data := bytes.Repeat([]byte{0x5A}, MaxChunkBytes)
	wire, err := AppendMessage(nil, &Msg{Kind: KindData, Chunk: chunkPayload(7*1024, data)})
	if err != nil {
		t.Fatal(err)
	}
	if len(wire) != chunkOverhead+len(data) {
		t.Fatalf("DATA message %d bytes, want %d", len(wire), chunkOverhead+len(data))
	}
	if _, err := radio.EncodeDataFrame(nil, radio.Header{ID: 1}, wire); err != nil {
		t.Fatalf("largest chunk does not fit one data frame: %v", err)
	}
	m, err := DecodeMessage(wire)
	if err != nil {
		t.Fatal(err)
	}
	off, got := splitChunk(m.Chunk)
	if off != 7*1024 || !bytes.Equal(got, data) {
		t.Fatalf("chunk round trip: off %d len %d", off, len(got))
	}
	if _, err := AppendMessage(nil, &Msg{Kind: KindData, Chunk: chunkPayload(0, nil)}); err == nil {
		t.Fatal("empty chunk encoded")
	}
	short := bitutil.AppendFCS(append([]byte{byte(KindData)}, chunkPayload(0, nil)...))
	if _, err := DecodeMessage(short); err == nil {
		t.Fatal("empty chunk accepted")
	}
	if _, err := DecodeMessage(wire[:len(wire)-1]); err == nil {
		t.Fatal("truncated DATA accepted")
	}
}

func TestUnknownKindRejected(t *testing.T) {
	if _, err := AppendMessage(nil, &Msg{Kind: Kind(200)}); err == nil {
		t.Fatal("unknown kind encoded")
	}
}

// FuzzDecodeMessage: arbitrary bytes never panic the session decoder, an
// accepted DATA carries an offset and at least one byte, and every accepted
// message re-encodes to bytes that decode to an equal message.
func FuzzDecodeMessage(f *testing.F) {
	for i := range sampleMessages {
		wire, err := AppendMessage(nil, &sampleMessages[i])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeMessage(b)
		if err != nil {
			return
		}
		if m.Kind == KindData && len(m.Chunk) < 9 {
			t.Fatalf("accepted a %d-byte chunk", len(m.Chunk))
		}
		wire, err := AppendMessage(nil, m)
		if err != nil {
			t.Fatalf("accepted %v message does not re-encode: %v", m.Kind, err)
		}
		again, err := DecodeMessage(wire)
		if err != nil || !reflect.DeepEqual(again, m) {
			t.Fatalf("re-encoded message decodes to %+v (err %v), want %+v", again, err, m)
		}
	})
}
