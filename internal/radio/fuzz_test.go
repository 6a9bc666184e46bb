package radio

import (
	"bytes"
	"testing"
)

// fuzzSeedFrames covers the one header's shapes: sample frames without and
// with a packet ID, and data frames keyed by a session ID, a station ID and
// an association nonce.
func fuzzSeedFrames(tb testing.TB) [][]byte {
	tb.Helper()
	mk := func(streams, count int, flags uint16, seq, id uint64) []byte {
		samples := make([][]complex128, streams)
		for s := range samples {
			samples[s] = make([]complex128, count)
			for i := range samples[s] {
				samples[s][i] = complex(float64(i), -float64(i))
			}
		}
		b, err := EncodeFrame(nil, Header{Streams: streams, Flags: flags, Seq: seq, Count: count, ID: id}, samples)
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	mkData := func(n int, flags uint16, id uint64) []byte {
		b, err := EncodeDataFrame(nil, Header{Flags: flags, ID: id}, bytes.Repeat([]byte{0xA5}, n))
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	return [][]byte{
		mk(1, 1, 0, 0, 0),
		mk(2, 50, FlagEndOfBurst, 7, 0),
		mk(4, 180, 0, 1<<40, 0),
		mk(2, 30, 0, 3, 12345),
		mk(4, 16, FlagEndOfBurst, 9, 1<<63),
		mkData(1, 0, 1),
		mkData(MaxDataPayload, FlagEndOfBurst, 1<<63),
		mkData(17, 0, 0xFFFF),
		mkData(33, 0, 0x0123456789ABCDEF),
	}
}

// FuzzDecodeHeader: arbitrary bytes must never panic the header parser, and
// every accepted header must satisfy its documented bounds: the whole
// header was present, and a data frame carries a non-zero ID.
func FuzzDecodeHeader(f *testing.F) {
	for _, s := range fuzzSeedFrames(f) {
		f.Add(s)
	}
	f.Add([]byte{})
	f.Add([]byte("MNIQ"))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := DecodeHeader(data)
		if err != nil {
			return
		}
		if len(data) < h.HeaderLen() {
			t.Errorf("accepted header longer than input: %d > %d", h.HeaderLen(), len(data))
		}
		if h.Streams < 1 || h.Streams > 4 {
			t.Errorf("accepted stream count %d", h.Streams)
		}
		if h.IsData() {
			if h.ID == 0 {
				t.Error("accepted data frame with ID 0")
			}
			if h.Streams != 1 {
				t.Errorf("accepted data frame with %d streams", h.Streams)
			}
			if h.Count < 1 || h.Count > MaxDataPayload {
				t.Errorf("accepted data payload %d", h.Count)
			}
			return
		}
		if h.Count < 1 || h.Count > MaxSamplesPerFrame {
			t.Errorf("accepted sample count %d", h.Count)
		}
	})
}

// FuzzDecodeDataPayload: any accepted data header must yield exactly Count
// bytes or a clean error, never a panic or out-of-bounds slice.
func FuzzDecodeDataPayload(f *testing.F) {
	for _, s := range fuzzSeedFrames(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := DecodeHeader(data)
		if err != nil || !h.IsData() {
			return
		}
		body, err := DecodeDataPayload(h, data[h.HeaderLen():])
		if err != nil {
			return
		}
		if len(body) != h.Count {
			t.Errorf("decoded %d bytes, header says %d", len(body), h.Count)
		}
	})
}

// FuzzDecodePayload: a payload that passes header validation must decode or
// fail cleanly — no panics, no bogus output shapes.
func FuzzDecodePayload(f *testing.F) {
	for _, s := range fuzzSeedFrames(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := DecodeHeader(data)
		if err != nil {
			return
		}
		dst := make([][]complex128, h.Streams)
		out, err := DecodePayload(dst, h, data[h.HeaderLen():])
		if err != nil {
			return
		}
		for s := range out {
			if len(out[s]) != h.Count {
				t.Errorf("stream %d decoded %d samples, header says %d", s, len(out[s]), h.Count)
			}
		}
	})
}

// FuzzStreamReadBurst: arbitrary byte streams through the framed reader must
// terminate with data or an error, never panic or run away.
func FuzzStreamReadBurst(f *testing.F) {
	for _, s := range fuzzSeedFrames(f) {
		f.Add(s)
	}
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewStreamReader(bytes.NewReader(data))
		for i := 0; i < 64; i++ { // bounded: reader consumes input each burst
			burst, err := r.ReadBurst()
			if err != nil {
				return
			}
			if len(burst) == 0 {
				t.Error("nil error with empty burst")
				return
			}
		}
	})
}
