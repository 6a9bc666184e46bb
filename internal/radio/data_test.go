package radio

import (
	"bytes"
	"strings"
	"testing"
)

func TestDataFrameRoundTrip(t *testing.T) {
	payload := []byte("session-layer message body")
	h := Header{Seq: 9, ID: 0xDEADBEEF, Flags: FlagEndOfBurst}
	enc, err := EncodeDataFrame(nil, h, payload)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeHeader(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsData() {
		t.Fatal("decoded header lost FlagData")
	}
	if got.Flags&FlagEndOfBurst == 0 {
		t.Error("decoded header lost end-of-burst flag")
	}
	if got.ID != h.ID || got.Seq != h.Seq {
		t.Errorf("decoded header = %+v, want id=%d seq=%d", got, h.ID, h.Seq)
	}
	if got.Streams != 1 || got.Count != len(payload) {
		t.Errorf("decoded shape streams=%d count=%d, want 1, %d", got.Streams, got.Count, len(payload))
	}
	if got.HeaderLen() != headerSize || len(enc) != headerSize+len(payload) {
		t.Errorf("HeaderLen = %d, frame %d bytes; want %d, %d", got.HeaderLen(), len(enc), headerSize, headerSize+len(payload))
	}
	body, err := DecodeDataPayload(got, enc[got.HeaderLen():])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, payload) {
		t.Errorf("payload round trip: got %q", body)
	}
}

func TestDataFrameValidation(t *testing.T) {
	payload := []byte("x")
	if _, err := EncodeDataFrame(nil, Header{ID: 0}, payload); err == nil {
		t.Error("zero ID accepted")
	}
	if _, err := EncodeDataFrame(nil, Header{ID: 1}, nil); err == nil {
		t.Error("empty payload accepted")
	}
	if _, err := EncodeDataFrame(nil, Header{ID: 1}, make([]byte, MaxDataPayload+1)); err == nil {
		t.Error("oversized payload accepted")
	}
	if _, err := EncodeFrame(nil, Header{Streams: 1, Flags: FlagData, ID: 1}, [][]complex128{{1}}); err == nil {
		t.Error("EncodeFrame accepted a data flag")
	}

	enc, err := EncodeDataFrame(nil, Header{ID: 5}, payload)
	if err != nil {
		t.Fatal(err)
	}
	// Zeroing the ID field of a data frame must be rejected.
	zeroed := append([]byte(nil), enc...)
	for i := 20; i < headerSize; i++ {
		zeroed[i] = 0
	}
	if _, err := DecodeHeader(zeroed); err == nil {
		t.Error("data frame with zeroed ID accepted")
	}
	// Sample decode paths must refuse data frames with typed errors.
	h, err := DecodeHeader(enc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodePayload(make([][]complex128, 1), h, enc[h.HeaderLen():]); err == nil {
		t.Error("DecodePayload accepted a data frame")
	}
	if _, err := DecodeDataPayload(h, nil); err == nil {
		t.Error("DecodeDataPayload accepted a truncated payload")
	}
}

func TestStreamReaderRejectsDataFrames(t *testing.T) {
	enc, err := EncodeDataFrame(nil, Header{ID: 7, Flags: FlagEndOfBurst}, []byte("hi"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewStreamReader(bytes.NewReader(enc)).ReadBurst()
	if err == nil || !strings.Contains(err.Error(), "data frame") {
		t.Errorf("ReadBurst on a data frame: err = %v, want data-frame rejection", err)
	}
}
