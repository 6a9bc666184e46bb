package stream

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"
)

// TestReadSSERejectsOverlongFrame streams one frame whose data lines join
// past maxSSEBytes and never end it: ReadSSE must stop with an error
// instead of buffering it.
func TestReadSSERejectsOverlongFrame(t *testing.T) {
	line := "data: " + strings.Repeat("x", 1<<20) + "\n"
	input := "event: journal\n" + strings.Repeat(line, maxSSEBytes>>20+1)
	calls := 0
	err := ReadSSE(strings.NewReader(input), func(Frame) error {
		calls++
		return nil
	})
	if err == nil || calls != 0 {
		t.Fatalf("err = %v after %d frames, want an error and no frame", err, calls)
	}
}

// FuzzReadSSE feeds arbitrary bytes to ReadSSE and decodes every frame it
// yields: nothing may panic and no frame may exceed maxSSEBytes. A journal
// event built from the fuzzed fields, written as Handler writes it, must
// read back through decodeFrame equal to the event.
func FuzzReadSSE(f *testing.F) {
	f.Add([]byte("event: journal\ndata: {\"seq\":1,\"type\":\"session_opened\"}\n\n"), "session_failed", uint64(7), "peer-reset")
	f.Add([]byte(": keep-alive\n\nevent: hello\ndata: {\"node\":\"gw\"}\n"), "station_assoc", uint64(0), "")
	f.Add([]byte("data: a\ndata: b\n\nevent:metrics\ndata:{\"full\":true}\n\n"), "trace_fail", uint64(1<<63), "x\ny\"")
	f.Fuzz(func(t *testing.T, raw []byte, typ string, session uint64, reason string) {
		_ = ReadSSE(bytes.NewReader(raw), func(fr Frame) error {
			if len(fr.Data) > maxSSEBytes {
				t.Fatalf("frame of %d data bytes passed the %d cap", len(fr.Data), maxSSEBytes)
			}
			_, _ = decodeFrame("node", fr)
			return nil
		})

		if !utf8.ValidString(typ) || !utf8.ValidString(reason) {
			return // JSON would replace the invalid bytes
		}
		want := Event{Seq: session >> 1, Type: EventType(typ), Session: session, Reason: reason}
		data, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		var wire bytes.Buffer
		if err := writeFrame(&wire, Frame{Event: "journal", Data: data}); err != nil {
			t.Fatal(err)
		}
		var got []Msg
		err = ReadSSE(&wire, func(fr Frame) error {
			m, err := decodeFrame("node", fr)
			got = append(got, m)
			return err
		})
		if err != nil || len(got) != 1 || got[0].Kind != "journal" || got[0].Event == nil {
			t.Fatalf("read back %+v (err %v), want one journal frame", got, err)
		}
		if !reflect.DeepEqual(*got[0].Event, want) {
			t.Fatalf("read back %+v, want %+v", *got[0].Event, want)
		}
	})
}
