package apmac

import (
	"reflect"
	"testing"
)

// FuzzDecodeMessage: arbitrary bytes never panic the AP MAC decoder, and
// every accepted message re-encodes to bytes that decode to an equal
// message.
func FuzzDecodeMessage(f *testing.F) {
	for _, m := range sampleMessages {
		wire, err := AppendMessage(nil, m)
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
