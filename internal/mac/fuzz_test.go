package mac

import (
	"reflect"
	"testing"
)

// FuzzDecode: arbitrary bytes never panic the MPDU decoder, and every
// accepted frame re-encodes to a PSDU that decodes to an equal frame.
func FuzzDecode(f *testing.F) {
	for _, fr := range []Frame{
		{Seq: 0},
		{Dest: Addr{1, 2, 3, 4, 5, 6}, Src: Addr{6, 5, 4, 3, 2, 1}, BSSID: Addr{9}, Seq: 0x0FFF, Payload: []byte("payload")},
		{Seq: 77, Payload: make([]byte, 500)},
	} {
		psdu, err := fr.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(psdu)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, err := Decode(b)
		if err != nil {
			return
		}
		psdu, err := fr.Encode()
		if err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		again, err := Decode(psdu)
		if err != nil || !reflect.DeepEqual(again, fr) {
			t.Fatalf("re-encoded frame decodes to %+v (err %v), want %+v", again, err, fr)
		}
	})
}
