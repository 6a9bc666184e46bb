// Package mac implements the minimal MAC-layer framing the paper's
// experiments need: data MPDUs with addressing, sequence numbers and a
// CRC-32 frame check sequence, so packet error rate is measured the way the
// paper measures it — by FCS verification on reassembled frames.
package mac

import (
	"encoding/binary"
	"fmt"

	"repro/internal/bitutil"
)

// Addr is a 48-bit MAC address.
type Addr [6]byte

func (a Addr) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", a[0], a[1], a[2], a[3], a[4], a[5])
}

// header layout: FrameControl(2) Duration(2) Addr1(6) Addr2(6) Addr3(6)
// SeqCtl(2) = 24 octets, followed by the payload and the 4-octet FCS.
const (
	headerLen = 24
	fcsLen    = 4
	// MaxPayload keeps the PSDU within the HT-SIG 16-bit length field.
	MaxPayload = 65535 - headerLen - fcsLen
)

// frameControl value for a Data frame (type 10, subtype 0000, protocol 0).
const frameControlData = 0x0008

// Frame is a parsed data MPDU.
type Frame struct {
	Dest, Src, BSSID Addr
	Seq              uint16 // 12-bit sequence number
	Payload          []byte
}

// Encode serializes the frame with FCS appended; the result is a PSDU ready
// for phy.Transmitter.
func (f *Frame) Encode() ([]byte, error) {
	if len(f.Payload) > MaxPayload {
		return nil, fmt.Errorf("mac: payload %d exceeds %d", len(f.Payload), MaxPayload)
	}
	if f.Seq > 0x0FFF {
		return nil, fmt.Errorf("mac: sequence number %d exceeds 12 bits", f.Seq)
	}
	buf := make([]byte, headerLen+len(f.Payload))
	binary.LittleEndian.PutUint16(buf[0:], frameControlData)
	binary.LittleEndian.PutUint16(buf[2:], 0) // duration
	copy(buf[4:], f.Dest[:])
	copy(buf[10:], f.Src[:])
	copy(buf[16:], f.BSSID[:])
	binary.LittleEndian.PutUint16(buf[22:], f.Seq<<4)
	copy(buf[headerLen:], f.Payload)
	return bitutil.AppendFCS(buf), nil
}

// Decode parses a PSDU, verifying the FCS. It returns an error for frames
// that fail the check — the PER counter's definition of a packet error.
func Decode(psdu []byte) (*Frame, error) {
	body, ok := bitutil.CheckFCS(psdu)
	if !ok {
		return nil, fmt.Errorf("mac: FCS check failed")
	}
	if len(body) < headerLen || len(body) > headerLen+MaxPayload {
		return nil, fmt.Errorf("mac: frame body %d outside [%d, %d]", len(body), headerLen, headerLen+MaxPayload)
	}
	fc := binary.LittleEndian.Uint16(body[0:])
	if fc != frameControlData {
		return nil, fmt.Errorf("mac: unsupported frame control %#06x", fc)
	}
	f := &Frame{
		Seq:     binary.LittleEndian.Uint16(body[22:]) >> 4,
		Payload: append([]byte(nil), body[headerLen:]...),
	}
	copy(f.Dest[:], body[4:])
	copy(f.Src[:], body[10:])
	copy(f.BSSID[:], body[16:])
	return f, nil
}

// Overhead returns the MAC framing overhead in octets.
func Overhead() int { return headerLen + fcsLen }
