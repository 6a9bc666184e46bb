package apmac

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/mac"
	"repro/internal/obs"
)

// sampleMessages holds one message of every kind.
var sampleMessages = []*Msg{
	{Kind: KindAssoc, Nonce: 0xDEADBEEF, RXAntennas: 2},
	{Kind: KindAssocAck, AssignedID: 17, Slot: 5, CWMinExp: 4, CWMaxExp: 10},
	{Kind: KindSound, Token: 99},
	{Kind: KindFeedback, Token: 100, Feedback: bytes.Repeat([]byte{0x7E}, 40)},
	{Kind: KindData, MPDU: []byte{1, 2, 3, 4, 5}},
	{Kind: KindBlockAck, Ack: mac.BlockAck{Start: 7, Bitmap: 0b1011}},
	{Kind: KindBye, Reason: "draining"},
	{Kind: KindBye},
}

func TestWireRoundTrip(t *testing.T) {
	for _, m := range sampleMessages {
		b, err := AppendMessage(nil, m)
		if err != nil {
			t.Fatalf("%v: %v", m.Kind, err)
		}
		got, err := DecodeMessage(b)
		if err != nil {
			t.Fatalf("%v decode: %v", m.Kind, err)
		}
		if got.Kind != m.Kind || got.Nonce != m.Nonce || got.RXAntennas != m.RXAntennas ||
			got.AssignedID != m.AssignedID || got.Slot != m.Slot ||
			got.CWMinExp != m.CWMinExp || got.CWMaxExp != m.CWMaxExp ||
			got.Token != m.Token || got.Ack != m.Ack || got.Reason != m.Reason ||
			!bytes.Equal(got.Feedback, m.Feedback) || !bytes.Equal(got.MPDU, m.MPDU) {
			t.Errorf("%v round trip mismatch:\n got %+v\nwant %+v", m.Kind, got, m)
		}
	}
}

func TestWireRejectsCorruption(t *testing.T) {
	b, err := AppendMessage(nil, &Msg{Kind: KindAssocAck, AssignedID: 3, Slot: 1})
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), b...)
	flipped[2] ^= 0x40
	if _, err := DecodeMessage(flipped); err == nil {
		t.Error("bit flip must fail the FCS")
	}
	if _, err := DecodeMessage(b[:3]); err == nil {
		t.Error("truncated message must fail")
	}
	if _, err := DecodeMessage(nil); err == nil {
		t.Error("empty input must fail")
	}
	if _, err := AppendMessage(nil, &Msg{Kind: Kind(200)}); err == nil {
		t.Error("unknown kind must not encode")
	}
	if _, err := AppendMessage(nil, &Msg{Kind: KindFeedback, Token: 1}); err == nil {
		t.Error("feedback without CSI bytes must not encode")
	}
	if _, err := AppendMessage(nil, &Msg{Kind: KindData}); err == nil {
		t.Error("data without an MPDU must not encode")
	}
	// A truncated body behind a valid FCS (re-framed) must fail need().
	short, err := AppendMessage(nil, &Msg{Kind: KindSound, Token: 5})
	if err != nil {
		t.Fatal(err)
	}
	_ = short
}

func TestKindStringTotal(t *testing.T) {
	for k := KindAssoc; k <= KindBye; k++ {
		if s := k.String(); s == "" || s[0] == 'k' {
			t.Errorf("kind %d has placeholder string %q", k, s)
		}
	}
	if s := Kind(99).String(); s != "kind(99)" {
		t.Errorf("unknown kind string %q", s)
	}
}

func TestBackoffBEB(t *testing.T) {
	b, err := NewBackoff(rand.New(rand.NewSource(1)), 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if b.cw != 4 {
		t.Fatalf("initial window %d, want 4", b.cw)
	}
	b.Collision()
	if b.cw != 8 {
		t.Errorf("after one collision window %d, want 8", b.cw)
	}
	b.Collision()
	b.Collision() // saturates at 2^4 = 16
	if b.cw != 16 {
		t.Errorf("saturated window %d, want 16", b.cw)
	}
	b.Success()
	if b.cw != 4 {
		t.Errorf("after success window %d, want 4", b.cw)
	}
	for i := 0; i < 100; i++ {
		if s := b.Draw(); s < 0 || s >= b.cw {
			t.Fatalf("draw %d outside [0,%d)", s, b.cw)
		}
	}
	if _, err := NewBackoff(nil, 2, 4); err == nil {
		t.Error("nil rng must be rejected")
	}
	if _, err := NewBackoff(rand.New(rand.NewSource(1)), 5, 4); err == nil {
		t.Error("min > max must be rejected")
	}
}

func TestBackoffDeterministic(t *testing.T) {
	draw := func() []int {
		b, err := NewBackoff(rand.New(rand.NewSource(42)), 4, 10)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]int, 64)
		for i := range out {
			out[i] = b.Draw()
			if i%5 == 0 {
				b.Collision()
			}
		}
		return out
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestArbitrate(t *testing.T) {
	winners, collided := Arbitrate(map[uint16]int{
		1: 3, 2: 7, 3: 3, 4: 9, 5: 3,
	})
	wantW := []uint16{2, 4}
	wantC := []uint16{1, 3, 5}
	if len(winners) != len(wantW) || len(collided) != len(wantC) {
		t.Fatalf("winners %v collided %v, want %v / %v", winners, collided, wantW, wantC)
	}
	for i := range wantW {
		if winners[i] != wantW[i] {
			t.Fatalf("winners %v, want %v", winners, wantW)
		}
	}
	for i := range wantC {
		if collided[i] != wantC[i] {
			t.Fatalf("collided %v, want %v", collided, wantC)
		}
	}
}

func TestTableLifecycle(t *testing.T) {
	fake := clock.NewFake(time.Unix(0, 0))
	reg := obs.NewRegistry()
	tab := NewTable(fake)
	tab.Instrument(reg)

	s1, err := tab.Associate(111, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s1.ID == 0 {
		t.Fatal("granted the zero sentinel ID")
	}
	if s1.ARQ == nil {
		t.Fatal("association without ARQ state")
	}
	// Retried request (same nonce) is idempotent.
	again, err := tab.Associate(111, 2)
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != s1.ID {
		t.Errorf("retried nonce granted new ID %d, had %d", again.ID, s1.ID)
	}
	s2, err := tab.Associate(222, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s2.ID == s1.ID || s2.Slot == s1.Slot {
		t.Errorf("station 2 shares ID/slot with station 1: %d/%d", s2.ID, s2.Slot)
	}
	if tab.Len() != 2 {
		t.Errorf("Len = %d, want 2", tab.Len())
	}
	ids := tab.IDs()
	if len(ids) != 2 || ids[0] >= ids[1] {
		t.Errorf("IDs = %v, want two sorted", ids)
	}

	// Teardown frees the slot for the next association.
	slot := s1.Slot
	if !tab.Teardown(s1.ID) {
		t.Fatal("teardown failed")
	}
	if tab.Teardown(s1.ID) {
		t.Error("double teardown reported success")
	}
	s3, err := tab.Associate(333, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s3.Slot != slot {
		t.Errorf("freed slot %d not reused (got %d)", slot, s3.Slot)
	}

	// Idle expiry on the clock seam.
	fake.Advance(10 * time.Second)
	tab.Touch(s2.ID)
	expired := tab.ExpireIdle(5 * time.Second)
	if len(expired) != 1 || expired[0] != s3.ID {
		t.Errorf("expired %v, want [%d]", expired, s3.ID)
	}
	if _, ok := tab.Get(s2.ID); !ok {
		t.Error("touched station expired")
	}
	if _, err := tab.Associate(444, 9); err == nil {
		t.Error("9 antennas must be rejected")
	}
}

func TestTableSlotWrapPast64(t *testing.T) {
	tab := NewTable(clock.NewFake(time.Unix(0, 0)))
	seen := map[uint8]int{}
	for i := 0; i < 70; i++ {
		s, err := tab.Associate(uint64(i+1)<<8, 1)
		if err != nil {
			t.Fatal(err)
		}
		seen[s.Slot]++
	}
	if len(seen) != 64 {
		t.Errorf("70 stations spread over %d slots, want all 64", len(seen))
	}
}

func TestTableMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	tab := NewTable(clock.NewFake(time.Unix(0, 0)))
	tab.Instrument(reg)
	s, err := tab.Associate(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	tab.ReportPER(s, 0.25)
	tab.AddDownlinkBytes(s, 1024)
	tab.ReportCSIAge(s, 300*time.Millisecond)
	var buf bytes.Buffer
	if err := obs.WriteProm(&buf, reg); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{metricStations, metricStationPER, metricStationBytes, metricCSIAge} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("exposition missing %s:\n%s", want, buf.String())
		}
	}
	// A nil-instrumented table must not panic.
	bare := NewTable(clock.NewFake(time.Unix(0, 0)))
	s2, err := bare.Associate(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	bare.ReportPER(s2, 0)
	bare.Teardown(s2.ID)
}
