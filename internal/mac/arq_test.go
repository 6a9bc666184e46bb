package mac

import (
	"math/rand"
	"testing"
	"time"
)

func TestBlockAckBitmap(t *testing.T) {
	ack := BlockAck{Start: 100, Bitmap: 0b1011}
	for seq, want := range map[uint16]bool{
		100: true, 101: true, 102: false, 103: true,
		104: false, 164: false, 99: false,
	} {
		if ack.Acked(seq) != want {
			t.Errorf("Acked(%d) = %v, want %v", seq, ack.Acked(seq), want)
		}
	}
}

func TestAckFromResults(t *testing.T) {
	results := []DeaggregateResult{
		{Frame: &Frame{Seq: 10}},
		{Err: errFake},
		{Frame: &Frame{Seq: 12}},
	}
	ack := AckFrom(10, results)
	if !ack.Acked(10) || ack.Acked(11) || !ack.Acked(12) {
		t.Errorf("ack bitmap %b", ack.Bitmap)
	}
}

var errFake = &fakeErr{}

type fakeErr struct{}

func (*fakeErr) Error() string { return "fake" }

func TestARQSenderValidation(t *testing.T) {
	if _, err := NewARQSender(0); err == nil {
		t.Error("window 0 should fail")
	}
	if _, err := NewARQSender(65); err == nil {
		t.Error("window 65 should fail")
	}
}

func TestARQSelectiveRetransmit(t *testing.T) {
	s, err := NewARQSender(8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		s.Queue([]byte{byte(i)})
	}
	round1 := s.Round()
	if len(round1) != 8 {
		t.Fatalf("round 1 has %d frames", len(round1))
	}
	// Receiver got frames 0,1,2,5,6,7; 3 and 4 lost.
	var results []DeaggregateResult
	for _, f := range round1 {
		if f.Seq == 3 || f.Seq == 4 {
			results = append(results, DeaggregateResult{Err: errFake})
			continue
		}
		results = append(results, DeaggregateResult{Frame: f})
	}
	s.Apply(AckFrom(0, results))
	if s.Delivered != 6 || s.Outstanding() != 2 {
		t.Fatalf("delivered %d, outstanding %d", s.Delivered, s.Outstanding())
	}
	round2 := s.Round()
	if len(round2) != 2 {
		t.Fatalf("round 2 has %d frames", len(round2))
	}
	seqs := map[uint16]bool{round2[0].Seq: true, round2[1].Seq: true}
	if !seqs[3] || !seqs[4] {
		t.Errorf("round 2 retransmits %v, want {3, 4}", seqs)
	}
	s.Apply(AckFrom(0, []DeaggregateResult{{Frame: round2[0]}, {Frame: round2[1]}}))
	if s.Delivered != 8 || s.Outstanding() != 0 {
		t.Errorf("final: delivered %d outstanding %d", s.Delivered, s.Outstanding())
	}
}

func TestARQGivesUpAfterMaxRetries(t *testing.T) {
	s, _ := NewARQSender(4)
	s.MaxRetries = 3
	s.Queue([]byte{1})
	for round := 0; round < 5; round++ {
		s.Round() // never acknowledged
	}
	if s.Dropped != 1 || s.Outstanding() != 0 {
		t.Errorf("dropped %d outstanding %d after retry exhaustion", s.Dropped, s.Outstanding())
	}
}

func TestARQWindowLimitsRound(t *testing.T) {
	s, _ := NewARQSender(4)
	for i := 0; i < 10; i++ {
		s.Queue([]byte{byte(i)})
	}
	if got := len(s.Round()); got != 4 {
		t.Errorf("round size %d, want 4", got)
	}
}

func TestARQEndToEndOverLossyAggregates(t *testing.T) {
	// Drive the full Aggregate → corrupt → Deaggregate → AckFrom loop until
	// everything delivers.
	r := rand.New(rand.NewSource(1))
	s, _ := NewARQSender(16)
	const total = 40
	for i := 0; i < total; i++ {
		p := make([]byte, 100)
		r.Read(p)
		s.Queue(p)
	}
	rounds := 0
	for s.Outstanding() > 0 && rounds < 50 {
		rounds++
		frames := s.Round()
		if len(frames) == 0 {
			break
		}
		psdu, err := Aggregate(frames)
		if err != nil {
			t.Fatal(err)
		}
		// 20% of subframes damaged: flip a byte somewhere random.
		for k := 0; k < len(psdu)/500; k++ {
			psdu[r.Intn(len(psdu))] ^= 0xA5
		}
		s.Apply(AckFrom(frames[0].Seq, Deaggregate(psdu)))
	}
	if s.Delivered+s.Dropped != total {
		t.Fatalf("accounting broken: %d delivered + %d dropped != %d", s.Delivered, s.Dropped, total)
	}
	if s.Delivered < total*9/10 {
		t.Errorf("only %d/%d delivered under 20%% loss", s.Delivered, total)
	}
	t.Logf("delivered %d/%d in %d rounds", s.Delivered, total, rounds)
}

func TestARQRetryDelayBacksOffExponentially(t *testing.T) {
	s, err := NewARQSender(8)
	if err != nil {
		t.Fatal(err)
	}
	s.BackoffBase = time.Millisecond
	s.BackoffMax = 8 * time.Millisecond
	s.Queue([]byte("payload"))
	if d := s.RetryDelay(); d != 0 {
		t.Errorf("delay before any failed round = %v, want 0", d)
	}
	want := []time.Duration{
		1 * time.Millisecond,
		2 * time.Millisecond,
		4 * time.Millisecond,
		8 * time.Millisecond,
		8 * time.Millisecond, // capped
	}
	for i, w := range want {
		s.Round()
		s.Apply(BlockAck{}) // nothing acknowledged
		if d := s.RetryDelay(); d != w {
			t.Errorf("after %d failed rounds: delay = %v, want %v", i+1, d, w)
		}
	}
	if s.Backoffs != len(want) {
		t.Errorf("Backoffs = %d, want %d", s.Backoffs, len(want))
	}
}

func TestARQRetryDelayResetsOnProgress(t *testing.T) {
	s, err := NewARQSender(8)
	if err != nil {
		t.Fatal(err)
	}
	seq := s.Queue([]byte("a"))
	s.Queue([]byte("b"))
	s.Round()
	s.Apply(BlockAck{}) // all lost
	if s.RetryDelay() == 0 {
		t.Fatal("expected nonzero delay after an all-loss round")
	}
	s.Round()
	ack := BlockAck{Start: seq}
	ack.Bitmap |= 1 // acknowledge the first frame only
	s.Apply(ack)
	if d := s.RetryDelay(); d != 0 {
		t.Errorf("delay after partial progress = %v, want 0", d)
	}
}

func TestARQApplyWithNothingPendingIsNotABackoff(t *testing.T) {
	s, err := NewARQSender(8)
	if err != nil {
		t.Fatal(err)
	}
	s.Apply(BlockAck{})
	if s.Backoffs != 0 || s.RetryDelay() != 0 {
		t.Errorf("idle Apply counted as backoff: %d, delay %v", s.Backoffs, s.RetryDelay())
	}
}

func TestARQRetryDelayJitterDeterministicFromSeed(t *testing.T) {
	// Two senders seeded identically must draw identical jittered
	// schedules (chaos campaigns replay from their seed); a third with a
	// different seed must diverge, and every draw must stay inside the
	// ±JitterFrac envelope around the deterministic schedule.
	mk := func(seed int64) *ARQSender {
		s, err := NewARQSender(8)
		if err != nil {
			t.Fatal(err)
		}
		s.BackoffBase = time.Millisecond
		s.BackoffMax = 8 * time.Millisecond
		s.JitterFrac = 0.25
		s.SetJitterSource(rand.New(rand.NewSource(seed)))
		s.Queue([]byte("payload"))
		return s
	}
	det := []time.Duration{1, 2, 4, 8, 8, 8} // ms, the unjittered schedule
	run := func(s *ARQSender) []time.Duration {
		var out []time.Duration
		for range det {
			s.Round()
			s.Apply(BlockAck{})
			out = append(out, s.RetryDelay())
		}
		return out
	}
	a, b, c := run(mk(42)), run(mk(42)), run(mk(43))
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("round %d: same seed diverged: %v vs %v", i, a[i], b[i])
		}
		if a[i] != c[i] {
			same = false
		}
		d := det[i] * time.Millisecond
		lo := d - d/4
		hi := d + d/4
		if a[i] < lo || a[i] > hi {
			t.Errorf("round %d: delay %v outside [%v, %v]", i, a[i], lo, hi)
		}
	}
	if same {
		t.Error("different seeds produced identical jitter schedules")
	}
}

func TestARQRetryDelayNoJitterWithoutSource(t *testing.T) {
	s, err := NewARQSender(8)
	if err != nil {
		t.Fatal(err)
	}
	s.BackoffBase = time.Millisecond
	s.BackoffMax = 8 * time.Millisecond
	s.JitterFrac = 0.5 // fraction set but no source installed
	s.Queue([]byte("payload"))
	s.Round()
	s.Apply(BlockAck{})
	if d := s.RetryDelay(); d != time.Millisecond {
		t.Errorf("delay = %v, want deterministic 1ms with no jitter source", d)
	}
}
