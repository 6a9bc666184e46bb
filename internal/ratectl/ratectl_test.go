package ratectl

import "testing"

func TestSelectorValidation(t *testing.T) {
	if _, err := NewSelector(nil, 1); err == nil {
		t.Error("empty ladder should fail")
	}
	if _, err := NewSelector(DefaultThresholds(), -1); err == nil {
		t.Error("negative hysteresis should fail")
	}
	bad := []Threshold{{MCS: 0, MinSNRdB: 5}, {MCS: 9, MinSNRdB: 5}}
	if _, err := NewSelector(bad, 1); err == nil {
		t.Error("non-ascending thresholds should fail")
	}
	badMCS := []Threshold{{MCS: 99, MinSNRdB: 5}}
	if _, err := NewSelector(badMCS, 1); err == nil {
		t.Error("invalid MCS should fail")
	}
	badRate := []Threshold{{MCS: 9, MinSNRdB: 5}, {MCS: 0, MinSNRdB: 10}}
	if _, err := NewSelector(badRate, 1); err == nil {
		t.Error("descending data rates should fail")
	}
}

func TestSelectorClimbsAndDescends(t *testing.T) {
	s, err := NewSelector(DefaultThresholds(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.Current() != 0 {
		t.Errorf("start at MCS %d, want 0", s.Current())
	}
	if got := s.Observe(40); got != 15 {
		t.Errorf("40 dB should reach the top rung, got MCS %d", got)
	}
	if got := s.Observe(20); got != 11 {
		t.Errorf("20 dB should select MCS 11, got %d", got)
	}
	if got := s.Observe(-5); got != 0 {
		t.Errorf("-5 dB should fall to MCS 0, got %d", got)
	}
}

func TestSelectorHysteresis(t *testing.T) {
	s, err := NewSelector(DefaultThresholds(), 3)
	if err != nil {
		t.Fatal(err)
	}
	s.Observe(20) // MCS 11 (threshold 19)
	// A dip to 17 dB is within the 3 dB hysteresis: hold the rate.
	if got := s.Observe(17); got != 11 {
		t.Errorf("dip within hysteresis dropped to MCS %d", got)
	}
	// A dip below 16 dB must step down.
	if got := s.Observe(15); got == 11 {
		t.Error("dip beyond hysteresis held the rate")
	}
	// Without hysteresis the same dip drops immediately.
	s0, _ := NewSelector(DefaultThresholds(), 0)
	s0.Observe(20)
	if got := s0.Observe(17); got == 11 {
		t.Error("zero hysteresis should step down at 17 dB")
	}
}

func TestOnLossStepsDown(t *testing.T) {
	s, _ := NewSelector(DefaultThresholds(), 2)
	s.Observe(40)
	top := s.Current()
	down := s.OnLoss()
	if down == top {
		t.Error("OnLoss did not step down")
	}
	// OnLoss at the bottom stays at the bottom.
	s.current = 0
	if got := s.OnLoss(); got != 0 {
		t.Errorf("OnLoss at bottom = MCS %d", got)
	}
}
