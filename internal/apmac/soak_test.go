package apmac

import (
	"reflect"
	"testing"
)

func quickSoak() SoakConfig {
	return SoakConfig{
		Cells:           4,
		StationsPerCell: 6,
		Slots:           300,
		Seed:            7,
		Workers:         1,
	}
}

func TestSoakDeterministicAcrossWorkers(t *testing.T) {
	cfg := quickSoak()
	serial, err := RunSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	parallel, err := RunSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if serial.SchedHash != parallel.SchedHash {
		t.Errorf("scheduler hash differs across worker counts: %s vs %s", serial.SchedHash, parallel.SchedHash)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("soak results differ across worker counts")
	}
}

func TestSoakOutcomes(t *testing.T) {
	res, err := RunSoak(quickSoak())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerStation) != res.Stations {
		t.Fatalf("per-station stats for %d of %d stations", len(res.PerStation), res.Stations)
	}
	delivered := 0
	for _, s := range res.PerStation {
		if s.PER < 0 || s.PER > 1 {
			t.Errorf("cell %d station %d PER %g out of range", s.Cell, s.Station, s.PER)
		}
		if s.DeliveredBits > 0 {
			delivered++
		}
	}
	if delivered < res.Stations/2 {
		t.Errorf("only %d/%d stations ever received data", delivered, res.Stations)
	}
	if res.ScheduledSlots == 0 || res.MUThroughputMbps <= 0 {
		t.Errorf("soak never transmitted: %d scheduled slots, %.3f Mbps", res.ScheduledSlots, res.MUThroughputMbps)
	}
	if res.AssocAttempts == 0 {
		t.Error("no association attempts recorded")
	}
	if res.MU2x2SumRate <= res.SU2x2BestRate {
		t.Errorf("MU sum rate %.2f not above SU baseline %.2f on a well-conditioned 2x2",
			res.MU2x2SumRate, res.SU2x2BestRate)
	}
	if res.MUThroughputMbps <= res.SUBaselineMbps {
		t.Errorf("MU aggregate %.3f Mbps not above SU TDMA baseline %.3f Mbps",
			res.MUThroughputMbps, res.SUBaselineMbps)
	}
	// Churn cells must have observed reassociations and the fading cells
	// should have evicted stale CSI at least once under churn.
	if res.Reassociations == 0 {
		t.Error("churn scenarios produced no reassociations")
	}
}

func TestSoakDefaultsTrackArtifact(t *testing.T) {
	cfg := SoakConfig{}.withDefaults()
	if got := cfg.Cells * cfg.StationsPerCell; got < 100 {
		t.Errorf("default soak drives %d stations, the tracked artifact needs >= 100", got)
	}
	if len(soakScenarios) != 4 {
		t.Errorf("scenario rotation has %d entries", len(soakScenarios))
	}
}
