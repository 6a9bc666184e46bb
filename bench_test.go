// Package repro's root benchmarks regenerate every experiment table (one
// benchmark per table/figure, E1-E12; see DESIGN.md for the mapping onto
// the paper) plus end-to-end throughput benches for the SDR-feasibility
// numbers. Run with:
//
//	go test -bench=. -benchmem
//
// The benchmarks execute each experiment at reduced (Quick) Monte-Carlo
// settings so `go test -bench` terminates promptly; use cmd/mimonet-sim for
// full-resolution tables.
package repro

import (
	"fmt"
	"io"
	"runtime"
	"testing"

	"repro/internal/channel"
	"repro/internal/phy"
	"repro/internal/sim"
)

func benchOptions(i int) sim.Options {
	return sim.Options{Seed: int64(1 + i), Packets: 20, PayloadLen: 300, Quick: true}
}

// benchExperiment runs one experiment table per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	runner, err := sim.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		table, err := runner(benchOptions(i))
		if err != nil {
			b.Fatal(err)
		}
		if err := table.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWorkerSweep runs one experiment at a fixed worker count so the
// serial/parallel sub-benchmarks expose the Monte-Carlo engine's scaling
// (and its per-worker allocation overhead) side by side. The table is
// bit-identical at every count, so the pair measures pure engine cost.
func benchWorkerSweep(b *testing.B, id string) {
	b.Helper()
	runner, err := sim.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	counts := []int{1, runtime.GOMAXPROCS(0)}
	if counts[1] == 1 {
		counts = counts[:1] // single-core box: the pair would be duplicates
	}
	for _, workers := range counts {
		workers := workers
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opt := benchOptions(i)
				opt.Workers = workers
				table, err := runner(opt)
				if err != nil {
					b.Fatal(err)
				}
				if err := table.Render(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE1UncodedBER(b *testing.B)        { benchExperiment(b, "e1") }
func BenchmarkE2FECGain(b *testing.B)           { benchExperiment(b, "e2") }
func BenchmarkE3Detectors(b *testing.B)         { benchExperiment(b, "e3") }
func BenchmarkE4Throughput(b *testing.B)        { benchExperiment(b, "e4") }
func BenchmarkE5PERvsSNR(b *testing.B)          { benchExperiment(b, "e5") }
func BenchmarkE6Synchronization(b *testing.B)   { benchExperiment(b, "e6") }
func BenchmarkE7PhaseTracking(b *testing.B)     { benchExperiment(b, "e7") }
func BenchmarkE8ChannelEstimation(b *testing.B) { benchExperiment(b, "e8") }
func BenchmarkE9SNREstimation(b *testing.B)     { benchExperiment(b, "e9") }
func BenchmarkE10PacketDetection(b *testing.B)  { benchExperiment(b, "e10") }
func BenchmarkE11NetworkedLink(b *testing.B)    { benchExperiment(b, "e11") }
func BenchmarkE12Pipeline(b *testing.B)         { benchExperiment(b, "e12") }

// BenchmarkTXChain measures raw transmit-chain throughput per MCS family —
// the numbers behind E12's feasibility row, at testing.B resolution.
func BenchmarkTXChain(b *testing.B) {
	for _, mcs := range []int{0, 7, 15, 31} {
		mcs := mcs
		b.Run(fmt.Sprintf("mcs%d", mcs), func(b *testing.B) {
			tx, err := phy.NewTransmitter(phy.TxConfig{MCS: mcs})
			if err != nil {
				b.Fatal(err)
			}
			psdu := make([]byte, 1500)
			samples := phy.BurstLen(tx.MCS(), len(psdu))
			b.SetBytes(int64(samples * 16))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tx.Transmit(psdu); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRXChain measures full receive-chain throughput (sync + channel
// estimation + detection + Viterbi) per detector. Throughput is reported as
// samples/sec — aggregate complex baseband samples consumed across all
// receive antennas per wall-clock second, the unit an SDR front end is
// specified in — rather than the misleading struct-bytes MB/s figure.
func BenchmarkRXChain(b *testing.B) {
	for _, det := range []string{"zf", "mmse", "ml"} {
		det := det
		b.Run(det, func(b *testing.B) {
			const mcs = 9
			tx, err := phy.NewTransmitter(phy.TxConfig{MCS: mcs})
			if err != nil {
				b.Fatal(err)
			}
			psdu := make([]byte, 1500)
			burst, err := tx.Transmit(psdu)
			if err != nil {
				b.Fatal(err)
			}
			ch, err := channel.New(channel.Config{NumTX: 2, NumRX: 2,
				Model: channel.Identity, SNRdB: 30, Seed: 1,
				TimingOffset: 100, TrailingSilence: 50})
			if err != nil {
				b.Fatal(err)
			}
			rxs, err := ch.Apply(burst)
			if err != nil {
				b.Fatal(err)
			}
			rcv, err := phy.NewReceiver(phy.RxConfig{NumAntennas: 2, Detector: det})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cp := make([][]complex128, len(rxs))
				for a := range rxs {
					cp[a] = append([]complex128(nil), rxs[a]...)
				}
				if _, err := rcv.Receive(cp); err != nil {
					b.Fatal(err)
				}
			}
			samples := float64(len(rxs[0]) * len(rxs) * b.N)
			b.ReportMetric(samples/b.Elapsed().Seconds(), "samples/sec")
		})
	}
}

// BenchmarkRealtime is the 20 Msps real-time gate: a 4-antenna receiver fed
// MCS0 packets through a TGn-B multipath channel, measured in aggregate
// complex samples consumed per wall-clock second across all antennas. A
// 20 MHz 802.11n front end delivers 20 Msamples/s on every antenna, so the
// secondary realtime metric is burst airtime ÷ decode wall time for the
// whole front end (aggregate rate ÷ (20 Msps × antennas)), > 1.0 meaning
// the receiver keeps up with a live stream on this core count. The
// per-iteration burst copy is part of the measured cost, as in any real
// pipeline handoff: CFO correction rotates the buffer in place.
func BenchmarkRealtime(b *testing.B) {
	benchRealtime(b, 0, 4, "mmse") // BPSK 1/2, the rate a marginal link actually runs at
}

// BenchmarkRealtimeML is the heavy-MCS twin of BenchmarkRealtime: 16-QAM
// 3/4 on two streams into two antennas, separated by the ML detector.
func BenchmarkRealtimeML(b *testing.B) {
	benchRealtime(b, 12, 2, "ml")
}

// benchRealtime decodes one 1500-octet burst of the MCS, faded by TGn-B at
// 30 dB into nrx antennas, per iteration and reports samples/sec and the
// per-front-end realtime ratio.
func benchRealtime(b *testing.B, mcs, nrx int, detector string) {
	tx, err := phy.NewTransmitter(phy.TxConfig{MCS: mcs})
	if err != nil {
		b.Fatal(err)
	}
	psdu := make([]byte, 1500)
	burst, err := tx.Transmit(psdu)
	if err != nil {
		b.Fatal(err)
	}
	ch, err := channel.New(channel.Config{NumTX: tx.NumChains(), NumRX: nrx,
		Model: channel.TGnB, SNRdB: 30, Seed: 3,
		TimingOffset: 100, TrailingSilence: 50})
	if err != nil {
		b.Fatal(err)
	}
	rxs, err := ch.Apply(burst)
	if err != nil {
		b.Fatal(err)
	}
	rcv, err := phy.NewReceiver(phy.RxConfig{NumAntennas: nrx, Detector: detector})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cp := make([][]complex128, len(rxs))
		for a := range rxs {
			cp[a] = append([]complex128(nil), rxs[a]...)
		}
		if _, err := rcv.Receive(cp); err != nil {
			b.Fatal(err)
		}
	}
	rate := float64(len(rxs[0])*len(rxs)*b.N) / b.Elapsed().Seconds()
	b.ReportMetric(rate, "samples/sec")
	b.ReportMetric(rate/(20e6*float64(len(rxs))), "realtime")
}

// BenchmarkE1Workers and BenchmarkE5Workers track the parallel engine: E1 is
// the lightest sharded sweep (per-shard modem scratch dominates), E5 the
// heaviest (full TX→channel→RX link per packet).
func BenchmarkE1Workers(b *testing.B) { benchWorkerSweep(b, "e1") }
func BenchmarkE5Workers(b *testing.B) { benchWorkerSweep(b, "e5") }

func BenchmarkE13STBCvsSM(b *testing.B) { benchExperiment(b, "e13") }

func BenchmarkE14LinkAdaptation(b *testing.B) { benchExperiment(b, "e14") }

func BenchmarkE15TransmitSpectrum(b *testing.B) { benchExperiment(b, "e15") }

func BenchmarkE16Aggregation(b *testing.B) { benchExperiment(b, "e16") }

func BenchmarkE17GuardInterval(b *testing.B) { benchExperiment(b, "e17") }

func BenchmarkE18Mobility(b *testing.B) { benchExperiment(b, "e18") }

func BenchmarkE19ReliableDelivery(b *testing.B) { benchExperiment(b, "e19") }

func BenchmarkE20RankAdaptation(b *testing.B) { benchExperiment(b, "e20") }

func BenchmarkE21SyncModes(b *testing.B) { benchExperiment(b, "e21") }
