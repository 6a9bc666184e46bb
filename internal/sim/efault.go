package sim

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/blocks"
	"repro/internal/channel"
	"repro/internal/faults"
	"repro/internal/flowgraph"
	"repro/internal/mac"
	"repro/internal/phy"
	"repro/internal/radio"
)

func init() {
	register("e22", E22ChaosCampaign)
}

// chaosPolicy is the supervision policy the campaign runs under: health
// accounting on, a stall watchdog generous enough that a slow decode is
// never mistaken for a wedge, and a small restart budget with fast backoff.
var chaosPolicy = flowgraph.Policy{
	MaxRestarts:  2,
	BackoffBase:  2 * time.Millisecond,
	BackoffMax:   20 * time.Millisecond,
	StallTimeout: 500 * time.Millisecond,
	TrackHealth:  true,
}

// scenarioOutcome accumulates one scenario's results across the flowgraph
// and UDP campaigns.
type scenarioOutcome struct {
	bursts, decoded, typedErrs int
	restarts, panics, stalls   int64
	injected                   int64
}

// E22ChaosCampaign drives every registered fault scenario through the
// supervised transceiver and asserts the robustness contract: each injected
// fault ends in a decoded burst or a typed error — never a crash, deadlock,
// or unexplained silence. Sample and block faults run through a supervised
// flowgraph (TX → inject → panic/stall → channel → RX); datagram faults run
// through the UDP radio link with a mangling interceptor. Options.Scenario
// restricts the campaign to one named scenario.
func E22ChaosCampaign(opt Options) (*Table, error) {
	t := &Table{
		ID:    "E22",
		Title: "Robustness: chaos campaign over the fault-injection scenarios (supervised 2x2 MCS8 flowgraph + UDP link)",
		Columns: []string{"scenario",
			"bursts", "decoded", "typed_errors", "injected", "restarts", "panics", "stalls"},
	}
	names := faults.Names()
	if opt.Scenario != "" {
		sc, err := faults.Lookup(opt.Scenario)
		if err != nil {
			return nil, err
		}
		names = []string{sc.Name}
	}
	bursts := 6
	if opt.Quick {
		bursts = 4
	}
	for idx, name := range names {
		sc, err := faults.Lookup(name)
		if err != nil {
			return nil, err
		}
		var out scenarioOutcome
		if scenarioUsesFlowgraph(sc) {
			if err := runChaosFlowgraph(opt, sc, bursts, &out); err != nil {
				return nil, fmt.Errorf("sim: scenario %q flowgraph: %w", name, err)
			}
		}
		if scenarioUsesDatagrams(sc) {
			if err := runChaosUDP(opt, sc, bursts, &out); err != nil {
				return nil, fmt.Errorf("sim: scenario %q udp: %w", name, err)
			}
		}
		// Every burst must be accounted for: decoded, rejected with a typed
		// error, or erased by a supervised restart (a panicked or stalled
		// attempt consumes the burst it was holding).
		if out.decoded+out.typedErrs+int(out.restarts) < out.bursts {
			return nil, fmt.Errorf("sim: scenario %q lost bursts silently: %d decoded + %d typed + %d restart-erased of %d",
				name, out.decoded, out.typedErrs, out.restarts, out.bursts)
		}
		if err := t.AddRow(float64(idx), float64(out.bursts), float64(out.decoded),
			float64(out.typedErrs), float64(out.injected),
			float64(out.restarts), float64(out.panics), float64(out.stalls)); err != nil {
			return nil, err
		}
		t.Notes = append(t.Notes, fmt.Sprintf("scenario %d: %s — %s", idx, sc.Name, sc.Description))
	}
	t.Notes = append(t.Notes,
		"contract: decoded + typed_errors + restarts ≥ bursts for every scenario (no silent loss, no crash, no deadlock)",
		"run one scenario with mimonet-sim -exp e22 -scenario <name>")
	return t, nil
}

// scenarioUsesFlowgraph reports whether sc injects sample- or block-level
// faults (or is the clean baseline).
func scenarioUsesFlowgraph(sc faults.Scenario) bool {
	return sc.SampleDrop > 0 || sc.SampleDup > 0 || sc.BurstErasure > 0 ||
		sc.GainGlitch > 0 || sc.TimingJump > 0 || sc.CorruptSIG > 0 ||
		sc.PanicAfter >= 0 || sc.StallAfter >= 0 || !scenarioUsesDatagrams(sc)
}

// scenarioUsesDatagrams reports whether sc injects UDP link faults.
func scenarioUsesDatagrams(sc faults.Scenario) bool {
	return sc.DgramLoss > 0 || sc.DgramTrunc > 0 || sc.DgramCorrupt > 0 || sc.DgramReorder > 0
}

// runChaosFlowgraph pushes bursts through a supervised flowgraph with the
// scenario's injector and scripted misbehaviour in the middle.
func runChaosFlowgraph(opt Options, sc faults.Scenario, bursts int, out *scenarioOutcome) error {
	tx, err := phy.NewTransmitter(phy.TxConfig{MCS: 8, ScramblerSeed: 0x5D})
	if err != nil {
		return err
	}
	ch, err := channel.New(channel.Config{NumTX: 2, NumRX: 2, Model: channel.FlatRayleigh,
		SNRdB: 28, Seed: opt.Seed ^ 0xE22, TimingOffset: 240, TrailingSilence: 90})
	if err != nil {
		return err
	}
	rcv, err := phy.NewReceiver(phy.RxConfig{NumAntennas: 2, Detector: "mmse"})
	if err != nil {
		return err
	}
	inj := faults.NewInjector(sc, opt.Seed)
	r := rand.New(rand.NewSource(opt.Seed ^ 0x22))
	sent := 0
	// The packet-ID relay mirrors the cross-process wiring of the binaries:
	// the TX block publishes each burst's ID, the RX block consumes one per
	// decode. Under chaos a burst may vanish mid-graph, so the pop is
	// best-effort (0 = unknown) rather than assumed aligned.
	ids := make(chan uint64, 64)
	txb := &blocks.TXBlock{TX: tx, NextPayload: func() ([]byte, error) {
		if sent >= bursts {
			return nil, io.EOF
		}
		sent++
		p := make([]byte, opt.PayloadLen)
		r.Read(p)
		return p, nil
	}, OnBurst: func(packetID uint64, _ uint16) {
		select {
		case ids <- packetID:
		default:
		}
	}}
	ib := &faults.InjectBlock{BlockName: "inject", Ports: 2, Inj: inj}
	pb := &faults.PanicBlock{BlockName: "chaos-panic", Ports: 2, After: sc.PanicAfter}
	sb := &faults.StallBlock{BlockName: "chaos-stall", Ports: 2, After: sc.StallAfter}
	cb := &blocks.ChannelBlock{Ch: ch}
	rxb := &blocks.RXBlock{RX: rcv, Antennas: 2, OnReport: func(rep blocks.RXReport) {
		if rep.Err == nil {
			out.decoded++
		} else {
			out.typedErrs++
		}
	}, NextPacketID: func() uint64 {
		select {
		case id := <-ids:
			return id
		default:
			return 0
		}
	}}
	g := flowgraph.New()
	chain := []flowgraph.Block{txb, ib, pb, sb, cb, rxb}
	for _, b := range chain {
		if err := g.Add(b); err != nil {
			return err
		}
	}
	for i := 0; i+1 < len(chain); i++ {
		for p := 0; p < 2; p++ {
			if err := g.Connect(chain[i], p, chain[i+1], p); err != nil {
				return err
			}
		}
	}
	if err := g.SetPolicy(chaosPolicy); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := g.Run(ctx); err != nil {
		// A typed failure (restart budget exhausted, unrecoverable block) is
		// an accepted outcome; a deadline means the graph wedged — the exact
		// crash/deadlock class the campaign exists to catch.
		if ctx.Err() != nil {
			return fmt.Errorf("graph wedged: %w", err)
		}
		if _, ok := flowgraph.AsBlockError(err); !ok {
			return fmt.Errorf("untyped graph failure: %w", err)
		}
		out.typedErrs++
	}
	for _, h := range g.Health() {
		out.restarts += h.Restarts
		out.panics += h.Panics
		out.stalls += h.Stalls
	}
	out.bursts += bursts
	out.injected += inj.Counts().Total()
	return nil
}

// runChaosUDP pushes bursts over the loopback UDP radio link with the
// scenario's datagram mangler installed in the sender.
func runChaosUDP(opt Options, sc faults.Scenario, bursts int, out *scenarioOutcome) error {
	tx, err := phy.NewTransmitter(phy.TxConfig{MCS: 8, ScramblerSeed: 0x5D})
	if err != nil {
		return err
	}
	ch, err := channel.New(channel.Config{NumTX: 2, NumRX: 2, Model: channel.FlatRayleigh,
		SNRdB: 28, Seed: opt.Seed ^ 0xDA7A, TimingOffset: 240, TrailingSilence: 90})
	if err != nil {
		return err
	}
	rcv, err := phy.NewReceiver(phy.RxConfig{NumAntennas: 2, Detector: "mmse"})
	if err != nil {
		return err
	}
	urx, err := radio.NewUDPReceiver("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer urx.Close()
	utx, err := radio.NewUDPSender(urx.Addr().String(), 2)
	if err != nil {
		return err
	}
	defer utx.Close()
	inj := faults.NewInjector(sc, opt.Seed)
	utx.Intercept = inj.MangleDatagram
	r := rand.New(rand.NewSource(opt.Seed ^ 0xDA7A))
	for i := 0; i < bursts; i++ {
		p := make([]byte, opt.PayloadLen)
		r.Read(p)
		frame := &mac.Frame{Seq: uint16(i), Payload: p}
		psdu, err := frame.Encode()
		if err != nil {
			return err
		}
		burst, err := tx.Transmit(psdu)
		if err != nil {
			return err
		}
		faded, err := ch.Apply(burst)
		if err != nil {
			return err
		}
		werr := make(chan error, 1)
		go func() { werr <- utx.WriteBurst(faded) }()
		rx, rerr := urx.ReadBurst(5 * time.Second)
		if err := <-werr; err != nil {
			return err
		}
		if rerr != nil {
			// Typed transport failure (timeout on a lost tail, mid-burst
			// shape change from corruption): an accepted outcome.
			out.typedErrs++
			continue
		}
		if res, derr := rcv.Receive(rx); derr == nil {
			if _, merr := mac.Decode(res.PSDU); merr == nil {
				out.decoded++
			} else {
				out.typedErrs++
			}
		} else {
			out.typedErrs++
		}
	}
	out.bursts += bursts
	out.injected += inj.Counts().Total()
	return nil
}
