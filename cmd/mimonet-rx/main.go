// Command mimonet-rx listens for IQ sample bursts over UDP (from a
// mimonet-tx process), runs the full MIMONet receiver on each, and logs a
// per-packet report: sync state, estimated SNR and CFO, MCS, and FCS
// outcome, keyed by the TX-assigned packet ID recovered from the radio
// framing header.
//
// The receive path runs as a two-block flowgraph (burst source → receiver
// sink) so block health and per-edge throughput are observable. With
// -metrics-listen the process additionally serves live telemetry:
// /metrics (Prometheus text: SNR/BER/PER series, block and edge
// instruments, link counters), /healthz (per-block health snapshots),
// /trace (recent per-packet stage traces), /debug/pprof, and — when
// -flight-dir is set — POST /dump to snapshot the flight recorder on
// demand. The flight recorder also dumps on its own triggers: CRC
// failures, supervisor restarts, and SNR collapses.
//
// Usage:
//
//	mimonet-rx -listen 127.0.0.1:9750 -antennas 2 -count 20
//	mimonet-rx -file burst.iq -metrics-listen 127.0.0.1:9751 -metrics-hold 30s
//	mimonet-rx -listen 127.0.0.1:9750 -flight-dir dumps/ -log-json
package main

import (
	"context"
	"errors"
	"flag"
	"io"
	"log/slog"
	"os"
	"time"

	"repro/internal/blocks"
	"repro/internal/flowgraph"
	"repro/internal/mac"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/stream"
	"repro/internal/phy"
	"repro/internal/radio"
)

func main() {
	var (
		listen        = flag.String("listen", "127.0.0.1:9750", "UDP listen address")
		antennas      = flag.Int("antennas", 2, "receive antenna count")
		detector      = flag.String("detector", "mmse", "MIMO detector: zf, mmse, sic, ml")
		count         = flag.Int("count", 0, "stop after this many bursts (0 = run forever)")
		timeout       = flag.Duration("timeout", 30*time.Second, "per-burst receive timeout")
		file          = flag.String("file", "", "replay IQ bursts from this recording instead of listening on UDP")
		metricsListen = flag.String("metrics-listen", "", "serve /metrics, /healthz, /trace, /dump and /debug/pprof on this address (empty = telemetry off)")
		metricsHold   = flag.Duration("metrics-hold", 0, "keep the telemetry server up this long after the stream ends, so scrapers catch the final values")
		flightDir     = flag.String("flight-dir", "", "write flight-recorder dumps to this directory (empty = recorder off)")
		snrDrop       = flag.Float64("flight-snr-drop", 10, "arm the recorder's SNR-collapse trigger at this many dB below the running mean (0 = off)")
		logJSON       = flag.Bool("log-json", false, "emit structured logs as JSON instead of text")
	)
	flag.Parse()
	logger := obs.NewLogger(os.Stderr, slog.LevelInfo, *logJSON, "rx")
	fatal := func(msg string, err error) {
		logger.Error(msg, slog.String("err", err.Error()))
		os.Exit(1)
	}

	// Telemetry root. The trace ring and RxObs come up whenever either
	// consumer (the exposition server or the flight recorder) needs them; a
	// nil registry keeps the instruments standalone.
	var (
		reg    *obs.Registry
		tracer *obs.Tracer
		rxObs  *phy.RxObs
		rec    *flight.Recorder
	)
	var hub *stream.Hub
	if *metricsListen != "" {
		reg = obs.NewRegistry()
		obs.BuildInfo(reg, "rx")
	}
	if *metricsListen != "" || *flightDir != "" {
		tracer = obs.NewTracer(256, nil)
		tracer.SetRole("rx")
		rxObs = phy.NewRxObs(reg, tracer)
	}
	if *flightDir != "" {
		rec = flight.New(flight.Config{
			Capacity: 32, Dir: *flightDir, Node: "rx",
			OnFailure: true, OnRestart: true, SNRDropDB: *snrDrop,
		})
		rxObs.SetFlight(rec)
	}

	var read func() (burst [][]complex128, lost, packetID uint64, err error)
	var rxSock *radio.UDPReceiver
	if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			fatal("recording open failed", err)
		}
		defer f.Close()
		sr := radio.NewStreamReader(f)
		read = func() ([][]complex128, uint64, uint64, error) {
			b, err := sr.ReadBurst()
			return b, 0, sr.LastPacketID(), err
		}
		logger.Info("replaying", slog.String("file", *file))
	} else {
		sock, err := radio.NewUDPReceiver(*listen)
		if err != nil {
			fatal("UDP listen failed", err)
		}
		defer sock.Close()
		if reg != nil {
			sock.Instrument(reg)
		}
		rxSock = sock
		read = func() ([][]complex128, uint64, uint64, error) {
			b, err := sock.ReadBurst(*timeout)
			return b, sock.Lost, sock.LastPacketID(), err
		}
		logger.Info("listening", slog.String("addr", sock.Addr().String()),
			slog.Int("antennas", *antennas), slog.String("detector", *detector))
	}
	rcv, err := phy.NewReceiver(phy.RxConfig{NumAntennas: *antennas, Detector: *detector})
	if err != nil {
		fatal("receiver setup failed", err)
	}
	rcv.SetObs(rxObs)

	// The packet-ID relay: the source learns each burst's TX-assigned ID
	// from the transport header and queues it; the sink pops exactly one ID
	// per burst before decoding. Channel semantics give the necessary
	// happens-before between the two block goroutines.
	ids := make(chan uint64, 256)
	var curID uint64

	okCount, errCount, burstNo := 0, 0, 0
	var lost uint64
	src := &burstSource{antennas: *antennas, count: *count, read: read, log: logger,
		onLost: func(n uint64) { lost = n },
		onBurst: func(id uint64) {
			select {
			case ids <- id:
			default:
			}
		}}
	sink := &blocks.RXBlock{RX: rcv, Antennas: *antennas, Obs: rxObs,
		NextPacketID: func() uint64 {
			select {
			case curID = <-ids:
			default:
				curID = 0
			}
			return curID
		},
		OnReport: func(rep blocks.RXReport) {
			i := burstNo
			burstNo++
			if rep.Err != nil && (rep.Res == nil || rep.Res.PSDU == nil) {
				errCount++
				logger.Warn("decode failed", obs.LogBurst(i), obs.LogPacket(curID),
					slog.String("err", rep.Err.Error()))
				return
			}
			status := "ok"
			if rep.Err != nil {
				errCount++
				status = "fcs_bad"
			} else {
				okCount++
			}
			res := rep.Res
			logger.Info("burst decoded", obs.LogBurst(i), obs.LogPacket(curID),
				slog.String("fcs", status), slog.Int("seq", seqOf(rep.Frame)),
				slog.String("mcs", res.MCS.String()),
				slog.Float64("snr_db", res.SNRdB),
				slog.Float64("cfo_hz", res.CFO*20e6/(2*3.141592653589793)),
				slog.Int("len", int(res.HTSIG.Length)),
				slog.Uint64("lost_dgrams", lost))
		}}

	g := flowgraph.New()
	if err := g.Add(src); err != nil {
		fatal("graph build failed", err)
	}
	if err := g.Add(sink); err != nil {
		fatal("graph build failed", err)
	}
	for a := 0; a < *antennas; a++ {
		if err := g.Connect(src, a, sink, a); err != nil {
			fatal("graph connect failed", err)
		}
	}
	if reg != nil {
		hub = stream.NewHub(stream.Config{Node: "rx", Registry: reg, Tracer: tracer})
	}
	pol := flowgraph.Policy{TrackHealth: true, Metrics: reg, Logger: logger}
	if rec != nil || hub != nil {
		pol.OnRestart = func(block string, attempt int, err error) {
			hub.PublishRestart(block, attempt, err)
			if rec == nil {
				return
			}
			if file, derr := rec.RestartObserved(block, attempt, err); derr == nil && file != "" {
				hub.Publish(stream.Event{Type: stream.EventFlightDump,
					Block: block, Reason: "restart", File: file})
				logger.Warn("flight dump on restart", obs.LogBlock(block), slog.String("file", file))
			}
		}
	}
	if err := g.SetPolicy(pol); err != nil {
		fatal("policy rejected", err)
	}

	if reg != nil {
		srv := obs.NewServer(reg, tracer, func() any { return g.Health() })
		if rec != nil {
			srv.SetDumper(rec.Dump)
		}
		srv.Handle("/stream", stream.Handler(hub))
		ctl := &stream.Control{}
		if rec != nil {
			ctl.FlightDump = rec.Dump
		}
		srv.Handle("/api/", ctl.Handler())
		go hub.Run(context.Background())
		addr, err := srv.Listen(*metricsListen)
		if err != nil {
			fatal("telemetry listen failed", err)
		}
		defer srv.Close()
		logger.Info("telemetry listening", slog.String("addr", "http://"+addr.String()+"/metrics"))
	}

	if err := g.Run(context.Background()); err != nil {
		logger.Error("flowgraph failed", slog.String("err", err.Error()))
	}
	if rxSock != nil {
		logger.Info("done", slog.Int("ok", okCount), slog.Int("errors", errCount),
			slog.Uint64("dgrams_lost", lost), slog.Uint64("dgrams_corrupt", rxSock.Corrupt),
			slog.Uint64("dgrams_late", rxSock.Late))
	} else {
		logger.Info("done", slog.Int("ok", okCount), slog.Int("errors", errCount),
			slog.Uint64("dgrams_lost", lost))
	}
	if rec != nil {
		dumpFile, err := rec.Dump("end_of_run")
		if err != nil {
			fatal("flight dump failed", err)
		}
		logger.Info("flight dump written", slog.String("file", dumpFile))
	}
	if *metricsListen != "" && *metricsHold > 0 {
		logger.Info("holding telemetry server", slog.Duration("hold", *metricsHold))
		time.Sleep(*metricsHold) //mimonet:wallclock CLI flag-driven hold before exit
	}
}

// burstSource adapts the burst reader (UDP socket or recording) into a
// 0-in, N-out flowgraph block, one output port per antenna.
type burstSource struct {
	antennas int
	count    int
	read     func() (burst [][]complex128, lost, packetID uint64, err error)
	onLost   func(uint64)
	// onBurst observes the TX-assigned packet ID of each accepted burst
	// before its chunks enter the graph.
	onBurst func(uint64)
	log     *slog.Logger
}

// Name implements flowgraph.Block.
func (s *burstSource) Name() string { return "burst-source" }

// Inputs implements flowgraph.Block.
func (s *burstSource) Inputs() int { return 0 }

// Outputs implements flowgraph.Block.
func (s *burstSource) Outputs() int { return s.antennas }

// Run implements flowgraph.Block.
func (s *burstSource) Run(ctx context.Context, _ []<-chan flowgraph.Chunk, out []chan<- flowgraph.Chunk) error {
	for i := 0; s.count == 0 || i < s.count; i++ {
		burst, nLost, packetID, err := s.read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			// A timed-out or malformed burst is an operational event on a
			// lossy link, not a reason to die.
			if errors.Is(err, os.ErrDeadlineExceeded) {
				s.log.Warn("receive timeout; still listening", obs.LogBurst(i))
				continue
			}
			s.log.Warn("burst read failed; skipping", obs.LogBurst(i),
				slog.String("err", err.Error()))
			continue
		}
		s.onLost(nLost)
		if len(burst) != s.antennas {
			s.log.Warn("stream count mismatch; skipping", obs.LogBurst(i),
				slog.Int("streams", len(burst)), slog.Int("expected", s.antennas))
			continue
		}
		if s.onBurst != nil {
			s.onBurst(packetID)
		}
		for a, stream := range burst {
			if !flowgraph.Send(ctx, out[a], stream) {
				return ctx.Err()
			}
		}
	}
	return nil
}

func seqOf(f *mac.Frame) int {
	if f == nil {
		return -1
	}
	return int(f.Seq)
}
