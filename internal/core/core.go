// Package core ties the MIMONet transceiver together into a link-level
// simulator: a Link couples a phy.Transmitter, a channel.Channel and a
// phy.Receiver and moves MAC frames across them, reporting the per-packet
// diagnostics (FCS outcome, bit errors, SNR estimate, sync state) that the
// paper's evaluation is built from.
package core

import (
	"fmt"

	"repro/internal/channel"
	"repro/internal/mac"
	"repro/internal/phy"
)

// LinkConfig assembles a link.
type LinkConfig struct {
	// MCS selects the modulation and coding scheme (0-31); the transmit
	// antenna count follows from it.
	MCS int
	// NumRXAntennas is the receiver antenna count; defaults to N_SS.
	//mimonet:testonly-ok the link integration tests sweep receiver antenna counts; the experiments build their receivers directly
	NumRXAntennas int
	// Detector selects the MIMO detector ("zf", "mmse", "sic", "ml");
	// default "mmse".
	Detector string
	// Channel configures the propagation model and impairments. NumTX and
	// NumRX are filled in from the MCS and NumRXAntennas.
	Channel channel.Config
	// DisablePhaseTracking, SmoothingWindow and CPMLSync forward to
	// phy.RxConfig.
	DisablePhaseTracking bool
	//mimonet:testonly-ok the link's copy of phy.RxConfig.SmoothingWindow, which phy tests drive
	SmoothingWindow int
	CPMLSync        bool
	// ScramblerSeed forwards to phy.TxConfig (0 selects all-ones).
	//mimonet:testonly-ok the link's copy of phy.TxConfig.ScramblerSeed, which phy tests vary
	ScramblerSeed byte
	// ShortGI selects the 400 ns guard interval.
	//mimonet:testonly-ok TestLinkShortGI and the link integration sweep drive the 400 ns guard interval
	ShortGI bool
}

// TransferReport describes one frame's journey across the link.
type TransferReport struct {
	// OK is true when the frame decoded with a valid FCS and matching
	// sequence number.
	OK bool
	// Received is the recovered payload (nil if the PHY or FCS failed).
	Received []byte
	// SyncError, PHYError record where decoding failed, if it did.
	SyncError bool
	PHYError  error
	// BitErrors counts payload bit errors against the transmitted frame
	// (PSDU-level, counted even when the FCS fails, 8·len(payload) when
	// nothing decoded).
	BitErrors   int
	PayloadBits int
	// SNRdB is the receiver's L-LTF SNR estimate (NaN-free; 0 when sync
	// failed).
	SNRdB float64
	// CFO is the corrected frequency offset in rad/sample.
	CFO float64
	// Seq is the MAC sequence number used.
	Seq uint16
}

// Link is a single-hop MIMONet link. Not safe for concurrent use.
type Link struct {
	cfg LinkConfig
	tx  *phy.Transmitter
	rx  *phy.Receiver
	ch  *channel.Channel
	seq uint16
	src mac.Addr
	dst mac.Addr
}

// NewLink validates the configuration and builds the link.
func NewLink(cfg LinkConfig) (*Link, error) {
	tx, err := phy.NewTransmitter(phy.TxConfig{MCS: cfg.MCS, ScramblerSeed: cfg.ScramblerSeed, Smoothing: cfg.SmoothingWindow > 1, ShortGI: cfg.ShortGI})
	if err != nil {
		return nil, err
	}
	nrx := cfg.NumRXAntennas
	if nrx == 0 {
		nrx = tx.NumChains()
	}
	rx, err := phy.NewReceiver(phy.RxConfig{
		NumAntennas:          nrx,
		Detector:             cfg.Detector,
		DisablePhaseTracking: cfg.DisablePhaseTracking,
		SmoothingWindow:      cfg.SmoothingWindow,
		CPMLSync:             cfg.CPMLSync,
	})
	if err != nil {
		return nil, err
	}
	chCfg := cfg.Channel
	chCfg.NumTX = tx.NumChains()
	chCfg.NumRX = nrx
	if chCfg.TimingOffset == 0 {
		chCfg.TimingOffset = 200
	}
	if chCfg.TrailingSilence == 0 {
		chCfg.TrailingSilence = 100
	}
	ch, err := channel.New(chCfg)
	if err != nil {
		return nil, err
	}
	return &Link{
		cfg: cfg,
		tx:  tx,
		rx:  rx,
		ch:  ch,
		src: mac.Addr{0x02, 0x4d, 0x4e, 0x00, 0x00, 0x01},
		dst: mac.Addr{0x02, 0x4d, 0x4e, 0x00, 0x00, 0x02},
	}, nil
}

// MCS returns the link's modulation and coding scheme.
func (l *Link) MCS() phy.MCS { return l.tx.MCS() }

// Send carries one payload across the link and reports the outcome.
func (l *Link) Send(payload []byte) (*TransferReport, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("core: empty payload")
	}
	frame := &mac.Frame{Dest: l.dst, Src: l.src, BSSID: l.dst, Seq: l.seq, Payload: payload}
	rep := &TransferReport{Seq: l.seq, PayloadBits: 8 * len(payload)}
	l.seq = (l.seq + 1) & 0x0FFF

	psdu, err := frame.Encode()
	if err != nil {
		return nil, err
	}
	burst, err := l.tx.Transmit(psdu)
	if err != nil {
		return nil, err
	}
	rxs, err := l.ch.Apply(burst)
	if err != nil {
		return nil, err
	}
	res, err := l.rx.Receive(rxs)
	if err != nil {
		rep.SyncError = res == nil
		rep.PHYError = err
		rep.BitErrors = rep.PayloadBits
		if res != nil {
			rep.SNRdB = res.SNRdB
			rep.CFO = res.CFO
		}
		return rep, nil
	}
	rep.SNRdB = res.SNRdB
	rep.CFO = res.CFO
	// Bit errors against the transmitted PSDU (payload region only).
	rep.BitErrors = payloadBitErrors(psdu, res.PSDU, len(payload))
	got, err := mac.Decode(res.PSDU)
	if err != nil {
		return rep, nil // FCS failure: packet error, already counted
	}
	rep.Received = got.Payload
	rep.OK = got.Seq == frame.Seq && string(got.Payload) == string(payload)
	return rep, nil
}

// payloadBitErrors compares the payload region of the transmitted and
// received PSDUs.
func payloadBitErrors(txPSDU, rxPSDU []byte, payloadLen int) int {
	const hdr = 24 // mac header precedes the payload
	errs := 0
	for i := 0; i < payloadLen; i++ {
		txIdx := hdr + i
		var rxByte byte
		if txIdx < len(rxPSDU) {
			rxByte = rxPSDU[txIdx]
		}
		x := txPSDU[txIdx] ^ rxByte
		for ; x != 0; x &= x - 1 {
			errs++
		}
	}
	return errs
}
