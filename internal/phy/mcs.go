// Package phy assembles the complete IEEE 802.11n HT-mixed-format physical
// layer of the paper's MIMONet transceiver: the transmit chain (scrambling,
// BCC encoding, stream parsing, interleaving, constellation mapping, pilot
// insertion, OFDM modulation, cyclic shift diversity and the full preamble)
// and the receive chain (packet detection, synchronization, channel
// estimation, MIMO detection, phase tracking, soft-decision decoding and
// SIG-field parsing).
package phy

import (
	"fmt"

	"repro/internal/fec"
	"repro/internal/modem"
	"repro/internal/ofdm"
)

// MCS describes one 20 MHz, long-guard-interval, equal-modulation HT
// modulation and coding scheme (IEEE 802.11-2012 Tables 20-30..20-33).
type MCS struct {
	Index  int
	NSS    int
	Scheme modem.Scheme
	Rate   fec.Rate
}

// Lookup returns the MCS for index 0-31 (N_SS = index/8 + 1).
func Lookup(index int) (MCS, error) {
	if index < 0 || index > 31 {
		return MCS{}, fmt.Errorf("phy: MCS %d outside the supported 0-31 (equal modulation) range", index)
	}
	base := index % 8
	schemes := []modem.Scheme{
		modem.BPSK, modem.QPSK, modem.QPSK, modem.QAM16,
		modem.QAM16, modem.QAM64, modem.QAM64, modem.QAM64,
	}
	rates := []fec.Rate{
		fec.Rate1_2, fec.Rate1_2, fec.Rate3_4, fec.Rate1_2,
		fec.Rate3_4, fec.Rate2_3, fec.Rate3_4, fec.Rate5_6,
	}
	return MCS{
		Index:  index,
		NSS:    index/8 + 1,
		Scheme: schemes[base],
		Rate:   rates[base],
	}, nil
}

// NBPSCS returns the coded bits per subcarrier per spatial stream.
func (m MCS) NBPSCS() int { return m.Scheme.BitsPerSymbol() }

// NCBPSS returns the coded bits per OFDM symbol per spatial stream
// (52 data tones at 20 MHz).
func (m MCS) NCBPSS() int { return 52 * m.NBPSCS() }

// NCBPS returns the coded bits per OFDM symbol across all streams.
func (m MCS) NCBPS() int { return m.NCBPSS() * m.NSS }

// NDBPS returns the data bits per OFDM symbol.
func (m MCS) NDBPS() int {
	num, den := m.Rate.Fraction()
	return m.NCBPS() * num / den
}

// DataRateMbps returns the PHY data rate in Mbit/s (4 µs symbols, long GI).
func (m MCS) DataRateMbps() float64 {
	return float64(m.NDBPS()) / 4.0
}

// DataRateMbpsGI returns the PHY data rate with the chosen guard interval
// (3.6 µs symbols with the short GI).
func (m MCS) DataRateMbpsGI(shortGI bool) float64 {
	if shortGI {
		return float64(m.NDBPS()) / 3.6
	}
	return m.DataRateMbps()
}

// DataSymbolLen returns the data-portion OFDM symbol length in samples for
// the chosen guard interval.
func DataSymbolLen(shortGI bool) int {
	if shortGI {
		return ofdm.SymbolLenShort
	}
	return ofdm.SymbolLen
}

// NumSymbols returns the number of OFDM data symbols needed for a PSDU of
// the given length (SERVICE 16 bits + 8·octets + 6 tail bits, rounded up to
// whole symbols; IEEE 802.11-2012 eq. 20-32 with N_ES = 1, no STBC).
func (m MCS) NumSymbols(psduLen int) int {
	bits := 16 + 8*psduLen + 6
	nd := m.NDBPS()
	return (bits + nd - 1) / nd
}

func (m MCS) String() string {
	return fmt.Sprintf("MCS%d[%dss %v %v %.1fMbps]", m.Index, m.NSS, m.Scheme, m.Rate, m.DataRateMbps())
}

// PPDU timing constants (in samples at 20 MHz) for the HT-mixed format.
const (
	// Offsets are relative to the start of the L-STF.
	OffLSTF  = 0
	OffLLTF  = 160
	OffLSIG  = 320
	OffHTSIG = 400
	OffHTSTF = 560
	OffHTLTF = 640 // first HT-LTF; each is 80 samples
)

// PreambleLen returns the total preamble+SIG length in samples for nss
// spatial streams.
func PreambleLen(nss int) int {
	return OffHTLTF + 80*numLTF(nss)
}

func numLTF(nss int) int {
	switch nss {
	case 1:
		return 1
	case 2:
		return 2
	default:
		return 4
	}
}

// BurstLen returns the complete PPDU duration in samples (long GI).
func BurstLen(m MCS, psduLen int) int {
	return BurstLenGI(m, psduLen, false)
}

// BurstLenGI returns the complete PPDU duration in samples for the chosen
// guard interval (the preamble always uses the long GI).
func BurstLenGI(m MCS, psduLen int, shortGI bool) int {
	return PreambleLen(m.NSS) + m.NumSymbols(psduLen)*DataSymbolLen(shortGI)
}
