package mumimo

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/cmatrix"
)

// Downlink precoding. The composite channel of a transmission group stacks
// each member's N_RX×N_TX channel matrix row-wise into H (K×N_TX, K ≤
// N_TX). Zero-forcing inverts it — W = Hᴴ(HHᴴ)⁻¹ with unit-norm columns —
// so station k's receive stream sees only its own column's signal.

// ZFPrecode returns the zero-forcing precoder for a stacked channel h
// (K rows of receive streams × N_TX transmit antennas, K ≤ N_TX): the
// N_TX×K matrix W = Hᴴ(HHᴴ)⁻¹ with each column scaled to unit norm, so
// H·W is diagonal and the per-stream transmit power is explicit.
func ZFPrecode(h *cmatrix.Matrix) (*cmatrix.Matrix, error) {
	if h == nil || h.Rows < 1 {
		return nil, fmt.Errorf("mumimo: empty channel")
	}
	if h.Rows > h.Cols {
		return nil, fmt.Errorf("mumimo: %d receive streams exceed %d transmit antennas", h.Rows, h.Cols)
	}
	gram := cmatrix.Mul(h, h.Hermitian()) // K×K
	inv, err := gram.Inverse()
	if err != nil {
		return nil, fmt.Errorf("mumimo: group channel is rank-deficient: %w", err)
	}
	w := cmatrix.Mul(h.Hermitian(), inv) // N_TX×K
	if err := normalizeColumns(w); err != nil {
		return nil, err
	}
	return w, nil
}

// StackChannels stacks per-station channel matrices row-wise into the
// composite group channel ZFPrecode inverts.
func StackChannels(stations []*cmatrix.Matrix) *cmatrix.Matrix {
	if len(stations) == 0 {
		return nil
	}
	rows := 0
	for _, h := range stations {
		rows += h.Rows
	}
	out := cmatrix.New(rows, stations[0].Cols)
	r := 0
	for _, h := range stations {
		copy(out.Data[r*out.Cols:], h.Data)
		r += h.Rows
	}
	return out
}

// PostPrecodingSINR returns each stream's SINR (linear) when the stacked
// group channel h is driven through precoder w at total transmit SNR snr:
// the effective channel E = H·W splits into the diagonal's signal and the
// off-diagonal leakage, with transmit power divided equally across the K
// streams and unit-SNR-normalized noise at each receive stream.
func PostPrecodingSINR(h, w *cmatrix.Matrix, snr float64) ([]float64, error) {
	if snr <= 0 {
		return nil, fmt.Errorf("mumimo: SNR must be positive")
	}
	if h.Cols != w.Rows || h.Rows != w.Cols {
		return nil, fmt.Errorf("mumimo: channel %dx%d incompatible with precoder %dx%d", h.Rows, h.Cols, w.Rows, w.Cols)
	}
	e := cmatrix.Mul(h, w) // K×K effective channel
	k := float64(e.Rows)
	out := make([]float64, e.Rows)
	for s := 0; s < e.Rows; s++ {
		var sig, leak float64
		for j := 0; j < e.Cols; j++ {
			p := sqAbs(e.At(s, j)) / k
			if j == s {
				sig = p
			} else {
				leak += p
			}
		}
		out[s] = sig / (leak + 1/snr)
	}
	return out, nil
}

// Orthogonality measures how separable two stations' channels are: the
// normalized Frobenius inner product |tr(A·Bᴴ)| / (‖A‖·‖B‖), 0 for
// orthogonal row spaces (ideal co-scheduling partners) up to 1 for parallel
// channels (precoding between them burns all the array gain).
func Orthogonality(a, b *cmatrix.Matrix) float64 {
	if a == nil || b == nil || len(a.Data) != len(b.Data) {
		return 1 // incomparable channels: treat as inseparable
	}
	var dot complex128
	for i := range a.Data {
		dot += a.Data[i] * cmplx.Conj(b.Data[i])
	}
	na, nb := a.FrobeniusNorm(), b.FrobeniusNorm()
	if na == 0 || nb == 0 {
		return 1
	}
	return cmplx.Abs(dot) / (na * nb)
}

// normalizeColumns scales each column of w to unit norm.
func normalizeColumns(w *cmatrix.Matrix) error {
	for j := 0; j < w.Cols; j++ {
		var n float64
		for i := 0; i < w.Rows; i++ {
			n += sqAbs(w.At(i, j))
		}
		n = math.Sqrt(n)
		if n < 1e-30 || math.IsNaN(n) || math.IsInf(n, 0) {
			return fmt.Errorf("mumimo: precoder column %d collapsed (norm %g)", j, n)
		}
		for i := 0; i < w.Rows; i++ {
			w.Set(i, j, w.At(i, j)/complex(n, 0))
		}
	}
	return nil
}

func sqAbs(v complex128) float64 { return real(v)*real(v) + imag(v)*imag(v) }
