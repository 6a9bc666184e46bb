package mimo

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/cmatrix"
	"repro/internal/modem"
)

// Detector separates spatially multiplexed streams on one subcarrier.
//
// The lifecycle mirrors a real receiver: Prepare is called once per packet
// with the channel estimate for every data subcarrier (the channel is
// assumed static over a packet, as in the paper's indoor setting), then
// detection runs per subcarrier per OFDM symbol. Implementations precompute
// per-subcarrier weights in Prepare so detection stays cheap.
//
// DetectTo writes the N_SS·N_BPSCS log-likelihood ratios of subcarrier k
// stream-major into out[iss·N_BPSCS+b]. Its mutable state lives in sc, so
// one prepared detector serves many goroutines, each with its own
// NewScratch. Detect is DetectTo on the detector's own scratch: it appends
// each stream's N_BPSCS LLRs to llr[iss] and returns the extended slices.
// Equalize writes the per-stream symbol estimates for EVM and SNR
// measurement. Detect and Equalize are single-goroutine.
type Detector interface {
	Name() string
	Prepare(h []*cmatrix.Matrix, noiseVar float64) error
	// NewScratch returns scratch sized for this detector's configuration.
	NewScratch() *DetectScratch
	DetectTo(sc *DetectScratch, out []float64, k int, y []complex128) error
	Detect(llr [][]float64, k int, y []complex128) ([][]float64, error)
	Equalize(dst []complex128, k int, y []complex128) error
}

// linearDetector implements ZF and MMSE, which differ only in the weight
// matrix computed during Prepare.
//
// Prepare runs once per packet (and once per symbol under decision-directed
// tracking), so all of its working matrices are held on the detector and
// reused: after the first packet of a steady-state link, Prepare allocates
// nothing.
type linearDetector struct {
	name     string
	mmse     bool
	nss      int
	demapper *modem.Demapper
	noiseVar float64
	// Per-subcarrier state.
	w   []*cmatrix.Matrix // weight matrix
	csi [][]float64       // per-stream effective CSI weight (1/noise-enhancement)
	// Detect runs on the detector's own scratch.
	sc  *DetectScratch
	out []float64
	// Prepare scratch, reused across calls.
	hh, gram, gi, work, bias *cmatrix.Matrix
}

// NewZF returns a zero-forcing detector (W = (HᴴH)⁻¹Hᴴ) for nss streams of
// the given constellation.
func NewZF(scheme modem.Scheme, nss int) Detector {
	return newLinear("zf", false, scheme, nss)
}

// NewMMSE returns an MMSE detector (W = (HᴴH + σ²I)⁻¹Hᴴ with per-stream
// bias removal) for nss streams of the given constellation.
func NewMMSE(scheme modem.Scheme, nss int) Detector {
	return newLinear("mmse", true, scheme, nss)
}

func newLinear(name string, mmse bool, scheme modem.Scheme, nss int) *linearDetector {
	d := &linearDetector{name: name, mmse: mmse, nss: nss, demapper: modem.NewDemapper(scheme),
		out: make([]float64, nss*scheme.BitsPerSymbol())}
	d.sc = d.NewScratch()
	return d
}

func (d *linearDetector) Name() string { return d.name }

func (d *linearDetector) Prepare(h []*cmatrix.Matrix, noiseVar float64) error {
	if noiseVar <= 0 {
		noiseVar = 1e-12
	}
	d.noiseVar = noiseVar
	if cap(d.w) >= len(h) {
		d.w = d.w[:len(h)]
		d.csi = d.csi[:len(h)]
	} else {
		d.w = make([]*cmatrix.Matrix, len(h))
		d.csi = make([][]float64, len(h))
	}
	for k, hk := range h {
		if hk.Cols != d.nss {
			return fmt.Errorf("mimo: channel at subcarrier %d has %d columns, want %d", k, hk.Cols, d.nss)
		}
		if hk.Rows < d.nss {
			return fmt.Errorf("mimo: %d receive antennas cannot separate %d streams linearly", hk.Rows, d.nss)
		}
		d.hh = hk.HermitianInto(d.hh)
		hh := d.hh
		d.gram = cmatrix.MulInto(d.gram, hh, hk)
		if d.mmse {
			d.gram.AddScaledIdentity(complex(noiseVar, 0))
		}
		gi, work, err := d.gram.InverseInto(d.gi, d.work)
		d.gi, d.work = gi, work
		if err != nil {
			return fmt.Errorf("mimo: subcarrier %d: %w", k, err)
		}
		w := cmatrix.MulInto(d.w[k], gi, hh)
		csi := d.csi[k]
		if cap(csi) >= d.nss {
			csi = csi[:d.nss]
		} else {
			csi = make([]float64, d.nss)
		}
		if d.mmse {
			// Unbias: scale row i by 1/(WH)_{ii}; the post-detection SINR of
			// stream i is 1/(σ²·Gi_{ii}) − 1 · ... derive from the unbiased
			// residual: with B = WH, estimate ŝ_i = B_ii s_i + Σ_{j≠i} B_ij s_j + (Wn)_i.
			d.bias = cmatrix.MulInto(d.bias, w, hk)
			b := d.bias
			for i := 0; i < d.nss; i++ {
				bii := b.At(i, i)
				if bii == 0 {
					return fmt.Errorf("mimo: subcarrier %d stream %d: zero MMSE bias term", k, i)
				}
				// Residual interference power after unbiasing.
				var interf float64
				for j := 0; j < d.nss; j++ {
					if j == i {
						continue
					}
					r := b.At(i, j) / bii
					interf += real(r)*real(r) + imag(r)*imag(r)
				}
				// Noise power: σ²·‖row_i(W)/B_ii‖².
				var nrow float64
				for j := 0; j < hk.Rows; j++ {
					r := w.At(i, j) / bii
					nrow += real(r)*real(r) + imag(r)*imag(r)
				}
				v := noiseVar*nrow + interf
				if v <= 0 {
					v = 1e-12
				}
				csi[i] = noiseVar / v
				// Fold the unbiasing into the weight row.
				for j := 0; j < hk.Rows; j++ {
					w.Set(i, j, w.At(i, j)/bii)
				}
			}
		} else {
			// ZF: noise on stream i is σ²·‖row_i(W)‖² = σ²·[(HᴴH)⁻¹]_{ii}.
			for i := 0; i < d.nss; i++ {
				var nrow float64
				for j := 0; j < hk.Rows; j++ {
					r := w.At(i, j)
					nrow += real(r)*real(r) + imag(r)*imag(r)
				}
				if nrow <= 0 {
					nrow = 1e-12
				}
				csi[i] = 1 / nrow
			}
		}
		d.w[k] = w
		d.csi[k] = csi
	}
	return nil
}

func (d *linearDetector) checkPrepared(k int) error {
	if d.w == nil {
		return fmt.Errorf("mimo: %s detector used before Prepare", d.name)
	}
	if k < 0 || k >= len(d.w) {
		return fmt.Errorf("mimo: subcarrier %d out of range [0,%d)", k, len(d.w))
	}
	return nil
}

func (d *linearDetector) Detect(llr [][]float64, k int, y []complex128) ([][]float64, error) {
	return detectAppend(d, d.sc, d.out, d.nss, llr, k, y)
}

func (d *linearDetector) Equalize(dst []complex128, k int, y []complex128) error {
	if err := d.checkPrepared(k); err != nil {
		return err
	}
	if len(dst) != d.nss {
		return fmt.Errorf("mimo: Equalize dst length %d, want %d", len(dst), d.nss)
	}
	d.w[k].MulVecInto(dst, y)
	return nil
}

// mlDetector computes exact joint maximum-likelihood max-log LLRs without
// searching the joint constellation. It enumerates only streams 1…N_SS−1
// (M^(N_SS−1) prefixes) and solves stream 0 in closed form, the layered
// orthogonal lattice idea (LORD, Siti & Fuchs, ICC 2006):
//
// For a prefix with residual e = y − Σ_{j≥1} h_j s_j, completing the square
// gives ‖e − h₀x‖² = c + g·|u − x|² with g = ‖h₀‖², u = h₀ᴴe/g and
// c = ‖e‖² − g|u|². The 802.11 Gray QAM point index splits into I bits
// (0…axis−1) and Q bits (axis…2·axis−1) that select independent PAM levels,
// so |u − x|² is a sum of one I and one Q level distance. Per-axis level
// distances therefore yield, per prefix, both the prefix's best metric
// (folded into a per-point minimum for streams ≥ 1) and stream 0's per-bit
// minima. The result is the exhaustive search's max-log LLR for every bit,
// at any N_RX (N_RX < N_SS included), for M^(N_SS−1)·(2√M + N_BPSCS) work
// per tone instead of M^N_SS·N_SS·N_RX. A dead column (g = 0) sets u = 0,
// which makes stream 0's LLRs exactly zero.
//
// The per-point work runs in straight-line kernels generated per
// constellation (lord_gen.go, written by internal/lordgen).
//
// Construction rejects joint constellations beyond 2^16 hypotheses.
type mlDetector struct {
	nss      int
	nbpsc    int
	points   []complex128
	levI     []float64 // I-axis levels indexed by the point index's I bits
	levQ     []float64 // Q-axis levels indexed by its Q bits ({0} for BPSK)
	noiseVar float64
	nrx      int
	// Per-subcarrier state from Prepare, flattened and reused across calls:
	// g[k] = ‖h₀‖², w0[k·nrx+r] = conj(h₀[r])/g (0 when g = 0), and
	// hs[((k·(nss−1)+j−1)·M+p)·nrx+r] = h_j[r]·points[p] for streams j ≥ 1.
	g  []float64
	w0 []complex128
	hs []complex128
	// zero stands in for stream 1's products when N_SS = 1: one hypothesis
	// whose residual is y itself (y − 0 is exact).
	zero []complex128
	// Detect and Equalize run on the detector's own scratch.
	sc  *DetectScratch
	out []float64
}

//go:generate go run ./internal/lordgen

// NewML returns a maximum-likelihood joint detector, or an error when the
// joint constellation exceeds 2^16 hypotheses.
func NewML(scheme modem.Scheme, nss int) (Detector, error) {
	if err := checkStreams(nss); err != nil {
		return nil, err
	}
	nbpsc := scheme.BitsPerSymbol()
	total := nss * nbpsc
	if total > 16 {
		return nil, fmt.Errorf("mimo: ML with %d streams of %v needs 2^%d hypotheses; not supported", nss, scheme, total)
	}
	points := modem.NewMapper(scheme).Points()
	bitsI := nbpsc - nbpsc/2
	levI := make([]float64, 1<<uint(bitsI))
	for p := range levI {
		levI[p] = real(points[p])
	}
	levQ := make([]float64, 1<<uint(nbpsc/2))
	for q := range levQ {
		levQ[q] = imag(points[q<<uint(bitsI)])
	}
	d := &mlDetector{
		nss:    nss,
		nbpsc:  nbpsc,
		points: points,
		levI:   levI,
		levQ:   levQ,
		out:    make([]float64, total),
	}
	d.sc = d.NewScratch()
	return d, nil
}

func (d *mlDetector) Name() string { return "ml" }

func (d *mlDetector) Prepare(h []*cmatrix.Matrix, noiseVar float64) error {
	nrx := 0
	for k, hk := range h {
		if hk.Cols != d.nss {
			return fmt.Errorf("mimo: channel at subcarrier %d has %d columns, want %d", k, hk.Cols, d.nss)
		}
		if k > 0 && hk.Rows != nrx {
			return fmt.Errorf("mimo: channel at subcarrier %d has %d rows, want %d", k, hk.Rows, nrx)
		}
		nrx = hk.Rows
	}
	if noiseVar <= 0 {
		noiseVar = 1e-12
	}
	m := len(d.points)
	d.g = resize(d.g, len(h))
	d.w0 = resize(d.w0, len(h)*nrx)
	d.hs = resize(d.hs, len(h)*(d.nss-1)*m*nrx)
	for k, hk := range h {
		var g float64
		for r := 0; r < nrx; r++ {
			v := hk.At(r, 0)
			g += real(v)*real(v) + imag(v)*imag(v)
		}
		d.g[k] = g
		w0 := d.w0[k*nrx : (k+1)*nrx]
		for r := range w0 {
			w0[r] = 0
			if g > 0 {
				w0[r] = cmplx.Conj(hk.At(r, 0)) / complex(g, 0)
			}
		}
		for j := 1; j < d.nss; j++ {
			base := (k*(d.nss-1) + j - 1) * m * nrx
			for p, pt := range d.points {
				for r := 0; r < nrx; r++ {
					d.hs[base+p*nrx+r] = hk.At(r, j) * pt
				}
			}
		}
	}
	d.zero = resize(d.zero, nrx)
	d.sc.res = resize(d.sc.res, max(d.nss-2, 0)*nrx)
	d.nrx = nrx
	d.noiseVar = noiseVar
	return nil
}

// resize returns s resliced to n elements, reallocating only when its
// capacity is short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func (d *mlDetector) Detect(llr [][]float64, k int, y []complex128) ([][]float64, error) {
	return detectAppend(d, d.sc, d.out, d.nss, llr, k, y)
}

// Equalize returns the hard joint-ML decision points: the best prefix's
// streams 1…N_SS−1 and stream 0 sliced per axis from that prefix's u.
func (d *mlDetector) Equalize(dst []complex128, k int, y []complex128) error {
	if len(dst) != d.nss {
		return fmt.Errorf("mimo: Equalize dst length %d, want %d", len(dst), d.nss)
	}
	if err := d.enumerate(d.sc, k, y); err != nil {
		return err
	}
	sc := d.sc
	m := len(d.points)
	rem := sc.bestPrefix
	for j := 1; j < d.nss; j++ {
		dst[j] = d.points[rem%m]
		rem /= m
	}
	iPat := nearestLevel(d.levI, real(sc.bestU))
	qPat := nearestLevel(d.levQ, imag(sc.bestU))
	dst[0] = d.points[iPat|qPat<<uint(d.nbpsc-d.nbpsc/2)]
	return nil
}

// nearestLevel returns the index of the level closest to v.
func nearestLevel(levels []float64, v float64) int {
	best, bestDist := 0, math.Inf(1)
	for i, lv := range levels {
		if dd := (v - lv) * (v - lv); dd < bestDist {
			best, bestDist = i, dd
		}
	}
	return best
}

// checkStreams rejects a stream count outside 802.11n's 1…4.
func checkStreams(nss int) error {
	if nss < 1 || nss > 4 {
		return fmt.Errorf("mimo: %d spatial streams outside 1…4", nss)
	}
	return nil
}

// NewDetector constructs a detector by name: "zf", "mmse", "sic" or "ml",
// for 1…4 streams.
func NewDetector(name string, scheme modem.Scheme, nss int) (Detector, error) {
	if err := checkStreams(nss); err != nil {
		return nil, err
	}
	switch name {
	case "zf":
		return NewZF(scheme, nss), nil
	case "mmse":
		return NewMMSE(scheme, nss), nil
	case "sic":
		return NewSIC(scheme, nss), nil
	case "ml":
		return NewML(scheme, nss)
	default:
		return nil, fmt.Errorf("mimo: unknown detector %q (want zf, mmse, sic or ml)", name)
	}
}
