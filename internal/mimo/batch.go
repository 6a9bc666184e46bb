package mimo

import (
	"fmt"
	"math"
)

// DetectScratch holds the mutable per-call state of a detector so that one
// Prepared detector — whose per-subcarrier weights are read-only after
// Prepare — can serve many goroutines at once. The batched receive path
// creates one scratch per worker; Detect/Equalize keep using the detector's
// own embedded scratch and remain single-goroutine.
type DetectScratch struct {
	s    []complex128 // linear filter output / SIC cancellation residual
	hard []byte       // SIC per-stage hard-decision bits
	y32  []complex64  // narrow kernel: single-precision received vector
	// ML search state: the partial residuals y − Σ_{i≥j} h_i s_i of the
	// enumerated streams, the per-point metric minima of streams ≥ 1, the
	// prefix digits, stream 0's per-bit minima, and the best prefix with
	// its closed-form stream-0 estimate u.
	res        []complex128
	ptMin      []float64
	digits     []int
	d0, d1     [6]float64
	bestPrefix int
	bestU      complex128
}

// BatchDetector is implemented by every detector family. DetectTo is the
// scratch-explicit form of Detect used by the sharded batch pipeline: it
// writes the N_SS·N_BPSCS LLRs of subcarrier k stream-major into
// out[iss·N_BPSCS+b], producing values bit-identical to Detect's appends.
type BatchDetector interface {
	Detector
	// NewScratch returns scratch sized for this detector's configuration.
	NewScratch() *DetectScratch
	// BitsPerStream returns N_BPSCS, the per-stream LLR count of DetectTo.
	BitsPerStream() int
	DetectTo(sc *DetectScratch, out []float64, k int, y []complex128) error
}

func (d *linearDetector) NewScratch() *DetectScratch {
	return &DetectScratch{s: make([]complex128, d.nss), y32: make([]complex64, 8)}
}

func (d *linearDetector) BitsPerStream() int { return d.demapper.BitsPerSymbol() }

//mimonet:hot
func (d *linearDetector) DetectTo(sc *DetectScratch, out []float64, k int, y []complex128) error {
	if err := d.checkPrepared(k); err != nil {
		return err
	}
	nb := d.demapper.BitsPerSymbol()
	if len(out) < d.nss*nb {
		return fmt.Errorf("mimo: DetectTo out length %d, want %d", len(out), d.nss*nb)
	}
	if d.narrow {
		return d.detectToNarrow(sc, out, k, y)
	}
	d.w[k].MulVecInto(sc.s[:d.nss], y)
	for i := 0; i < d.nss; i++ {
		d.demapper.SoftTo(out[i*nb:(i+1)*nb], sc.s[i], d.noiseVar, d.csi[k][i])
	}
	return nil
}

func (d *mlDetector) NewScratch() *DetectScratch {
	return &DetectScratch{
		res:    make([]complex128, d.nss*d.nrx),
		ptMin:  make([]float64, (d.nss-1)*len(d.points)),
		digits: make([]int, d.nss),
	}
}

func (d *mlDetector) BitsPerStream() int { return d.nbpsc }

//mimonet:hot
func (d *mlDetector) DetectTo(sc *DetectScratch, out []float64, k int, y []complex128) error {
	if len(out) < d.nss*d.nbpsc {
		return fmt.Errorf("mimo: DetectTo out length %d, want %d", len(out), d.nss*d.nbpsc)
	}
	if err := d.search(sc, k, y); err != nil {
		return err
	}
	for b := 0; b < d.nbpsc; b++ {
		out[b] = (sc.d1[b] - sc.d0[b]) / d.noiseVar
	}
	m := len(d.points)
	for j := 1; j < d.nss; j++ {
		pm := sc.ptMin[(j-1)*m : j*m]
		for b := 0; b < d.nbpsc; b++ {
			d0, d1 := math.Inf(1), math.Inf(1)
			for p, v := range pm {
				if (p>>uint(b))&1 == 0 {
					d0 = min(d0, v)
				} else {
					d1 = min(d1, v)
				}
			}
			out[j*d.nbpsc+b] = (d1 - d0) / d.noiseVar
		}
	}
	return nil
}

// search is the ML kernel shared by Detect, DetectTo and Equalize (see
// mlDetector). It enumerates the prefixes of streams 1…N_SS−1 as an
// odometer with stream 1 the fastest digit, keeping the partial residual
// of each stream layer so a digit change costs one subtraction per
// antenna. It leaves stream 0's per-bit minima in sc.d0/sc.d1, the
// per-point minima of streams ≥ 1 in sc.ptMin, and the best prefix with
// its u in sc.bestPrefix/sc.bestU.
//
//mimonet:hot
func (d *mlDetector) search(sc *DetectScratch, k int, y []complex128) error {
	if d.g == nil {
		return fmt.Errorf("mimo: ml detector used before Prepare")
	}
	if k < 0 || k >= len(d.g) {
		return fmt.Errorf("mimo: subcarrier %d out of range", k)
	}
	nrx, nss, m := d.nrx, d.nss, len(d.points)
	if len(y) < nrx {
		return fmt.Errorf("mimo: %d received samples, want %d", len(y), nrx)
	}
	if len(sc.res) < nss*nrx {
		sc.res = make([]complex128, nss*nrx)
	}
	g := d.g[k]
	w0 := d.w0[k*nrx : (k+1)*nrx]
	hs := d.hs[k*(nss-1)*m*nrx : (k+1)*(nss-1)*m*nrx]
	bitsI, bitsQ := d.nbpsc-d.nbpsc/2, d.nbpsc/2
	inf := math.Inf(1)
	d0, d1 := [6]float64{inf, inf, inf, inf, inf, inf}, [6]float64{inf, inf, inf, inf, inf, inf}
	ptMin := sc.ptMin[:(nss-1)*m]
	for i := range ptMin {
		ptMin[i] = inf
	}
	digits := sc.digits[:nss]
	// Layer j (1…nss) occupies res[(j−1)·nrx : j·nrx] and holds
	// y − Σ_{i≥j} h_i s_i; layer nss is y itself and layer 1 is e.
	res := sc.res[:nss*nrx]
	copy(res[(nss-1)*nrx:], y[:nrx])
	setLayer := func(j int) {
		lj, above := res[(j-1)*nrx:j*nrx], res[j*nrx:(j+1)*nrx]
		hp := hs[((j-1)*m+digits[j])*nrx:]
		for r := range lj {
			lj[r] = above[r] - hp[r]
		}
	}
	for j := nss - 1; j >= 1; j-- {
		digits[j] = 0
		setLayer(j)
	}
	bestMetric := inf
	for pfx := 0; ; pfx++ {
		var ee float64
		var u complex128
		for r, v := range res[:nrx] {
			ee += real(v)*real(v) + imag(v)*imag(v)
			u += w0[r] * v
		}
		c := ee - g*(real(u)*real(u)+imag(u)*imag(u))
		var mI0, mI1, mQ0, mQ1 [3]float64
		minI := axisMins(d.levI, real(u), mI0[:bitsI], mI1[:bitsI])
		minQ := axisMins(d.levQ, imag(u), mQ0[:bitsQ], mQ1[:bitsQ])
		best := c + g*(minI+minQ)
		for b := 0; b < bitsI; b++ {
			d0[b] = min(d0[b], c+g*(mI0[b]+minQ))
			d1[b] = min(d1[b], c+g*(mI1[b]+minQ))
		}
		for b := 0; b < bitsQ; b++ {
			d0[bitsI+b] = min(d0[bitsI+b], c+g*(minI+mQ0[b]))
			d1[bitsI+b] = min(d1[bitsI+b], c+g*(minI+mQ1[b]))
		}
		for j := 1; j < nss; j++ {
			if p := &ptMin[(j-1)*m+digits[j]]; best < *p {
				*p = best
			}
		}
		if best < bestMetric {
			bestMetric, sc.bestPrefix, sc.bestU = best, pfx, u
		}
		// Advance the odometer and rebuild the layers below the highest
		// digit that moved.
		j := 1
		for ; j < nss; j++ {
			if digits[j]++; digits[j] < m {
				break
			}
			digits[j] = 0
		}
		if j == nss {
			break
		}
		for ; j >= 1; j-- {
			setLayer(j)
		}
	}
	sc.d0, sc.d1 = d0, d1
	return nil
}

// axisMins returns the smallest squared distance from v to the PAM levels
// of one axis and writes, for each axis bit b, the smallest distance over
// levels whose index has bit b clear (m0[b]) or set (m1[b]).
func axisMins(levels []float64, v float64, m0, m1 []float64) float64 {
	inf := math.Inf(1)
	for b := range m0 {
		m0[b], m1[b] = inf, inf
	}
	best := inf
	for pat, lv := range levels {
		dd := (v - lv) * (v - lv)
		best = min(best, dd)
		for b := range m0 {
			if (pat>>uint(b))&1 == 0 {
				m0[b] = min(m0[b], dd)
			} else {
				m1[b] = min(m1[b], dd)
			}
		}
	}
	return best
}

func (d *sicDetector) NewScratch() *DetectScratch {
	return &DetectScratch{
		s:    make([]complex128, 8),
		hard: make([]byte, 0, d.demapper.BitsPerSymbol()),
	}
}

func (d *sicDetector) BitsPerStream() int { return d.demapper.BitsPerSymbol() }

//mimonet:hot
func (d *sicDetector) DetectTo(sc *DetectScratch, out []float64, k int, y []complex128) error {
	if d.plans == nil {
		return fmt.Errorf("mimo: sic detector used before Prepare")
	}
	if k < 0 || k >= len(d.plans) {
		return fmt.Errorf("mimo: subcarrier %d out of range", k)
	}
	nb := d.demapper.BitsPerSymbol()
	if len(out) < d.nss*nb {
		return fmt.Errorf("mimo: DetectTo out length %d, want %d", len(out), d.nss*nb)
	}
	plan := &d.plans[k]
	if cap(sc.s) < len(y) {
		sc.s = make([]complex128, len(y))
	}
	resid := sc.s[:len(y)]
	copy(resid, y)
	for stage, stream := range plan.order {
		var s complex128
		for j, w := range plan.w[stage] {
			s += w * resid[j]
		}
		d.demapper.SoftTo(out[stream*nb:(stream+1)*nb], s, d.noiseVar, plan.csi[stage])
		// Hard decision, reconstruct and cancel from the residual, exactly
		// as in Detect.
		sc.hard = d.demapper.HardOne(sc.hard[:0], s)
		point := d.mapper.MapOne(sc.hard)
		for r := 0; r < plan.h.Rows; r++ {
			resid[r] -= plan.h.At(r, stream) * point
		}
	}
	return nil
}
