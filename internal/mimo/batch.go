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
	// ML enumeration state: the layer residuals y − Σ_{i≥j} h_i s_i of
	// streams 2…N_SS−1, the per-point metric minima of streams ≥ 1, one
	// kernel call's metrics, the prefix digits, stream 0's per-bit minima,
	// and the best metric and prefix with its closed-form stream-0
	// estimate u.
	res        []complex128
	ptMin      []float64
	cur        []float64
	digits     []int
	d0, d1     [6]float64
	bestMetric float64
	bestPrefix int
	bestU      complex128
}

// detectAppend is Detect for every family: DetectTo on the detector's own
// scratch sc into out (N_SS·N_BPSCS long), then each stream's N_BPSCS LLRs
// appended to llr[iss].
func detectAppend(d Detector, sc *DetectScratch, out []float64, nss int, llr [][]float64, k int, y []complex128) ([][]float64, error) {
	if len(llr) != nss {
		return llr, fmt.Errorf("mimo: %d LLR streams, want %d", len(llr), nss)
	}
	if err := d.DetectTo(sc, out, k, y); err != nil {
		return llr, err
	}
	nb := len(out) / nss
	for i := range llr {
		llr[i] = append(llr[i], out[i*nb:(i+1)*nb]...)
	}
	return llr, nil
}

func (d *linearDetector) NewScratch() *DetectScratch {
	return &DetectScratch{s: make([]complex128, d.nss)}
}

//mimonet:hot
func (d *linearDetector) DetectTo(sc *DetectScratch, out []float64, k int, y []complex128) error {
	if err := d.checkPrepared(k); err != nil {
		return err
	}
	nb := d.demapper.BitsPerSymbol()
	if len(out) < d.nss*nb {
		return fmt.Errorf("mimo: DetectTo out length %d, want %d", len(out), d.nss*nb)
	}
	d.w[k].MulVecInto(sc.s[:d.nss], y)
	for i := 0; i < d.nss; i++ {
		d.demapper.SoftTo(out[i*nb:(i+1)*nb], sc.s[i], d.noiseVar, d.csi[k][i])
	}
	return nil
}

func (d *mlDetector) NewScratch() *DetectScratch {
	m := len(d.points)
	return &DetectScratch{
		res:    make([]complex128, max(d.nss-2, 0)*d.nrx),
		ptMin:  make([]float64, (d.nss-1)*m),
		cur:    make([]float64, m),
		digits: make([]int, d.nss),
	}
}

//mimonet:hot
func (d *mlDetector) DetectTo(sc *DetectScratch, out []float64, k int, y []complex128) error {
	if len(out) < d.nss*d.nbpsc {
		return fmt.Errorf("mimo: DetectTo out length %d, want %d", len(out), d.nss*d.nbpsc)
	}
	if err := d.enumerate(sc, k, y); err != nil {
		return err
	}
	for b := 0; b < d.nbpsc; b++ {
		out[b] = (sc.d1[b] - sc.d0[b]) / d.noiseVar
	}
	m := len(d.points)
	for j := 1; j < d.nss; j++ {
		d.pointBits(out[j*d.nbpsc:(j+1)*d.nbpsc], sc.ptMin[(j-1)*m:j*m])
	}
	return nil
}

// enumerate is the ML kernel shared by Detect, DetectTo and Equalize (see
// mlDetector). Stream 1 is the fastest digit of the prefix: for each
// setting of streams 2…N_SS−1 the constellation's generated kernel
// (mlDetector.lord) runs stream 1's points against that setting's layer
// residual. Streams 2…N_SS−1 advance as an odometer that keeps the partial
// residual of each layer, so a digit change costs one subtraction per
// antenna. enumerate leaves stream 0's per-bit minima in sc.d0/sc.d1, the
// per-point minima of streams ≥ 1 in sc.ptMin, and the first prefix of
// least metric with its u in sc.bestPrefix/sc.bestU.
//
//mimonet:hot
func (d *mlDetector) enumerate(sc *DetectScratch, k int, y []complex128) error {
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
	inf := math.Inf(1)
	sc.d0 = [6]float64{inf, inf, inf, inf, inf, inf}
	sc.d1 = sc.d0
	sc.bestMetric = inf
	hs := d.hs[k*(nss-1)*m*nrx : (k+1)*(nss-1)*m*nrx]
	switch nss {
	case 1:
		d.lord(sc, k, y, d.zero, sc.cur[:1], 0)
		return nil
	case 2:
		// Stream 1's per-point minima are the kernel's metrics themselves.
		d.lord(sc, k, y, hs, sc.ptMin[:m], 0)
		return nil
	}
	if len(sc.res) < (nss-2)*nrx {
		sc.res = make([]complex128, (nss-2)*nrx)
	}
	// Layer j (2…N_SS−1) occupies res[(j−2)·nrx : (j−1)·nrx] and holds
	// y − Σ_{i≥j} h_i s_i; stream 1's kernel runs on layer 2.
	res := sc.res[:(nss-2)*nrx]
	digits := sc.digits[:nss]
	ptMin := sc.ptMin[:(nss-1)*m]
	for i := range ptMin {
		ptMin[i] = inf
	}
	cur := sc.cur[:m]
	clear(digits)
	for outer, j := 0, nss-1; ; outer++ {
		// Rebuild the layers below the highest digit that moved.
		for ; j >= 2; j-- {
			above := y[:nrx]
			if j < nss-1 {
				above = res[(j-1)*nrx : j*nrx]
			}
			layer, hp := res[(j-2)*nrx:(j-1)*nrx], hs[((j-1)*m+digits[j])*nrx:]
			for r := range layer {
				layer[r] = above[r] - hp[r]
			}
		}
		d.lord(sc, k, res[:nrx], hs[:m*nrx], cur, outer*m)
		// Fold the setting's metrics into the per-point minima: stream 1
		// point by point, streams ≥ 2 at their fixed digit.
		least := inf
		for p, v := range cur {
			if v < ptMin[p] {
				ptMin[p] = v
			}
			if v < least {
				least = v
			}
		}
		for j := 2; j < nss; j++ {
			if p := &ptMin[(j-1)*m+digits[j]]; least < *p {
				*p = least
			}
		}
		for j = 2; j < nss; j++ {
			if digits[j]++; digits[j] < m {
				break
			}
			digits[j] = 0
		}
		if j == nss {
			return nil
		}
	}
}

func (d *sicDetector) NewScratch() *DetectScratch {
	return &DetectScratch{
		s:    make([]complex128, 8),
		hard: make([]byte, 0, d.demapper.BitsPerSymbol()),
	}
}

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
		// Hard decision, reconstruct and cancel from the residual.
		sc.hard = d.demapper.HardOne(sc.hard[:0], s)
		point := d.mapper.MapOne(sc.hard)
		for r := 0; r < plan.h.Rows; r++ {
			resid[r] -= plan.h.At(r, stream) * point
		}
	}
	return nil
}
