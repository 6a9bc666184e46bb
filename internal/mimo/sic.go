package mimo

import (
	"fmt"
	"math"

	"repro/internal/cmatrix"
	"repro/internal/modem"
)

// sicDetector implements ordered successive interference cancellation
// (V-BLAST style): at each stage the stream with the best post-detection
// SINR under an MMSE front end is detected, sliced to the nearest
// constellation point, its contribution reconstructed and subtracted, and
// the channel column removed. SIC sits between the linear detectors and ML
// in both complexity and performance.
type sicDetector struct {
	nss      int
	mapper   *modem.Mapper
	demapper *modem.Demapper
	points   []complex128
	noiseVar float64
	// Per-subcarrier precomputed stage plans.
	plans []sicPlan
	// Detect runs on the detector's own scratch.
	sc  *DetectScratch
	out []float64
}

// sicPlan holds the detection order and per-stage weight rows for one
// subcarrier.
type sicPlan struct {
	h *cmatrix.Matrix
	// order[stage] is the stream index detected at that stage.
	order []int
	// w[stage] is the MMSE row used at that stage (length N_RX).
	w [][]complex128
	// csi[stage] is the effective CSI weight for the stage's LLRs.
	csi []float64
}

// NewSIC returns an MMSE-ordered successive-interference-cancellation
// detector for nss streams of the given constellation.
func NewSIC(scheme modem.Scheme, nss int) Detector {
	d := &sicDetector{
		nss:      nss,
		mapper:   modem.NewMapper(scheme),
		demapper: modem.NewDemapper(scheme),
		points:   modem.NewMapper(scheme).Points(),
		out:      make([]float64, nss*scheme.BitsPerSymbol()),
	}
	d.sc = d.NewScratch()
	return d
}

func (d *sicDetector) Name() string { return "sic" }

func (d *sicDetector) Prepare(h []*cmatrix.Matrix, noiseVar float64) error {
	if noiseVar <= 0 {
		noiseVar = 1e-12
	}
	d.noiseVar = noiseVar
	d.plans = make([]sicPlan, len(h))
	for k, hk := range h {
		if hk.Cols != d.nss {
			return fmt.Errorf("mimo: channel at subcarrier %d has %d columns, want %d", k, hk.Cols, d.nss)
		}
		if hk.Rows < d.nss {
			return fmt.Errorf("mimo: %d receive antennas cannot SIC-separate %d streams", hk.Rows, d.nss)
		}
		plan, err := buildSICPlan(hk, noiseVar)
		if err != nil {
			return fmt.Errorf("mimo: subcarrier %d: %w", k, err)
		}
		d.plans[k] = plan
	}
	return nil
}

// buildSICPlan computes the MMSE detection order and stage weights.
func buildSICPlan(h *cmatrix.Matrix, noiseVar float64) (sicPlan, error) {
	nss := h.Cols
	plan := sicPlan{h: h}
	remaining := make([]int, nss) // remaining[i] = original stream index of column i
	for i := range remaining {
		remaining[i] = i
	}
	cur := h.Clone()
	for stage := 0; stage < nss; stage++ {
		// MMSE weight for the reduced system.
		hh := cur.Hermitian()
		gram := cmatrix.Mul(hh, cur)
		gram.AddScaledIdentity(complex(noiseVar, 0))
		gi, err := gram.Inverse()
		if err != nil {
			return plan, err
		}
		w := cmatrix.Mul(gi, hh)
		b := cmatrix.Mul(w, cur)
		// Pick the column with the smallest post-detection error variance.
		bestCol, bestVar := -1, math.Inf(1)
		vars := make([]float64, cur.Cols)
		for i := 0; i < cur.Cols; i++ {
			bii := b.At(i, i)
			if bii == 0 {
				return plan, fmt.Errorf("zero MMSE bias in SIC ordering")
			}
			var interf float64
			for j := 0; j < cur.Cols; j++ {
				if j == i {
					continue
				}
				r := b.At(i, j) / bii
				interf += real(r)*real(r) + imag(r)*imag(r)
			}
			var nrow float64
			for j := 0; j < cur.Rows; j++ {
				r := w.At(i, j) / bii
				nrow += real(r)*real(r) + imag(r)*imag(r)
			}
			vars[i] = noiseVar*nrow + interf
			if vars[i] < bestVar {
				bestCol, bestVar = i, vars[i]
			}
		}
		// Record the unbiased weight row for the chosen column.
		bii := b.At(bestCol, bestCol)
		row := make([]complex128, cur.Rows)
		for j := 0; j < cur.Rows; j++ {
			row[j] = w.At(bestCol, j) / bii
		}
		if bestVar <= 0 {
			bestVar = 1e-12
		}
		plan.order = append(plan.order, remaining[bestCol])
		plan.w = append(plan.w, row)
		plan.csi = append(plan.csi, noiseVar/bestVar)
		// Remove the detected column.
		remaining = append(remaining[:bestCol], remaining[bestCol+1:]...)
		cur = dropColumn(cur, bestCol)
	}
	return plan, nil
}

func dropColumn(m *cmatrix.Matrix, col int) *cmatrix.Matrix {
	if m.Cols == 1 {
		// Stage bookkeeping never dereferences the empty matrix.
		return cmatrix.New(m.Rows, 1)
	}
	out := cmatrix.New(m.Rows, m.Cols-1)
	for r := 0; r < m.Rows; r++ {
		j := 0
		for c := 0; c < m.Cols; c++ {
			if c == col {
				continue
			}
			out.Set(r, j, m.At(r, c))
			j++
		}
	}
	return out
}

func (d *sicDetector) Detect(llr [][]float64, k int, y []complex128) ([][]float64, error) {
	return detectAppend(d, d.sc, d.out, d.nss, llr, k, y)
}

func (d *sicDetector) Equalize(dst []complex128, k int, y []complex128) error {
	if d.plans == nil {
		return fmt.Errorf("mimo: sic detector used before Prepare")
	}
	if len(dst) != d.nss {
		return fmt.Errorf("mimo: Equalize dst length %d, want %d", len(dst), d.nss)
	}
	plan := &d.plans[k]
	resid := append([]complex128(nil), y...)
	for stage, stream := range plan.order {
		var s complex128
		for j, w := range plan.w[stage] {
			s += w * resid[j]
		}
		dst[stream] = s
		hard := d.demapper.HardOne(nil, s)
		point := d.mapper.MapOne(hard)
		for r := 0; r < plan.h.Rows; r++ {
			resid[r] -= plan.h.At(r, stream) * point
		}
	}
	return nil
}
