package sounding

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/cmatrix"
)

// Quantized CSI feedback: the compact wire form a station reports to a
// precoding access point, in the spirit of 802.11's compressed beamforming
// report. Each kept subcarrier's channel matrix is encoded with one float32
// scale (the per-tone peak magnitude) and one byte of magnitude plus one
// byte of phase per complex entry — 8-bit polar quantization. A Group
// factor g keeps every g-th tone and lets Dequantize hold the value across
// the skipped neighbours (channels are smooth across adjacent tones), so a
// 4×4 report still fits one radio data frame.
//
// Layout (big-endian):
//
//	version(1)=1 rows(1) cols(1) group(1) nsc(2)
//	then per kept tone: scale float32(4), rows·cols × (mag(1), phase(1))
//
// A dead tone encodes scale 0 and dequantizes to the zero matrix, which
// Analyze degrades over gracefully.
const feedbackVersion = 1

const feedbackHeaderLen = 6

// ErrNonFiniteScale rejects a report whose per-tone scale is NaN or
// infinite: its matrices would carry NaN entries into the CSI cache, and
// from there into capacity and grouping decisions.
var ErrNonFiniteScale = errors.New("sounding: feedback scale is not finite")

// FeedbackBytes returns the encoded size of a quantized report for the
// given channel shape and grouping factor.
func FeedbackBytes(rows, cols, nsc, group int) int {
	if group < 1 {
		group = 1
	}
	kept := (nsc + group - 1) / group
	return feedbackHeaderLen + kept*(4+2*rows*cols)
}

// Quantize encodes per-subcarrier channel matrices into the compact
// feedback form, keeping every group-th tone (group ≤ 1 keeps all). All
// non-nil matrices must share one shape with rows, cols ≤ 4; nil entries
// encode as dead tones.
func Quantize(h []*cmatrix.Matrix, group int) ([]byte, error) {
	if len(h) == 0 {
		return nil, fmt.Errorf("sounding: no channel matrices to quantize")
	}
	if len(h) > 0xFFFF {
		return nil, fmt.Errorf("sounding: %d subcarriers exceed the 16-bit count field", len(h))
	}
	if group < 1 {
		group = 1
	}
	rows, cols := 0, 0
	for _, hk := range h {
		if hk == nil {
			continue
		}
		if rows == 0 {
			rows, cols = hk.Rows, hk.Cols
		}
		if hk.Rows != rows || hk.Cols != cols {
			return nil, fmt.Errorf("sounding: ragged channel shapes %dx%d vs %dx%d", hk.Rows, hk.Cols, rows, cols)
		}
	}
	if rows == 0 {
		return nil, fmt.Errorf("sounding: all matrices nil")
	}
	if rows > 4 || cols > 4 {
		return nil, fmt.Errorf("sounding: shape %dx%d exceeds the 4x4 feedback bound", rows, cols)
	}
	out := make([]byte, 0, FeedbackBytes(rows, cols, len(h), group))
	out = append(out, feedbackVersion, byte(rows), byte(cols), byte(group))
	out = binary.BigEndian.AppendUint16(out, uint16(len(h)))
	for k := 0; k < len(h); k += group {
		hk := h[k]
		var scale float64
		if hk != nil {
			for _, v := range hk.Data {
				if a := cmplx.Abs(v); a > scale {
					scale = a
				}
			}
		}
		if hk == nil || scale < deadToneFrobenius {
			out = binary.BigEndian.AppendUint32(out, 0)
			out = append(out, make([]byte, 2*rows*cols)...)
			continue
		}
		out = binary.BigEndian.AppendUint32(out, math.Float32bits(float32(scale)))
		for _, v := range hk.Data {
			mag := math.Round(cmplx.Abs(v) / scale * 255)
			if mag > 255 {
				mag = 255
			}
			// Phase quantized to 1/256 turns; negative phases wrap.
			ph := cmplx.Phase(v) / (2 * math.Pi)
			ph -= math.Floor(ph)
			p := int(math.Round(ph*256)) & 0xFF
			out = append(out, byte(mag), byte(p))
		}
	}
	return out, nil
}

// Dequantize reverses Quantize, returning one matrix per original
// subcarrier: grouped tones are held across their skipped neighbours. The
// capacity and condition metrics of the reconstruction stay within the
// quantizer's bounded error of the original (see TestFeedbackRoundTrip).
func Dequantize(b []byte) ([]*cmatrix.Matrix, error) {
	if len(b) < feedbackHeaderLen {
		return nil, fmt.Errorf("sounding: feedback header needs %d bytes, got %d", feedbackHeaderLen, len(b))
	}
	if b[0] != feedbackVersion {
		return nil, fmt.Errorf("sounding: unsupported feedback version %d", b[0])
	}
	rows, cols, group := int(b[1]), int(b[2]), int(b[3])
	nsc := int(binary.BigEndian.Uint16(b[4:]))
	if rows < 1 || rows > 4 || cols < 1 || cols > 4 {
		return nil, fmt.Errorf("sounding: feedback shape %dx%d out of range", rows, cols)
	}
	if group < 1 || nsc < 1 {
		return nil, fmt.Errorf("sounding: feedback group %d / tone count %d invalid", group, nsc)
	}
	kept := (nsc + group - 1) / group
	want := feedbackHeaderLen + kept*(4+2*rows*cols)
	if len(b) < want {
		return nil, fmt.Errorf("sounding: feedback needs %d bytes, got %d", want, len(b))
	}
	out := make([]*cmatrix.Matrix, nsc)
	off := feedbackHeaderLen
	for t := 0; t < kept; t++ {
		scale := float64(math.Float32frombits(binary.BigEndian.Uint32(b[off:])))
		if math.IsNaN(scale) || math.IsInf(scale, 0) {
			return nil, fmt.Errorf("%w: tone %d scale %v", ErrNonFiniteScale, t*group, scale)
		}
		off += 4
		m := cmatrix.New(rows, cols)
		if scale > 0 {
			for i := range m.Data {
				mag := float64(b[off]) / 255 * scale
				ph := float64(b[off+1]) / 256 * 2 * math.Pi
				m.Data[i] = cmplx.Rect(mag, ph)
				off += 2
			}
		} else {
			off += 2 * rows * cols
		}
		for g := 0; g < group; g++ {
			k := t*group + g
			if k >= nsc {
				break
			}
			if g == 0 {
				out[k] = m
			} else {
				out[k] = m.Clone()
			}
		}
	}
	return out, nil
}
