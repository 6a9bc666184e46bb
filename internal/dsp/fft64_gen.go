// Code generated by internal/fftgen; DO NOT EDIT.

package dsp

// fft64 writes the unscaled 64-point DFT of src to dst with twiddle
// table w: the plan's forward table, or its conjugate for the inverse.
//
// Each pass holds four values in locals across two radix-2 stages. The first
// pass loads them from src in bit-reversed order and stores them to dst;
// the other two work in place on dst. Every butterfly is the radix-2 loop's,
// with the same table entry, so the output matches FFT.radix2 bit for bit.
//
//mimonet:hot
func fft64(dst, src *[64]complex128, w *[32]complex128) {
	if dst == src {
		// The first pass would overwrite inputs it has yet to read, so an
		// in-place transform reads from a stack copy.
		in := *src
		src = &in
	}
	// Pass 1: stages of span 2 and 4.
	{
		a0, a1, a2, a3 := src[0], src[32], src[16], src[48]
		t := w[0] * a1
		a1 = a0 - t
		a0 = a0 + t
		t = w[0] * a3
		a3 = a2 - t
		a2 = a2 + t
		t = w[0] * a2
		a2 = a0 - t
		a0 = a0 + t
		t = w[16] * a3
		a3 = a1 - t
		a1 = a1 + t
		dst[0], dst[1], dst[2], dst[3] = a0, a1, a2, a3
	}
	{
		a0, a1, a2, a3 := src[8], src[40], src[24], src[56]
		t := w[0] * a1
		a1 = a0 - t
		a0 = a0 + t
		t = w[0] * a3
		a3 = a2 - t
		a2 = a2 + t
		t = w[0] * a2
		a2 = a0 - t
		a0 = a0 + t
		t = w[16] * a3
		a3 = a1 - t
		a1 = a1 + t
		dst[4], dst[5], dst[6], dst[7] = a0, a1, a2, a3
	}
	{
		a0, a1, a2, a3 := src[4], src[36], src[20], src[52]
		t := w[0] * a1
		a1 = a0 - t
		a0 = a0 + t
		t = w[0] * a3
		a3 = a2 - t
		a2 = a2 + t
		t = w[0] * a2
		a2 = a0 - t
		a0 = a0 + t
		t = w[16] * a3
		a3 = a1 - t
		a1 = a1 + t
		dst[8], dst[9], dst[10], dst[11] = a0, a1, a2, a3
	}
	{
		a0, a1, a2, a3 := src[12], src[44], src[28], src[60]
		t := w[0] * a1
		a1 = a0 - t
		a0 = a0 + t
		t = w[0] * a3
		a3 = a2 - t
		a2 = a2 + t
		t = w[0] * a2
		a2 = a0 - t
		a0 = a0 + t
		t = w[16] * a3
		a3 = a1 - t
		a1 = a1 + t
		dst[12], dst[13], dst[14], dst[15] = a0, a1, a2, a3
	}
	{
		a0, a1, a2, a3 := src[2], src[34], src[18], src[50]
		t := w[0] * a1
		a1 = a0 - t
		a0 = a0 + t
		t = w[0] * a3
		a3 = a2 - t
		a2 = a2 + t
		t = w[0] * a2
		a2 = a0 - t
		a0 = a0 + t
		t = w[16] * a3
		a3 = a1 - t
		a1 = a1 + t
		dst[16], dst[17], dst[18], dst[19] = a0, a1, a2, a3
	}
	{
		a0, a1, a2, a3 := src[10], src[42], src[26], src[58]
		t := w[0] * a1
		a1 = a0 - t
		a0 = a0 + t
		t = w[0] * a3
		a3 = a2 - t
		a2 = a2 + t
		t = w[0] * a2
		a2 = a0 - t
		a0 = a0 + t
		t = w[16] * a3
		a3 = a1 - t
		a1 = a1 + t
		dst[20], dst[21], dst[22], dst[23] = a0, a1, a2, a3
	}
	{
		a0, a1, a2, a3 := src[6], src[38], src[22], src[54]
		t := w[0] * a1
		a1 = a0 - t
		a0 = a0 + t
		t = w[0] * a3
		a3 = a2 - t
		a2 = a2 + t
		t = w[0] * a2
		a2 = a0 - t
		a0 = a0 + t
		t = w[16] * a3
		a3 = a1 - t
		a1 = a1 + t
		dst[24], dst[25], dst[26], dst[27] = a0, a1, a2, a3
	}
	{
		a0, a1, a2, a3 := src[14], src[46], src[30], src[62]
		t := w[0] * a1
		a1 = a0 - t
		a0 = a0 + t
		t = w[0] * a3
		a3 = a2 - t
		a2 = a2 + t
		t = w[0] * a2
		a2 = a0 - t
		a0 = a0 + t
		t = w[16] * a3
		a3 = a1 - t
		a1 = a1 + t
		dst[28], dst[29], dst[30], dst[31] = a0, a1, a2, a3
	}
	{
		a0, a1, a2, a3 := src[1], src[33], src[17], src[49]
		t := w[0] * a1
		a1 = a0 - t
		a0 = a0 + t
		t = w[0] * a3
		a3 = a2 - t
		a2 = a2 + t
		t = w[0] * a2
		a2 = a0 - t
		a0 = a0 + t
		t = w[16] * a3
		a3 = a1 - t
		a1 = a1 + t
		dst[32], dst[33], dst[34], dst[35] = a0, a1, a2, a3
	}
	{
		a0, a1, a2, a3 := src[9], src[41], src[25], src[57]
		t := w[0] * a1
		a1 = a0 - t
		a0 = a0 + t
		t = w[0] * a3
		a3 = a2 - t
		a2 = a2 + t
		t = w[0] * a2
		a2 = a0 - t
		a0 = a0 + t
		t = w[16] * a3
		a3 = a1 - t
		a1 = a1 + t
		dst[36], dst[37], dst[38], dst[39] = a0, a1, a2, a3
	}
	{
		a0, a1, a2, a3 := src[5], src[37], src[21], src[53]
		t := w[0] * a1
		a1 = a0 - t
		a0 = a0 + t
		t = w[0] * a3
		a3 = a2 - t
		a2 = a2 + t
		t = w[0] * a2
		a2 = a0 - t
		a0 = a0 + t
		t = w[16] * a3
		a3 = a1 - t
		a1 = a1 + t
		dst[40], dst[41], dst[42], dst[43] = a0, a1, a2, a3
	}
	{
		a0, a1, a2, a3 := src[13], src[45], src[29], src[61]
		t := w[0] * a1
		a1 = a0 - t
		a0 = a0 + t
		t = w[0] * a3
		a3 = a2 - t
		a2 = a2 + t
		t = w[0] * a2
		a2 = a0 - t
		a0 = a0 + t
		t = w[16] * a3
		a3 = a1 - t
		a1 = a1 + t
		dst[44], dst[45], dst[46], dst[47] = a0, a1, a2, a3
	}
	{
		a0, a1, a2, a3 := src[3], src[35], src[19], src[51]
		t := w[0] * a1
		a1 = a0 - t
		a0 = a0 + t
		t = w[0] * a3
		a3 = a2 - t
		a2 = a2 + t
		t = w[0] * a2
		a2 = a0 - t
		a0 = a0 + t
		t = w[16] * a3
		a3 = a1 - t
		a1 = a1 + t
		dst[48], dst[49], dst[50], dst[51] = a0, a1, a2, a3
	}
	{
		a0, a1, a2, a3 := src[11], src[43], src[27], src[59]
		t := w[0] * a1
		a1 = a0 - t
		a0 = a0 + t
		t = w[0] * a3
		a3 = a2 - t
		a2 = a2 + t
		t = w[0] * a2
		a2 = a0 - t
		a0 = a0 + t
		t = w[16] * a3
		a3 = a1 - t
		a1 = a1 + t
		dst[52], dst[53], dst[54], dst[55] = a0, a1, a2, a3
	}
	{
		a0, a1, a2, a3 := src[7], src[39], src[23], src[55]
		t := w[0] * a1
		a1 = a0 - t
		a0 = a0 + t
		t = w[0] * a3
		a3 = a2 - t
		a2 = a2 + t
		t = w[0] * a2
		a2 = a0 - t
		a0 = a0 + t
		t = w[16] * a3
		a3 = a1 - t
		a1 = a1 + t
		dst[56], dst[57], dst[58], dst[59] = a0, a1, a2, a3
	}
	{
		a0, a1, a2, a3 := src[15], src[47], src[31], src[63]
		t := w[0] * a1
		a1 = a0 - t
		a0 = a0 + t
		t = w[0] * a3
		a3 = a2 - t
		a2 = a2 + t
		t = w[0] * a2
		a2 = a0 - t
		a0 = a0 + t
		t = w[16] * a3
		a3 = a1 - t
		a1 = a1 + t
		dst[60], dst[61], dst[62], dst[63] = a0, a1, a2, a3
	}
	// Pass 2: stages of span 8 and 16.
	{
		a0, a1, a2, a3 := dst[0], dst[4], dst[8], dst[12]
		t := w[0] * a1
		a1 = a0 - t
		a0 = a0 + t
		t = w[0] * a3
		a3 = a2 - t
		a2 = a2 + t
		t = w[0] * a2
		a2 = a0 - t
		a0 = a0 + t
		t = w[16] * a3
		a3 = a1 - t
		a1 = a1 + t
		dst[0], dst[4], dst[8], dst[12] = a0, a1, a2, a3
	}
	{
		a0, a1, a2, a3 := dst[1], dst[5], dst[9], dst[13]
		t := w[8] * a1
		a1 = a0 - t
		a0 = a0 + t
		t = w[8] * a3
		a3 = a2 - t
		a2 = a2 + t
		t = w[4] * a2
		a2 = a0 - t
		a0 = a0 + t
		t = w[20] * a3
		a3 = a1 - t
		a1 = a1 + t
		dst[1], dst[5], dst[9], dst[13] = a0, a1, a2, a3
	}
	{
		a0, a1, a2, a3 := dst[2], dst[6], dst[10], dst[14]
		t := w[16] * a1
		a1 = a0 - t
		a0 = a0 + t
		t = w[16] * a3
		a3 = a2 - t
		a2 = a2 + t
		t = w[8] * a2
		a2 = a0 - t
		a0 = a0 + t
		t = w[24] * a3
		a3 = a1 - t
		a1 = a1 + t
		dst[2], dst[6], dst[10], dst[14] = a0, a1, a2, a3
	}
	{
		a0, a1, a2, a3 := dst[3], dst[7], dst[11], dst[15]
		t := w[24] * a1
		a1 = a0 - t
		a0 = a0 + t
		t = w[24] * a3
		a3 = a2 - t
		a2 = a2 + t
		t = w[12] * a2
		a2 = a0 - t
		a0 = a0 + t
		t = w[28] * a3
		a3 = a1 - t
		a1 = a1 + t
		dst[3], dst[7], dst[11], dst[15] = a0, a1, a2, a3
	}
	{
		a0, a1, a2, a3 := dst[16], dst[20], dst[24], dst[28]
		t := w[0] * a1
		a1 = a0 - t
		a0 = a0 + t
		t = w[0] * a3
		a3 = a2 - t
		a2 = a2 + t
		t = w[0] * a2
		a2 = a0 - t
		a0 = a0 + t
		t = w[16] * a3
		a3 = a1 - t
		a1 = a1 + t
		dst[16], dst[20], dst[24], dst[28] = a0, a1, a2, a3
	}
	{
		a0, a1, a2, a3 := dst[17], dst[21], dst[25], dst[29]
		t := w[8] * a1
		a1 = a0 - t
		a0 = a0 + t
		t = w[8] * a3
		a3 = a2 - t
		a2 = a2 + t
		t = w[4] * a2
		a2 = a0 - t
		a0 = a0 + t
		t = w[20] * a3
		a3 = a1 - t
		a1 = a1 + t
		dst[17], dst[21], dst[25], dst[29] = a0, a1, a2, a3
	}
	{
		a0, a1, a2, a3 := dst[18], dst[22], dst[26], dst[30]
		t := w[16] * a1
		a1 = a0 - t
		a0 = a0 + t
		t = w[16] * a3
		a3 = a2 - t
		a2 = a2 + t
		t = w[8] * a2
		a2 = a0 - t
		a0 = a0 + t
		t = w[24] * a3
		a3 = a1 - t
		a1 = a1 + t
		dst[18], dst[22], dst[26], dst[30] = a0, a1, a2, a3
	}
	{
		a0, a1, a2, a3 := dst[19], dst[23], dst[27], dst[31]
		t := w[24] * a1
		a1 = a0 - t
		a0 = a0 + t
		t = w[24] * a3
		a3 = a2 - t
		a2 = a2 + t
		t = w[12] * a2
		a2 = a0 - t
		a0 = a0 + t
		t = w[28] * a3
		a3 = a1 - t
		a1 = a1 + t
		dst[19], dst[23], dst[27], dst[31] = a0, a1, a2, a3
	}
	{
		a0, a1, a2, a3 := dst[32], dst[36], dst[40], dst[44]
		t := w[0] * a1
		a1 = a0 - t
		a0 = a0 + t
		t = w[0] * a3
		a3 = a2 - t
		a2 = a2 + t
		t = w[0] * a2
		a2 = a0 - t
		a0 = a0 + t
		t = w[16] * a3
		a3 = a1 - t
		a1 = a1 + t
		dst[32], dst[36], dst[40], dst[44] = a0, a1, a2, a3
	}
	{
		a0, a1, a2, a3 := dst[33], dst[37], dst[41], dst[45]
		t := w[8] * a1
		a1 = a0 - t
		a0 = a0 + t
		t = w[8] * a3
		a3 = a2 - t
		a2 = a2 + t
		t = w[4] * a2
		a2 = a0 - t
		a0 = a0 + t
		t = w[20] * a3
		a3 = a1 - t
		a1 = a1 + t
		dst[33], dst[37], dst[41], dst[45] = a0, a1, a2, a3
	}
	{
		a0, a1, a2, a3 := dst[34], dst[38], dst[42], dst[46]
		t := w[16] * a1
		a1 = a0 - t
		a0 = a0 + t
		t = w[16] * a3
		a3 = a2 - t
		a2 = a2 + t
		t = w[8] * a2
		a2 = a0 - t
		a0 = a0 + t
		t = w[24] * a3
		a3 = a1 - t
		a1 = a1 + t
		dst[34], dst[38], dst[42], dst[46] = a0, a1, a2, a3
	}
	{
		a0, a1, a2, a3 := dst[35], dst[39], dst[43], dst[47]
		t := w[24] * a1
		a1 = a0 - t
		a0 = a0 + t
		t = w[24] * a3
		a3 = a2 - t
		a2 = a2 + t
		t = w[12] * a2
		a2 = a0 - t
		a0 = a0 + t
		t = w[28] * a3
		a3 = a1 - t
		a1 = a1 + t
		dst[35], dst[39], dst[43], dst[47] = a0, a1, a2, a3
	}
	{
		a0, a1, a2, a3 := dst[48], dst[52], dst[56], dst[60]
		t := w[0] * a1
		a1 = a0 - t
		a0 = a0 + t
		t = w[0] * a3
		a3 = a2 - t
		a2 = a2 + t
		t = w[0] * a2
		a2 = a0 - t
		a0 = a0 + t
		t = w[16] * a3
		a3 = a1 - t
		a1 = a1 + t
		dst[48], dst[52], dst[56], dst[60] = a0, a1, a2, a3
	}
	{
		a0, a1, a2, a3 := dst[49], dst[53], dst[57], dst[61]
		t := w[8] * a1
		a1 = a0 - t
		a0 = a0 + t
		t = w[8] * a3
		a3 = a2 - t
		a2 = a2 + t
		t = w[4] * a2
		a2 = a0 - t
		a0 = a0 + t
		t = w[20] * a3
		a3 = a1 - t
		a1 = a1 + t
		dst[49], dst[53], dst[57], dst[61] = a0, a1, a2, a3
	}
	{
		a0, a1, a2, a3 := dst[50], dst[54], dst[58], dst[62]
		t := w[16] * a1
		a1 = a0 - t
		a0 = a0 + t
		t = w[16] * a3
		a3 = a2 - t
		a2 = a2 + t
		t = w[8] * a2
		a2 = a0 - t
		a0 = a0 + t
		t = w[24] * a3
		a3 = a1 - t
		a1 = a1 + t
		dst[50], dst[54], dst[58], dst[62] = a0, a1, a2, a3
	}
	{
		a0, a1, a2, a3 := dst[51], dst[55], dst[59], dst[63]
		t := w[24] * a1
		a1 = a0 - t
		a0 = a0 + t
		t = w[24] * a3
		a3 = a2 - t
		a2 = a2 + t
		t = w[12] * a2
		a2 = a0 - t
		a0 = a0 + t
		t = w[28] * a3
		a3 = a1 - t
		a1 = a1 + t
		dst[51], dst[55], dst[59], dst[63] = a0, a1, a2, a3
	}
	// Pass 3: stages of span 32 and 64.
	{
		a0, a1, a2, a3 := dst[0], dst[16], dst[32], dst[48]
		t := w[0] * a1
		a1 = a0 - t
		a0 = a0 + t
		t = w[0] * a3
		a3 = a2 - t
		a2 = a2 + t
		t = w[0] * a2
		a2 = a0 - t
		a0 = a0 + t
		t = w[16] * a3
		a3 = a1 - t
		a1 = a1 + t
		dst[0], dst[16], dst[32], dst[48] = a0, a1, a2, a3
	}
	{
		a0, a1, a2, a3 := dst[1], dst[17], dst[33], dst[49]
		t := w[2] * a1
		a1 = a0 - t
		a0 = a0 + t
		t = w[2] * a3
		a3 = a2 - t
		a2 = a2 + t
		t = w[1] * a2
		a2 = a0 - t
		a0 = a0 + t
		t = w[17] * a3
		a3 = a1 - t
		a1 = a1 + t
		dst[1], dst[17], dst[33], dst[49] = a0, a1, a2, a3
	}
	{
		a0, a1, a2, a3 := dst[2], dst[18], dst[34], dst[50]
		t := w[4] * a1
		a1 = a0 - t
		a0 = a0 + t
		t = w[4] * a3
		a3 = a2 - t
		a2 = a2 + t
		t = w[2] * a2
		a2 = a0 - t
		a0 = a0 + t
		t = w[18] * a3
		a3 = a1 - t
		a1 = a1 + t
		dst[2], dst[18], dst[34], dst[50] = a0, a1, a2, a3
	}
	{
		a0, a1, a2, a3 := dst[3], dst[19], dst[35], dst[51]
		t := w[6] * a1
		a1 = a0 - t
		a0 = a0 + t
		t = w[6] * a3
		a3 = a2 - t
		a2 = a2 + t
		t = w[3] * a2
		a2 = a0 - t
		a0 = a0 + t
		t = w[19] * a3
		a3 = a1 - t
		a1 = a1 + t
		dst[3], dst[19], dst[35], dst[51] = a0, a1, a2, a3
	}
	{
		a0, a1, a2, a3 := dst[4], dst[20], dst[36], dst[52]
		t := w[8] * a1
		a1 = a0 - t
		a0 = a0 + t
		t = w[8] * a3
		a3 = a2 - t
		a2 = a2 + t
		t = w[4] * a2
		a2 = a0 - t
		a0 = a0 + t
		t = w[20] * a3
		a3 = a1 - t
		a1 = a1 + t
		dst[4], dst[20], dst[36], dst[52] = a0, a1, a2, a3
	}
	{
		a0, a1, a2, a3 := dst[5], dst[21], dst[37], dst[53]
		t := w[10] * a1
		a1 = a0 - t
		a0 = a0 + t
		t = w[10] * a3
		a3 = a2 - t
		a2 = a2 + t
		t = w[5] * a2
		a2 = a0 - t
		a0 = a0 + t
		t = w[21] * a3
		a3 = a1 - t
		a1 = a1 + t
		dst[5], dst[21], dst[37], dst[53] = a0, a1, a2, a3
	}
	{
		a0, a1, a2, a3 := dst[6], dst[22], dst[38], dst[54]
		t := w[12] * a1
		a1 = a0 - t
		a0 = a0 + t
		t = w[12] * a3
		a3 = a2 - t
		a2 = a2 + t
		t = w[6] * a2
		a2 = a0 - t
		a0 = a0 + t
		t = w[22] * a3
		a3 = a1 - t
		a1 = a1 + t
		dst[6], dst[22], dst[38], dst[54] = a0, a1, a2, a3
	}
	{
		a0, a1, a2, a3 := dst[7], dst[23], dst[39], dst[55]
		t := w[14] * a1
		a1 = a0 - t
		a0 = a0 + t
		t = w[14] * a3
		a3 = a2 - t
		a2 = a2 + t
		t = w[7] * a2
		a2 = a0 - t
		a0 = a0 + t
		t = w[23] * a3
		a3 = a1 - t
		a1 = a1 + t
		dst[7], dst[23], dst[39], dst[55] = a0, a1, a2, a3
	}
	{
		a0, a1, a2, a3 := dst[8], dst[24], dst[40], dst[56]
		t := w[16] * a1
		a1 = a0 - t
		a0 = a0 + t
		t = w[16] * a3
		a3 = a2 - t
		a2 = a2 + t
		t = w[8] * a2
		a2 = a0 - t
		a0 = a0 + t
		t = w[24] * a3
		a3 = a1 - t
		a1 = a1 + t
		dst[8], dst[24], dst[40], dst[56] = a0, a1, a2, a3
	}
	{
		a0, a1, a2, a3 := dst[9], dst[25], dst[41], dst[57]
		t := w[18] * a1
		a1 = a0 - t
		a0 = a0 + t
		t = w[18] * a3
		a3 = a2 - t
		a2 = a2 + t
		t = w[9] * a2
		a2 = a0 - t
		a0 = a0 + t
		t = w[25] * a3
		a3 = a1 - t
		a1 = a1 + t
		dst[9], dst[25], dst[41], dst[57] = a0, a1, a2, a3
	}
	{
		a0, a1, a2, a3 := dst[10], dst[26], dst[42], dst[58]
		t := w[20] * a1
		a1 = a0 - t
		a0 = a0 + t
		t = w[20] * a3
		a3 = a2 - t
		a2 = a2 + t
		t = w[10] * a2
		a2 = a0 - t
		a0 = a0 + t
		t = w[26] * a3
		a3 = a1 - t
		a1 = a1 + t
		dst[10], dst[26], dst[42], dst[58] = a0, a1, a2, a3
	}
	{
		a0, a1, a2, a3 := dst[11], dst[27], dst[43], dst[59]
		t := w[22] * a1
		a1 = a0 - t
		a0 = a0 + t
		t = w[22] * a3
		a3 = a2 - t
		a2 = a2 + t
		t = w[11] * a2
		a2 = a0 - t
		a0 = a0 + t
		t = w[27] * a3
		a3 = a1 - t
		a1 = a1 + t
		dst[11], dst[27], dst[43], dst[59] = a0, a1, a2, a3
	}
	{
		a0, a1, a2, a3 := dst[12], dst[28], dst[44], dst[60]
		t := w[24] * a1
		a1 = a0 - t
		a0 = a0 + t
		t = w[24] * a3
		a3 = a2 - t
		a2 = a2 + t
		t = w[12] * a2
		a2 = a0 - t
		a0 = a0 + t
		t = w[28] * a3
		a3 = a1 - t
		a1 = a1 + t
		dst[12], dst[28], dst[44], dst[60] = a0, a1, a2, a3
	}
	{
		a0, a1, a2, a3 := dst[13], dst[29], dst[45], dst[61]
		t := w[26] * a1
		a1 = a0 - t
		a0 = a0 + t
		t = w[26] * a3
		a3 = a2 - t
		a2 = a2 + t
		t = w[13] * a2
		a2 = a0 - t
		a0 = a0 + t
		t = w[29] * a3
		a3 = a1 - t
		a1 = a1 + t
		dst[13], dst[29], dst[45], dst[61] = a0, a1, a2, a3
	}
	{
		a0, a1, a2, a3 := dst[14], dst[30], dst[46], dst[62]
		t := w[28] * a1
		a1 = a0 - t
		a0 = a0 + t
		t = w[28] * a3
		a3 = a2 - t
		a2 = a2 + t
		t = w[14] * a2
		a2 = a0 - t
		a0 = a0 + t
		t = w[30] * a3
		a3 = a1 - t
		a1 = a1 + t
		dst[14], dst[30], dst[46], dst[62] = a0, a1, a2, a3
	}
	{
		a0, a1, a2, a3 := dst[15], dst[31], dst[47], dst[63]
		t := w[30] * a1
		a1 = a0 - t
		a0 = a0 + t
		t = w[30] * a3
		a3 = a2 - t
		a2 = a2 + t
		t = w[15] * a2
		a2 = a0 - t
		a0 = a0 + t
		t = w[31] * a3
		a3 = a1 - t
		a1 = a1 + t
		dst[15], dst[31], dst[47], dst[63] = a0, a1, a2, a3
	}
}
