// Command fftgen writes fft64_gen.go, the straight-line 64-point transform
// the dsp package's FFT plans run when their size is 64. It runs from the
// package directory:
//
//	go generate ./internal/dsp
//
// The kernel performs the radix-2 decimation-in-time butterflies of
// FFT.radix2's loop, each as t = w·x[j+h]; x[j+h] = x[j] − t;
// x[j] = x[j] + t with the same twiddle entry, so its output is the loop's
// bit for bit. What changes is the schedule: two consecutive radix-2 stages
// only mix the four values x[b+i], x[b+i+q], x[b+i+2q], x[b+i+3q] (q = 1, 4,
// 16), so each pass holds such a quartet in locals across both stages and
// the six stages touch memory three times instead of six.
package main

import (
	"bytes"
	"fmt"
	"go/format"
	"log"
	"os"
)

// size is the transform length; stages is log2(size), run as stages/2
// passes of two radix-2 stages each.
const (
	size   = 64
	stages = 6
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fftgen: ")
	out, err := generate()
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile("fft64_gen.go", out, 0o644); err != nil {
		log.Fatal(err)
	}
}

// reverse returns the stages-bit reversal of i, the input index the
// decimation-in-time transform reads into position i.
func reverse(i int) int {
	r := 0
	for b := 0; b < stages; b++ {
		r = r<<1 | (i>>b)&1
	}
	return r
}

// butterfly is one radix-2 butterfly on locals lo and hi (indices into the
// quartet) with twiddle table entry k.
type butterfly struct{ lo, hi, k int }

// quartet is one pass's group of four indices and the four butterflies of
// its two stages, in the order the radix-2 loop runs them.
type quartet struct {
	idx [4]int
	bf  [4]butterfly
}

// passQuartets lists pass p's quartets. With q = 4^p, stage A (butterfly
// span 2q, half q) pairs x[b+i] with x[b+i+q] and x[b+i+2q] with x[b+i+3q],
// both at twiddle i·size/(2q); stage B (span 4q, half 2q) pairs x[b+i] with
// x[b+i+2q] at i·size/(4q) and x[b+i+q] with x[b+i+3q] at (i+q)·size/(4q).
func passQuartets(p int) []quartet {
	q := 1 << (2 * p)
	stepA, stepB := size/(2*q), size/(4*q)
	var qs []quartet
	for b := 0; b < size; b += 4 * q {
		for i := 0; i < q; i++ {
			qs = append(qs, quartet{
				idx: [4]int{b + i, b + i + q, b + i + 2*q, b + i + 3*q},
				bf: [4]butterfly{
					{0, 1, i * stepA}, {2, 3, i * stepA},
					{0, 2, i * stepB}, {1, 3, (i + q) * stepB},
				},
			})
		}
	}
	return qs
}

// generate returns the gofmt-formatted source of fft64_gen.go.
func generate() ([]byte, error) {
	var b bytes.Buffer
	fmt.Fprintf(&b, `// Code generated by internal/fftgen; DO NOT EDIT.

package dsp

// fft%[1]d writes the unscaled %[1]d-point DFT of src to dst with twiddle
// table w: the plan's forward table, or its conjugate for the inverse.
//
// Each pass holds four values in locals across two radix-2 stages. The first
// pass loads them from src in bit-reversed order and stores them to dst;
// the other two work in place on dst. Every butterfly is the radix-2 loop's,
// with the same table entry, so the output matches FFT.radix2 bit for bit.
//
//mimonet:hot
func fft%[1]d(dst, src *[%[1]d]complex128, w *[%[2]d]complex128) {
	if dst == src {
		// The first pass would overwrite inputs it has yet to read, so an
		// in-place transform reads from a stack copy.
		in := *src
		src = &in
	}
`, size, size/2)
	for p := 0; p < stages/2; p++ {
		from := "dst"
		if p == 0 {
			from = "src"
		}
		q := 1 << (2 * p)
		fmt.Fprintf(&b, "\t// Pass %d: stages of span %d and %d.\n", p+1, 2*q, 4*q)
		for _, qt := range passQuartets(p) {
			load := qt.idx
			if p == 0 {
				for m := range load {
					load[m] = reverse(load[m])
				}
			}
			fmt.Fprintf(&b, "\t{\n\t\ta0, a1, a2, a3 := %[1]s[%[2]d], %[1]s[%[3]d], %[1]s[%[4]d], %[1]s[%[5]d]\n",
				from, load[0], load[1], load[2], load[3])
			for n, bf := range qt.bf {
				op := "="
				if n == 0 {
					op = ":="
				}
				fmt.Fprintf(&b, "\t\tt %s w[%d] * a%d\n\t\ta%[4]d = a%[5]d - t\n\t\ta%[5]d = a%[5]d + t\n",
					op, bf.k, bf.hi, bf.hi, bf.lo)
			}
			fmt.Fprintf(&b, "\t\tdst[%d], dst[%d], dst[%d], dst[%d] = a0, a1, a2, a3\n\t}\n",
				qt.idx[0], qt.idx[1], qt.idx[2], qt.idx[3])
		}
	}
	b.WriteString("}\n")
	return format.Source(b.Bytes())
}
