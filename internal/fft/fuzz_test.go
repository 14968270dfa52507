package fft

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzConvolvePacked holds every kernel set the host runs to goKernel on
// arbitrary bit patterns (−0, NaN, ±Inf, subnormals, anything) for m from
// 2 to 2¹². The input words are data's, repeated as often as z and g
// need, the repeat's number XORed into each word's low mantissa bits so
// that no two periods are alike and magnitudes stay as data has them: a
// single Inf or NaN floods a transform with NaN. Every
// output must have goKernel's bits, or be NaN where goKernel's is: a
// NaN's payload and sign may differ, as x − y and x + (−y) may pick
// different NaNs.
func FuzzConvolvePacked(f *testing.F) {
	f.Add(uint8(0), []byte{})
	specials := []float64{math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.MaxFloat64, 1, -0.5, 3e-310, 1e300}
	ordinary := []float64{1.5, -2.25, 0.1, 3, -7e-3, 42, 1e-9, -6.5e7, 0.75}
	for _, vs := range [][]float64{specials, ordinary} {
		var seed []byte
		for _, v := range vs {
			seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
		}
		for _, logm := range []uint8{1, 2, 4, 9, 11} {
			f.Add(logm, seed)
		}
	}
	f.Fuzz(func(t *testing.T, logm uint8, data []byte) {
		m := 2 << (logm % 12)
		words := make([]uint64, (len(data)+7)/8)
		for i := range data {
			words[i/8] |= uint64(data[i]) << (8 * (i % 8))
		}
		next := 0
		word := func() float64 {
			if len(words) == 0 {
				return 0
			}
			w := words[next%len(words)] ^ uint64(next/len(words))
			next++
			return math.Float64frombits(w)
		}
		z, g := make([]complex128, m), make([]complex128, m+1)
		for i := range z {
			z[i] = complex(word(), word())
		}
		for i := range g {
			g[i] = complex(word(), word())
		}
		run := func(k *kernelSet) []complex128 {
			old := kernel
			defer func() { kernel = old }()
			kernel = k
			out := make([]complex128, m)
			ConvolvePacked(out, append([]complex128(nil), z...), g)
			return out
		}
		want := run(&goKernel)
		for _, nk := range kernels()[1:] {
			if nk.k == nil {
				continue
			}
			got := run(nk.k)
			for i := range want {
				for _, p := range [][2]float64{{real(got[i]), real(want[i])}, {imag(got[i]), imag(want[i])}} {
					if math.Float64bits(p[0]) != math.Float64bits(p[1]) && !(math.IsNaN(p[0]) && math.IsNaN(p[1])) {
						t.Fatalf("m = %d, %s: out[%d] is %v, the go kernel gives %v", m, nk.name, i, got[i], want[i])
					}
				}
			}
		}
	})
}
