// Package fourier provides the Fourier-analysis substrate for the VDCE task
// libraries: an iterative radix-2 FFT, inverse FFT, convolution via FFT, and
// power-spectrum computation. The paper lists "Fourier analysis" among the
// functional task-library groups the Application Editor exposes.
package fourier

import (
	"errors"
	"math"
	"math/cmplx"
)

// ErrLength is returned when an input length is not a power of two (for the
// radix-2 transform) or operands disagree in length.
var ErrLength = errors.New("fourier: length must be a nonzero power of two")

// IsPowerOfTwo reports whether n is a positive power of two.
func IsPowerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }

// NextPowerOfTwo returns the smallest power of two >= n (n >= 1).
func NextPowerOfTwo(n int) int {
	if n <= 1 {
		return 1
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// FFT computes the in-order discrete Fourier transform of x using an
// iterative radix-2 Cooley-Tukey algorithm. len(x) must be a power of two.
// The input slice is not modified.
func FFT(x []complex128) ([]complex128, error) {
	return transform(x, false)
}

// IFFT computes the inverse DFT (including the 1/N scaling).
func IFFT(x []complex128) ([]complex128, error) {
	out, err := transform(x, true)
	if err != nil {
		return nil, err
	}
	n := complex(float64(len(out)), 0)
	for i := range out {
		out[i] /= n
	}
	return out, nil
}

func transform(x []complex128, inverse bool) ([]complex128, error) {
	n := len(x)
	if !IsPowerOfTwo(n) {
		return nil, ErrLength
	}
	out := make([]complex128, n)
	// Bit-reversal permutation.
	bits := 0
	for 1<<bits < n {
		bits++
	}
	for i := 0; i < n; i++ {
		out[reverseBits(i, bits)] = x[i]
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		step := sign * 2 * math.Pi / float64(size)
		wstep := cmplx.Exp(complex(0, step))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				even := out[start+k]
				odd := out[start+k+half] * w
				out[start+k] = even + odd
				out[start+k+half] = even - odd
				w *= wstep
			}
		}
	}
	return out, nil
}

func reverseBits(v, bits int) int {
	r := 0
	for i := 0; i < bits; i++ {
		r = (r << 1) | (v & 1)
		v >>= 1
	}
	return r
}

// FFTReal transforms a real-valued signal, zero-padding to the next power of
// two if necessary.
func FFTReal(x []float64) ([]complex128, error) {
	n := NextPowerOfTwo(len(x))
	if len(x) == 0 {
		return nil, ErrLength
	}
	c := make([]complex128, n)
	for i, v := range x {
		c[i] = complex(v, 0)
	}
	return FFT(c)
}

// Convolve computes the linear convolution of a and b via FFT
// (zero-padded to avoid circular wrap-around). Result length is
// len(a)+len(b)-1.
func Convolve(a, b []float64) ([]float64, error) {
	if len(a) == 0 || len(b) == 0 {
		return nil, ErrLength
	}
	outLen := len(a) + len(b) - 1
	n := NextPowerOfTwo(outLen)
	ca := make([]complex128, n)
	cb := make([]complex128, n)
	for i, v := range a {
		ca[i] = complex(v, 0)
	}
	for i, v := range b {
		cb[i] = complex(v, 0)
	}
	fa, err := FFT(ca)
	if err != nil {
		return nil, err
	}
	fb, err := FFT(cb)
	if err != nil {
		return nil, err
	}
	for i := range fa {
		fa[i] *= fb[i]
	}
	inv, err := IFFT(fa)
	if err != nil {
		return nil, err
	}
	out := make([]float64, outLen)
	for i := range out {
		out[i] = real(inv[i])
	}
	return out, nil
}

// PowerSpectrum returns |X[k]|² for the first N/2+1 bins of the real signal x.
func PowerSpectrum(x []float64) ([]float64, error) {
	f, err := FFTReal(x)
	if err != nil {
		return nil, err
	}
	half := len(f)/2 + 1
	out := make([]float64, half)
	for i := 0; i < half; i++ {
		re, im := real(f[i]), imag(f[i])
		out[i] = re*re + im*im
	}
	return out, nil
}

// DominantFrequency returns the index of the largest non-DC power-spectrum
// bin, the typical "detect the tone" task in C3I signal processing chains.
func DominantFrequency(x []float64) (int, error) {
	ps, err := PowerSpectrum(x)
	if err != nil {
		return 0, err
	}
	best, bestV := 0, -1.0
	for i := 1; i < len(ps); i++ {
		if ps[i] > bestV {
			best, bestV = i, ps[i]
		}
	}
	return best, nil
}
