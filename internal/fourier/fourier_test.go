package fourier

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func approxEqual(a, b []complex128, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if cmplx.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

func TestIsPowerOfTwo(t *testing.T) {
	for _, n := range []int{1, 2, 4, 1024} {
		if !IsPowerOfTwo(n) {
			t.Errorf("IsPowerOfTwo(%d) = false", n)
		}
	}
	for _, n := range []int{0, -2, 3, 6, 1000} {
		if IsPowerOfTwo(n) {
			t.Errorf("IsPowerOfTwo(%d) = true", n)
		}
	}
}

func TestNextPowerOfTwo(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 5: 8, 1023: 1024, 1024: 1024}
	for in, want := range cases {
		if got := NextPowerOfTwo(in); got != want {
			t.Errorf("NextPowerOfTwo(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16, 64} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		fast, err := FFT(x)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		slow := DFTNaive(x)
		if !approxEqual(fast, slow, 1e-9*float64(n)) {
			t.Fatalf("n=%d: FFT != DFT", n)
		}
	}
}

func TestFFTRejectsNonPowerOfTwo(t *testing.T) {
	if _, err := FFT(make([]complex128, 3)); err != ErrLength {
		t.Fatalf("err = %v, want ErrLength", err)
	}
	if _, err := FFT(nil); err != ErrLength {
		t.Fatalf("err = %v, want ErrLength", err)
	}
}

func TestFFTDoesNotModifyInput(t *testing.T) {
	x := []complex128{1, 2, 3, 4}
	orig := append([]complex128(nil), x...)
	if _, err := FFT(x); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if x[i] != orig[i] {
			t.Fatal("FFT modified its input")
		}
	}
}

func TestIFFTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := make([]complex128, 128)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	f, err := FFT(x)
	if err != nil {
		t.Fatal(err)
	}
	back, err := IFFT(f)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqual(back, x, 1e-9) {
		t.Fatal("IFFT(FFT(x)) != x")
	}
}

func TestFFTImpulse(t *testing.T) {
	// FFT of a unit impulse is flat ones.
	x := make([]complex128, 8)
	x[0] = 1
	f, err := FFT(x)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range f {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("bin %d = %v, want 1", i, v)
		}
	}
}

func TestFFTParsevalTheorem(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 256
	x := make([]complex128, n)
	var timeEnergy float64
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
		timeEnergy += real(x[i]) * real(x[i])
	}
	f, err := FFT(x)
	if err != nil {
		t.Fatal(err)
	}
	var freqEnergy float64
	for _, v := range f {
		freqEnergy += real(v)*real(v) + imag(v)*imag(v)
	}
	freqEnergy /= float64(n)
	if math.Abs(timeEnergy-freqEnergy) > 1e-8*timeEnergy {
		t.Fatalf("Parseval violated: %g vs %g", timeEnergy, freqEnergy)
	}
}

func TestFFTRealPadsToPowerOfTwo(t *testing.T) {
	f, err := FFTReal([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(f) != 4 {
		t.Fatalf("len = %d, want 4", len(f))
	}
	if _, err := FFTReal(nil); err != ErrLength {
		t.Fatalf("err = %v", err)
	}
}

func TestConvolveKnown(t *testing.T) {
	// (1 + 2x) * (3 + 4x) = 3 + 10x + 8x²
	out, err := Convolve([]float64{1, 2}, []float64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 10, 8}
	if len(out) != len(want) {
		t.Fatalf("len = %d", len(out))
	}
	for i := range want {
		if math.Abs(out[i]-want[i]) > 1e-9 {
			t.Fatalf("out[%d] = %v, want %v", i, out[i], want[i])
		}
	}
}

func TestConvolveMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := make([]float64, 17)
	b := make([]float64, 9)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	fast, err := Convolve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	direct := make([]float64, len(a)+len(b)-1)
	for i := range a {
		for j := range b {
			direct[i+j] += a[i] * b[j]
		}
	}
	for i := range direct {
		if math.Abs(fast[i]-direct[i]) > 1e-8 {
			t.Fatalf("bin %d: %v vs %v", i, fast[i], direct[i])
		}
	}
}

func TestConvolveEmpty(t *testing.T) {
	if _, err := Convolve(nil, []float64{1}); err != ErrLength {
		t.Fatalf("err = %v", err)
	}
}

func TestPowerSpectrumAndDominantFrequency(t *testing.T) {
	// Pure tone at bin 5 of a 64-sample frame.
	n := 64
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * 5 * float64(i) / float64(n))
	}
	k, err := DominantFrequency(x)
	if err != nil {
		t.Fatal(err)
	}
	if k != 5 {
		t.Fatalf("dominant bin = %d, want 5", k)
	}
	ps, err := PowerSpectrum(x)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != n/2+1 {
		t.Fatalf("spectrum length %d", len(ps))
	}
}

// Property: FFT is linear — FFT(a*x + b*y) == a*FFT(x) + b*FFT(y).
func TestPropertyFFTLinearity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (1 + rng.Intn(6))
		x := make([]complex128, n)
		y := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			y[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		a := complex(rng.NormFloat64(), 0)
		b := complex(rng.NormFloat64(), 0)
		mix := make([]complex128, n)
		for i := range mix {
			mix[i] = a*x[i] + b*y[i]
		}
		fm, err := FFT(mix)
		if err != nil {
			return false
		}
		fx, _ := FFT(x)
		fy, _ := FFT(y)
		for i := range fm {
			if cmplx.Abs(fm[i]-(a*fx[i]+b*fy[i])) > 1e-8*float64(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: round trip holds for arbitrary power-of-two lengths.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << rng.Intn(9)
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		fw, err := FFT(x)
		if err != nil {
			return false
		}
		back, err := IFFT(fw)
		if err != nil {
			return false
		}
		return approxEqual(back, x, 1e-8*float64(n+1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFFT1024(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	x := make([]complex128, 1024)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FFT(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConvolve4096(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	x := make([]float64, 4096)
	y := make([]float64, 512)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for i := range y {
		y[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Convolve(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// DFTNaive is the O(n²) reference transform used by tests to validate FFT.
func DFTNaive(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for t := 0; t < n; t++ {
			angle := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			s += x[t] * cmplx.Exp(complex(0, angle))
		}
		out[k] = s
	}
	return out
}
