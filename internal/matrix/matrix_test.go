package matrix

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

func randomMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// diagonally dominant matrices are comfortably non-singular.
func randomDominant(rng *rand.Rand, n int) *Matrix {
	m := randomMatrix(rng, n, n)
	for i := 0; i < n; i++ {
		var s float64
		for j := 0; j < n; j++ {
			s += math.Abs(m.At(i, j))
		}
		m.Set(i, i, s+1)
	}
	return m
}

// permuted returns P*A for the matrix a that f factors.
func permuted(f *LU, a *Matrix) *Matrix {
	n := f.N
	out := New(n, n)
	for i := 0; i < n; i++ {
		copy(out.Data[i*n:(i+1)*n], a.Data[f.Pivot[i]*n:(f.Pivot[i]+1)*n])
	}
	return out
}

func TestNewZeroInitialised(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("bad shape: %+v", m)
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("Data[%d] = %v, want 0", i, v)
		}
	}
}

func TestNewPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 0x0 matrix")
		}
	}()
	New(0, 0)
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatalf("wrong elements: %v", m)
	}
}

func TestFromRowsRagged(t *testing.T) {
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err != ErrDimension {
		t.Fatalf("err = %v, want ErrDimension", err)
	}
	if _, err := FromRows(nil); err != ErrDimension {
		t.Fatalf("err = %v, want ErrDimension", err)
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1.0
			}
			if id.At(i, j) != want { //vdce:ignore floateq identity matrix entries are exact 0/1 constants
				t.Fatalf("I(%d,%d) = %v", i, j, id.At(i, j))
			}
		}
	}
}

func TestAddSubScale(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{5, 6}, {7, 8}})
	sum, err := a.Add(b)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := FromRows([][]float64{{6, 8}, {10, 12}})
	if !sum.Equal(want, 0) {
		t.Fatalf("sum = %v", sum)
	}
	diff, _ := sum.Sub(b)
	if !diff.Equal(a, 0) {
		t.Fatalf("diff = %v", diff)
	}
	sc := a.Scale(2)
	want2, _ := FromRows([][]float64{{2, 4}, {6, 8}})
	if !sc.Equal(want2, 0) {
		t.Fatalf("scale = %v", sc)
	}
}

func TestAddDimensionMismatch(t *testing.T) {
	a := New(2, 2)
	b := New(3, 2)
	if _, err := a.Add(b); err != ErrDimension {
		t.Fatalf("err = %v", err)
	}
	if _, err := a.Sub(b); err != ErrDimension {
		t.Fatalf("err = %v", err)
	}
}

func TestMulKnown(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{5, 6}, {7, 8}})
	c, err := a.Mul(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := FromRows([][]float64{{19, 22}, {43, 50}})
	if !c.Equal(want, 1e-12) {
		t.Fatalf("c = %v", c)
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomMatrix(rng, 7, 7)
	c, err := a.Mul(Identity(7), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Equal(a, 1e-12) {
		t.Fatal("A*I != A")
	}
}

func TestMulDimensionMismatch(t *testing.T) {
	a := New(2, 3)
	b := New(2, 3)
	if _, err := a.Mul(b, 1); err != ErrDimension {
		t.Fatalf("err = %v", err)
	}
}

func TestMulVec(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	y, err := a.MulVec([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if y[0] != 3 || y[1] != 7 {
		t.Fatalf("y = %v", y)
	}
	if _, err := a.MulVec([]float64{1}); err != ErrDimension {
		t.Fatalf("err = %v", err)
	}
}

func TestTranspose(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.Transpose()
	if at.Rows != 3 || at.Cols != 2 {
		t.Fatalf("shape %dx%d", at.Rows, at.Cols)
	}
	if at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Fatalf("at = %v", at)
	}
	if !at.Transpose().Equal(a, 0) {
		t.Fatal("(Aᵀ)ᵀ != A")
	}
}

func TestLUReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 3, 5, 16, 33} {
		a := randomDominant(rng, n)
		f, err := Factor(a, 1)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		lu, err := f.L().Mul(f.U(), 1)
		if err != nil {
			t.Fatal(err)
		}
		pa := permuted(f, a)
		if !lu.Equal(pa, 1e-9*float64(n)) {
			t.Fatalf("n=%d: P*A != L*U", n)
		}
	}
}

func TestFactorSingular(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Factor(a, 1); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestFactorNonSquare(t *testing.T) {
	if _, err := Factor(New(2, 3), 1); err != ErrDimension {
		t.Fatalf("err = %v, want ErrDimension", err)
	}
}

func TestSolveKnown(t *testing.T) {
	// 2x + y = 5 ; x + 3y = 10 → x = 1, y = 3
	a, _ := FromRows([][]float64{{2, 1}, {1, 3}})
	x, err := Solve(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("x = %v", x)
	}
}

func TestSolveResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{4, 32, 100} {
		a := randomDominant(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := Solve(a, b)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Residual(a, x, b)
		if err != nil {
			t.Fatal(err)
		}
		if r > 1e-8 {
			t.Fatalf("n=%d: residual %g too large", n, r)
		}
	}
}

func TestSolveWrongLength(t *testing.T) {
	a := Identity(3)
	f, err := Factor(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Solve([]float64{1, 2}); err != ErrDimension {
		t.Fatalf("err = %v", err)
	}
}

func TestInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomDominant(rng, 8)
	inv, err := Inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	prod, err := a.Mul(inv, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !prod.Equal(Identity(8), 1e-9) {
		t.Fatal("A*A⁻¹ != I")
	}
}

func TestDeterminant(t *testing.T) {
	a, _ := FromRows([][]float64{{3, 0}, {0, 2}})
	f, err := Factor(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Det()-6) > 1e-12 {
		t.Fatalf("det = %v", f.Det())
	}
	// Permutation changes sign bookkeeping but not the determinant value.
	b, _ := FromRows([][]float64{{0, 2}, {3, 0}})
	fb, err := Factor(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fb.Det()+6) > 1e-12 {
		t.Fatalf("det = %v, want -6", fb.Det())
	}
}

func TestNormInf(t *testing.T) {
	a, _ := FromRows([][]float64{{1, -2}, {-3, 4}})
	if a.NormInf() != 7 {
		t.Fatalf("norm = %v", a.NormInf())
	}
}

func TestSolveMatrixAgainstInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomDominant(rng, 6)
	f, err := Factor(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	x, err := f.SolveMatrix(Identity(6))
	if err != nil {
		t.Fatal(err)
	}
	inv, err := Inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	if !x.Equal(inv, 1e-10) {
		t.Fatal("SolveMatrix(I) != Inverse")
	}
}

// pinSizes and pinWorkers are the shapes and worker counts on which Mul and
// Factor must give, bit for bit, what their serial runs (p = 1) give: both sides of the LU's serial cutoff at n = 64, one
// worker, worker counts that do and do not divide the rows, and more
// workers than some steps have rows.
var (
	pinSizes   = []int{1, 63, 64, 65, 130, 257}
	pinWorkers = []int{1, 2, 3, 8}
)

// sameBits reports whether a and b hold the same float64s bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestParallelMulMatchesSequential(t *testing.T) {
	for _, n := range pinSizes {
		rng := rand.New(rand.NewSource(int64(6 + n)))
		a := randomMatrix(rng, n, n)
		b := randomMatrix(rng, n, n)
		seq, err := a.Mul(b, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pinWorkers {
			par, err := a.Mul(b, p)
			if err != nil {
				t.Fatalf("n=%d p=%d: %v", n, p, err)
			}
			if par.Rows != seq.Rows || par.Cols != seq.Cols || !sameBits(par.Data, seq.Data) {
				t.Fatalf("n=%d p=%d: product differs from the serial one", n, p)
			}
		}
	}
}

func TestParallelFactorMatchesSequential(t *testing.T) {
	for _, n := range pinSizes {
		// A general random matrix, not a dominant one, so rows swap and
		// the pivots and the sign are exercised.
		a := randomMatrix(rand.New(rand.NewSource(int64(7+n))), n, n)
		seq, err := Factor(a, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pinWorkers {
			par, err := Factor(a, p)
			if err != nil {
				t.Fatalf("n=%d p=%d: %v", n, p, err)
			}
			if !sameBits(par.LU.Data, seq.LU.Data) {
				t.Fatalf("n=%d p=%d: LU differs from the serial one", n, p)
			}
			if !slices.Equal(par.Pivot, seq.Pivot) || par.Signs != seq.Signs {
				t.Fatalf("n=%d p=%d: pivots or sign differ from the serial ones", n, p)
			}
		}
	}
}

func TestParallelFactorSmallFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randomDominant(rng, 8)
	f, err := Factor(a, 4)
	if err != nil {
		t.Fatal(err)
	}
	x, err := f.Solve(make([]float64, 8))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range x {
		if v != 0 {
			t.Fatal("A*x=0 should give x=0")
		}
	}
}

// Property: (A+B)ᵀ == Aᵀ+Bᵀ for random small matrices.
func TestPropertyTransposeAdd(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 1 + rng.Intn(6)
		c := 1 + rng.Intn(6)
		a := randomMatrix(rng, r, c)
		b := randomMatrix(rng, r, c)
		sum, _ := a.Add(b)
		lhs := sum.Transpose()
		rhs, _ := a.Transpose().Add(b.Transpose())
		return lhs.Equal(rhs, 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: solving with a random dominant matrix keeps residual tiny.
func TestPropertySolveResidual(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(24)
		a := randomDominant(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		r, err := Residual(a, x, b)
		return err == nil && r < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: det(A) from LU matches cofactor expansion for 2x2.
func TestPropertyDet2x2(t *testing.T) {
	f := func(a0, a1, a2, a3 float64) bool {
		for _, v := range []float64{a0, a1, a2, a3} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				return true // skip pathological inputs
			}
		}
		m, _ := FromRows([][]float64{{a0, a1}, {a2, a3}})
		want := a0*a3 - a1*a2
		f2, err := Factor(m, 1)
		if err != nil {
			return math.Abs(want) < 1e-6 // singular is acceptable iff det ~ 0
		}
		got := f2.Det()
		scale := math.Max(1, math.Abs(want))
		return math.Abs(got-want)/scale < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	x := randomMatrix(rng, 128, 128)
	y := randomMatrix(rng, 128, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := x.Mul(y, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMul128AllProcs runs the product's rows on GOMAXPROCS workers.
func BenchmarkMul128AllProcs(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	x := randomMatrix(rng, 128, 128)
	y := randomMatrix(rng, 128, 128)
	p := runtime.GOMAXPROCS(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := x.Mul(y, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFactor128(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	x := randomDominant(rng, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Factor(x, 1); err != nil {
			b.Fatal(err)
		}
	}
}
