// Package matrix provides the dense linear-algebra substrate used by the
// VDCE task libraries: matrix construction, arithmetic, LU decomposition
// with partial pivoting, triangular solves, and inversion.
//
// The paper's flagship application (Fig 3) is a Linear Equation Solver
// built from LU decomposition, matrix inversion, and matrix multiplication
// tasks; this package supplies those kernels with real computational load.
package matrix

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// Matrix is a dense, row-major matrix of float64 values.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// ErrDimension is returned when operand dimensions are incompatible.
var ErrDimension = errors.New("matrix: incompatible dimensions")

// ErrSingular is returned when a factorization or solve encounters a
// (numerically) singular matrix.
var ErrSingular = errors.New("matrix: singular matrix")

// New returns a zero-initialised r×c matrix.
func New(r, c int) *Matrix {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("matrix: invalid dimensions %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Equal reports whether m and n have identical shape and elements within tol.
func (m *Matrix) Equal(n *Matrix, tol float64) bool {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		return false
	}
	for i := range m.Data {
		if math.Abs(m.Data[i]-n.Data[i]) > tol {
			return false
		}
	}
	return true
}

// Add returns m + n.
func (m *Matrix) Add(n *Matrix) (*Matrix, error) {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		return nil, ErrDimension
	}
	out := New(m.Rows, m.Cols)
	for i := range m.Data {
		out.Data[i] = m.Data[i] + n.Data[i]
	}
	return out, nil
}

// Mul returns the matrix product m*n using a cache-friendly ikj loop order.
// With p > 1 the output rows are split across p goroutines: the paper's
// parallel execution mode (Fig 3). Each row is computed exactly as the
// serial loop computes it, so the product is the same for every p.
func (m *Matrix) Mul(n *Matrix, p int) (*Matrix, error) {
	if m.Cols != n.Rows {
		return nil, ErrDimension
	}
	out := New(m.Rows, n.Cols)
	split(0, m.Rows, p, func(lo, hi int) { mulRows(m, n, out, lo, hi) })
	return out, nil
}

// mulRows writes rows [lo, hi) of out = m*n.
func mulRows(m, n, out *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		orow := out.Data[i*out.Cols : (i+1)*out.Cols]
		for k, mv := range m.Data[i*m.Cols : (i+1)*m.Cols] {
			if mv != 0 {
				axpy(mv, n.Data[k*n.Cols:(k+1)*n.Cols], orow)
			}
		}
	}
}

// axpy adds a*x to y, element by element.
func axpy(a float64, x, y []float64) {
	y = y[:len(x)]
	for j, v := range x {
		y[j] += a * v
	}
}

// split runs body over the rows [lo, hi): in one call when p <= 1, else cut
// into at most p contiguous ranges, one goroutine each, and waits for them
// all. The ranges are disjoint, so bodies that write only their own rows of
// one slab do not race.
func split(lo, hi, p int, body func(lo, hi int)) {
	if p <= 1 || hi-lo <= 1 {
		body(lo, hi)
		return
	}
	chunk := (hi - lo + p - 1) / p
	var wg sync.WaitGroup
	for r := lo; r < hi; r += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(r, min(r+chunk, hi))
	}
	wg.Wait()
}

// MulVec returns the matrix-vector product m*x.
func (m *Matrix) MulVec(x []float64) ([]float64, error) {
	if m.Cols != len(x) {
		return nil, ErrDimension
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out, nil
}

// Transpose returns mᵀ.
func (m *Matrix) Transpose() *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Data[j*out.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return out
}

// LU holds an LU factorization with partial pivoting: P*A = L*U, where L is
// unit lower triangular and U is upper triangular, packed into LU.
type LU struct {
	N     int
	LU    *Matrix // combined L (strict lower, unit diagonal implied) and U
	Pivot []int   // row permutation: row i of P*A is row Pivot[i] of A
	Signs int     // +1 or -1, sign of the permutation (for determinants)
}

// Factor computes the LU decomposition of the square matrix a with partial
// pivoting. It returns ErrSingular if a zero pivot is encountered. With
// p > 1 and n >= 64, each elimination step's row updates are split across
// p goroutines (below n = 64 a step costs less than starting them); every
// row is updated exactly as the serial loop updates it, so the
// factorization is the same for every p.
func Factor(a *Matrix, p int) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, ErrDimension
	}
	n := a.Rows
	if n < 64 {
		p = 1
	}
	lu := a.Clone()
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	sign := 1
	for k := 0; k < n; k++ {
		// Partial pivot: largest |value| in column k at or below row k.
		pr := k
		max := math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, k)); v > max {
				max, pr = v, i
			}
		}
		if max == 0 {
			return nil, ErrSingular
		}
		if pr != k {
			r1 := lu.Data[k*n : (k+1)*n]
			r2 := lu.Data[pr*n : (pr+1)*n]
			for j := range r1 {
				r1[j], r2[j] = r2[j], r1[j]
			}
			piv[k], piv[pr] = piv[pr], piv[k]
			sign = -sign
		}
		split(k+1, n, p, func(lo, hi int) { eliminate(lu.Data, n, k, lo, hi) })
	}
	return &LU{N: n, LU: lu, Pivot: piv, Signs: sign}, nil
}

// eliminate subtracts multiples of pivot row k from rows [lo, hi) of the
// n×n slab lu, storing each row's multiplier in its column k.
func eliminate(lu []float64, n, k, lo, hi int) {
	pivVal := lu[k*n+k]
	krow := lu[k*n+k+1 : (k+1)*n]
	for i := lo; i < hi; i++ {
		mult := lu[i*n+k] / pivVal
		lu[i*n+k] = mult
		if mult != 0 {
			axpy(-mult, krow, lu[i*n+k+1:(i+1)*n])
		}
	}
}

// Solve solves A*x = b for x given the factorization.
func (f *LU) Solve(b []float64) ([]float64, error) {
	if len(b) != f.N {
		return nil, ErrDimension
	}
	n := f.N
	x := make([]float64, n)
	// Apply permutation, then forward substitution (L is unit lower).
	for i := 0; i < n; i++ {
		x[i] = b[f.Pivot[i]]
	}
	for i := 1; i < n; i++ {
		row := f.LU.Data[i*n : (i+1)*n]
		s := x[i]
		for j := 0; j < i; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s
	}
	// Back substitution (U).
	for i := n - 1; i >= 0; i-- {
		row := f.LU.Data[i*n : (i+1)*n]
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		if row[i] == 0 {
			return nil, ErrSingular
		}
		x[i] = s / row[i]
	}
	return x, nil
}

// SolveMatrix solves A*X = B column by column.
func (f *LU) SolveMatrix(b *Matrix) (*Matrix, error) {
	if b.Rows != f.N {
		return nil, ErrDimension
	}
	out := New(b.Rows, b.Cols)
	col := make([]float64, b.Rows)
	for j := 0; j < b.Cols; j++ {
		for i := 0; i < b.Rows; i++ {
			col[i] = b.At(i, j)
		}
		x, err := f.Solve(col)
		if err != nil {
			return nil, err
		}
		for i := 0; i < b.Rows; i++ {
			out.Set(i, j, x[i])
		}
	}
	return out, nil
}

// Inverse computes A⁻¹ via LU decomposition.
func Inverse(a *Matrix) (*Matrix, error) {
	f, err := Factor(a, 1)
	if err != nil {
		return nil, err
	}
	return f.SolveMatrix(Identity(a.Rows))
}

// Solve solves A*x = b directly (factor + solve).
func Solve(a *Matrix, b []float64) ([]float64, error) {
	f, err := Factor(a, 1)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// Residual returns ||A*x - b||∞, a correctness measure for solver results.
func Residual(a *Matrix, x, b []float64) (float64, error) {
	ax, err := a.MulVec(x)
	if err != nil {
		return 0, err
	}
	if len(b) != len(ax) {
		return 0, ErrDimension
	}
	var max float64
	for i := range ax {
		if d := math.Abs(ax[i] - b[i]); d > max {
			max = d
		}
	}
	return max, nil
}

// String renders a small matrix for debugging.
func (m *Matrix) String() string {
	s := fmt.Sprintf("Matrix %dx%d", m.Rows, m.Cols)
	if m.Rows*m.Cols <= 64 {
		for i := 0; i < m.Rows; i++ {
			s += "\n "
			for j := 0; j < m.Cols; j++ {
				s += fmt.Sprintf("%8.3f", m.At(i, j))
			}
		}
	}
	return s
}
