package matrix

// Reference helpers that only this package's tests call: a constructor from
// row literals, element-wise subtraction and scaling, the infinity norm, and
// the determinant and triangular factors of an LU factorization.

import "math"

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, ErrDimension
	}
	m := New(len(rows), len(rows[0]))
	for i, row := range rows {
		if len(row) != m.Cols {
			return nil, ErrDimension
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], row)
	}
	return m, nil
}

// Sub returns m - n.
func (m *Matrix) Sub(n *Matrix) (*Matrix, error) {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		return nil, ErrDimension
	}
	out := New(m.Rows, m.Cols)
	for i := range m.Data {
		out.Data[i] = m.Data[i] - n.Data[i]
	}
	return out, nil
}

// Scale returns s*m.
func (m *Matrix) Scale(s float64) *Matrix {
	out := New(m.Rows, m.Cols)
	for i := range m.Data {
		out.Data[i] = s * m.Data[i]
	}
	return out
}

// NormInf returns the infinity (max absolute row sum) norm.
func (m *Matrix) NormInf() float64 {
	var max float64
	for i := 0; i < m.Rows; i++ {
		var s float64
		for _, v := range m.Data[i*m.Cols : (i+1)*m.Cols] {
			s += math.Abs(v)
		}
		if s > max {
			max = s
		}
	}
	return max
}

// Det returns the determinant of the factored matrix.
func (f *LU) Det() float64 {
	d := float64(f.Signs)
	for i := 0; i < f.N; i++ {
		d *= f.LU.At(i, i)
	}
	return d
}

// L extracts the unit lower-triangular factor.
func (f *LU) L() *Matrix {
	n := f.N
	l := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			l.Set(i, j, f.LU.At(i, j))
		}
		l.Set(i, i, 1)
	}
	return l
}

// U extracts the upper-triangular factor.
func (f *LU) U() *Matrix {
	n := f.N
	u := New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			u.Set(i, j, f.LU.At(i, j))
		}
	}
	return u
}
