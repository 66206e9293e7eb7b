package ckt

import (
	"fmt"
	"math"
)

// dense is a square dense matrix in row-major storage. Circuit clusters in
// noise analysis are small (tens to a few hundred nodes), where dense LU
// with partial pivoting is simpler and faster than sparse machinery.
type dense struct {
	n int
	a []float64
}

func newDense(n int) *dense {
	return &dense{n: n, a: make([]float64, n*n)}
}

func (m *dense) add(i, j int, v float64) { m.a[i*m.n+j] += v }

func (m *dense) clone() *dense {
	c := newDense(m.n)
	copy(c.a, m.a)
	return c
}

// lu is an LU factorization with partial pivoting (Doolittle, in place).
type lu struct {
	m    *dense
	perm []int
}

// factor computes the LU decomposition of a copy of m. It returns an error
// when the matrix is numerically singular.
func factor(m *dense) (*lu, error) {
	f := &lu{m: m.clone(), perm: make([]int, m.n)}
	a, n := f.m.a, m.n
	for i := range f.perm {
		f.perm[i] = i
	}
	for k := 0; k < n; k++ {
		// Partial pivot.
		p, best := k, math.Abs(a[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(a[i*n+k]); v > best {
				p, best = i, v
			}
		}
		if best < 1e-300 {
			return nil, fmt.Errorf("ckt: singular matrix at pivot %d", k)
		}
		if p != k {
			f.perm[k], f.perm[p] = f.perm[p], f.perm[k]
			for j := 0; j < n; j++ {
				a[k*n+j], a[p*n+j] = a[p*n+j], a[k*n+j]
			}
		}
		inv := 1 / a[k*n+k]
		for i := k + 1; i < n; i++ {
			l := a[i*n+k] * inv
			a[i*n+k] = l
			if l == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				a[i*n+j] -= l * a[k*n+j]
			}
		}
	}
	return f, nil
}

// solve computes x with PAx = Pb, overwriting and returning a new slice.
func (f *lu) solve(b []float64) []float64 {
	n := f.m.n
	a := f.m.a
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = b[f.perm[i]]
	}
	// Forward substitution (L has unit diagonal).
	for i := 1; i < n; i++ {
		s := x[i]
		for j := 0; j < i; j++ {
			s -= a[i*n+j] * x[j]
		}
		x[i] = s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= a[i*n+j] * x[j]
		}
		x[i] = s / a[i*n+i]
	}
	return x
}

// mulAdd computes y = A·x + y0 into a fresh slice.
func (m *dense) mulAdd(x, y0 []float64) []float64 {
	out := make([]float64, m.n)
	for i := 0; i < m.n; i++ {
		s := y0[i]
		row := m.a[i*m.n : (i+1)*m.n]
		for j, v := range x {
			s += row[j] * v
		}
		out[i] = s
	}
	return out
}
