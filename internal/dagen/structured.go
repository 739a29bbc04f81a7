package dagen

import (
	"fmt"
	"math/rand"

	"repro/internal/afg"
)

// The structured application graphs of the evaluation suite. Their shapes
// are fixed by the algorithm (only costs and edge volumes are seeded), which
// is exactly why the paper scores schedulers on them next to the random
// suite: the random knobs cannot produce their characteristic skew — the
// shrinking fan-out of Gaussian elimination, the butterfly of the FFT.

// GaussianElimination builds the task graph of Gaussian elimination on an
// m×m matrix: for each elimination step k there is one pivot task and m−k
// row-update tasks; the pivot of step k+1 depends on step k's first update,
// and each update depends on its step's pivot plus the same-column update of
// the previous step. Total tasks: (m² + m − 2)/2. Costs and edge volumes are
// drawn from p's MeanCost/CCR knobs (p.Tasks and shape knobs are ignored —
// the matrix size fixes the shape).
func GaussianElimination(m int, p Params) (*afg.Graph, error) {
	if m < 2 {
		return nil, fmt.Errorf("dagen: gaussian elimination needs m >= 2, got %d", m)
	}
	p = p.withDefaults()
	rng := rand.New(rand.NewSource(p.Seed))
	b := newBuilder((m*m + m - 2) / 2)

	// Step k's tasks sit together: its pivot at row[k], then its updates
	// for columns k+1 .. m.
	row := make([]int, m)
	pivot := func(k int) int { return row[k] }
	update := func(k, j int) int { return row[k] + j - k }
	link := func(from, to int) { b.link(from, to, commBytes(rng, p)) }

	for k := 1; k < m; k++ {
		row[k] = b.noop(afg.TaskID(fmt.Sprintf("p%03d", k)), taskCost(rng, p.MeanCost))
		for j := k + 1; j <= m; j++ {
			b.noop(afg.TaskID(fmt.Sprintf("u%03d-%03d", k, j)), taskCost(rng, p.MeanCost))
		}
	}
	for k := 1; k < m; k++ {
		if k > 1 {
			link(update(k-1, k), pivot(k)) // step k pivots on the previous step's first column
		}
		for j := k + 1; j <= m; j++ {
			link(pivot(k), update(k, j))
			if k > 1 {
				link(update(k-1, j), update(k, j))
			}
		}
	}
	return b.build(fmt.Sprintf("gauss-m%d", m))
}

// FFT builds the task graph of a radix-2 fast Fourier transform on `points`
// input points (a power of two): the recursive-call binary tree (2·points−1
// tasks, the root is the single entry) followed by log₂(points) butterfly
// levels of `points` tasks each, every butterfly reading its own lane and
// its stride partner. Total tasks: 2·points − 1 + points·log₂(points).
func FFT(points int, p Params) (*afg.Graph, error) {
	if points < 2 || points&(points-1) != 0 {
		return nil, fmt.Errorf("dagen: FFT needs a power-of-two point count >= 2, got %d", points)
	}
	p = p.withDefaults()
	rng := rand.New(rand.NewSource(p.Seed))

	logn := 0
	for 1<<logn < points {
		logn++
	}
	b := newBuilder(2*points - 1 + points*logn)
	add := func(id afg.TaskID) int { return b.noop(id, taskCost(rng, p.MeanCost)) }
	link := func(from, to int) { b.link(from, to, commBytes(rng, p)) }

	// Divide phase: binary tree, level d has 2^d call tasks, added level by
	// level from index 0.
	call := func(d, i int) int { return 1<<d - 1 + i }
	for d := 0; d <= logn; d++ {
		for i := 0; i < 1<<d; i++ {
			c := add(afg.TaskID(fmt.Sprintf("c%02d-%04d", d, i)))
			if d > 0 {
				link(call(d-1, i/2), c)
			}
		}
	}
	// Butterfly phase: level l combines lanes at stride 2^(l-1); every lane
	// reads itself and its partner from the level below (the tree leaves for
	// l = 1). The levels follow the tree, `points` tasks each.
	fly := func(l, i int) int { return 2*points - 1 + (l-1)*points + i }
	for l := 1; l <= logn; l++ {
		stride := 1 << (l - 1)
		for i := 0; i < points; i++ {
			add(afg.TaskID(fmt.Sprintf("b%02d-%04d", l, i)))
		}
		for i := 0; i < points; i++ {
			self, partner := i, i^stride
			if l == 1 {
				link(call(logn, self), fly(l, i))
				link(call(logn, partner), fly(l, i))
			} else {
				link(fly(l-1, self), fly(l, i))
				link(fly(l-1, partner), fly(l, i))
			}
		}
	}
	return b.build(fmt.Sprintf("fft-n%d", points))
}
