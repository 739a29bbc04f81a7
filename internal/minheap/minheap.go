// Package minheap is the one binary min-heap under every dense hot loop —
// the graph index's topological frontier, the simulator's event queue, the
// ready-set walks' priority heaps. It is deliberately not container/heap:
// elements order themselves through a concrete LessThan method, so pushes
// and pops stay boxing-free and the comparisons inline into the loops.
package minheap

// Ordered is the element contract: a strict-weak "a sorts before b".
type Ordered[T any] interface{ LessThan(T) bool }

// Heap is a slice-backed binary min-heap. The zero value is ready to use;
// bulk-load by appending, then Init.
type Heap[T Ordered[T]] []T

// Init establishes the heap order over the current contents.
func (h Heap[T]) Init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// Push adds v, keeping the heap order.
func (h *Heap[T]) Push(v T) {
	*h = append(*h, v)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !s[i].LessThan(s[p]) {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

// Pop removes and returns the minimum element.
func (h *Heap[T]) Pop() T {
	s := *h
	v := s[0]
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	*h = s[:n]
	(*h).down(0)
	return v
}

func (h Heap[T]) down(i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && h[r].LessThan(h[l]) {
			m = r
		}
		if !h[m].LessThan(h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
