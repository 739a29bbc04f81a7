package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own code
// around the call. Spans of one op share Op; Parent is the span that made
// the call (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so traced and untraced ops run the same code. begin/end take the
// lock because the submit-2site replay reports RunTask calls from the
// runtime's per-task goroutines.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	op    int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: t.op, ID: id, Parent: parent,
		Start: time.Since(t.t0).Nanoseconds()})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// setOp tags the spans that follow with the op number.
func (t *tracer) setOp(op int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.op = op
	t.mu.Unlock()
}

// perOp returns, for each op that has a span of that name, the summed
// duration in ms of its spans of that name, in op order.
func (t *tracer) perOp(name string) []float64 {
	sums := map[int]float64{}
	for _, s := range t.spans {
		if s.Name == name {
			sums[s.Op] += s.ms()
		}
	}
	ops := make([]int, 0, len(sums))
	for op := range sums {
		ops = append(ops, op)
	}
	sort.Ints(ops)
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = sums[op]
	}
	return out
}

// perCall returns the duration in ms of every span of that name.
func (t *tracer) perCall(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.ms())
		}
	}
	return out
}

// childCoverage returns, for every span of that name, the share of its
// interval covered by its direct children; 1 − coverage is the span's self
// time. Children may overlap (concurrent calls), so their union is taken.
func (t *tracer) childCoverage(name string) []float64 {
	kids := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name != name || s.End <= s.Start {
			continue
		}
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered, upto int64 = 0, s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, upto), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				upto = hi
			}
		}
		out = append(out, float64(covered)/float64(s.End-s.Start))
	}
	return out
}

// write dumps the spans as one JSON document.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
