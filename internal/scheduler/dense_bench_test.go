package scheduler

// Micro-benchmarks for the dense scheduling core's hot paths: rank
// computation, timeline insertion, cost-matrix assembly, and ledger
// contention. All report allocations — the dense rewrite's claim is as
// much about allocation pressure as about time.

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/dagen"
)

// rankBenchRequest is the 1000-task scale graph on the equivEnv pool.
func rankBenchRequest(b testing.TB) *Request {
	b.Helper()
	req, _, _ := equivEnv(b, 1)
	req.Graph = dagen.Scale(1000, 25, 12, 42)
	return req
}

func rankBenchSetup(b testing.TB) *CostMatrix {
	b.Helper()
	req := rankBenchRequest(b)
	ix, err := req.Graph.Index()
	if err != nil {
		b.Fatal(err)
	}
	cm, err := req.costMatrix(ix)
	if err != nil {
		b.Fatal(err)
	}
	return cm
}

// BenchmarkRankU — rank_u over a 1000-task scale graph on the dense
// matrix: one reverse-topo sweep, no maps.
func BenchmarkRankU(b *testing.B) {
	cm := rankBenchSetup(b)
	c := commModel{latency: 5e-3, perByte: 1e-7}
	b.ReportAllocs()
	b.ResetTimer()
	var buf []float64
	for i := 0; i < b.N; i++ {
		buf = upwardRanks(cm, c, nil, buf)
		if len(buf) != cm.ix.Len() {
			b.Fatal("short rank vector")
		}
	}
}

// BenchmarkTimelineInsertion — the insertion-scheduling pattern on one
// host timeline: reserve ahead, then probe gaps at interleaved ready
// times (binary-search entry + local scan).
func BenchmarkTimelineInsertion(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	starts := make([]float64, 512)
	for i := range starts {
		starts[i] = rng.Float64() * 1000
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var tl timeline
		cursor := 0.0
		for k := 0; k < 256; k++ {
			cursor += 2
			tl.add(cursor, cursor+1)
		}
		var sink float64
		for _, ready := range starts {
			sink += tl.earliest(ready, 0.5)
		}
		if sink < 0 {
			b.Fatal("impossible")
		}
	}
}

// BenchmarkCostMatrixBuild — the batched per-(task, host) gather for the
// POLICY experiment's graph shape against a 4-site environment.
func BenchmarkCostMatrixBuild(b *testing.B) {
	req, _, _ := equivEnv(b, 1)
	req.Graph = dagen.Scale(1000, 25, 12, 42)
	ix, err := req.Graph.Index()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gatherCostMatrix(ix, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLedgerContention — parallel Reserve/Busy/Release traffic over
// a 128-host pool: the workload the striped ledger exists for.
func BenchmarkLedgerContention(b *testing.B) {
	hosts := make([]string, 128)
	for i := range hosts {
		hosts[i] = fmt.Sprintf("site%02d-%02d", i/4, i%4)
	}
	l := NewLoadLedger()
	var cursor atomic.Uint64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		seq := cursor.Add(1)
		rng := rand.New(rand.NewSource(int64(seq)))
		for pb.Next() {
			h := hosts[rng.Intn(len(hosts))]
			l.Reserve(h, 1.5)
			_ = l.Busy(h)
			l.Release(h, 1.5)
		}
	})
}

// BenchmarkLedgerViewWalk — the EFT walk's read pattern: one Refresh per
// task, then candidate probes against the local snapshot.
func BenchmarkLedgerViewWalk(b *testing.B) {
	hosts := make([]string, 128)
	l := NewLoadLedger()
	for i := range hosts {
		hosts[i] = fmt.Sprintf("site%02d-%02d", i/4, i%4)
		l.Reserve(hosts[i], float64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := l.View()
		var sink float64
		for task := 0; task < 1000; task++ {
			v.Refresh()
			for _, h := range hosts[:32] {
				sink += v.Busy(h)
			}
			v.Reserve(hosts[task%len(hosts)], 0.25)
		}
		l.ReleaseTable(nil) // keep the ledger from growing across iterations
		for task := 0; task < 1000; task++ {
			l.Release(hosts[task%len(hosts)], 0.25)
		}
		if sink < 0 {
			b.Fatal("impossible")
		}
	}
}
