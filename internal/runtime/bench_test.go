package runtime

import (
	"context"
	"testing"

	"repro/internal/dagen"
)

// BenchmarkExecute runs a 1,000-task synthetic.noop graph on 16 hosts: the
// runtime's own cost per task, launch to delivery, with no work in the task.
func BenchmarkExecute(b *testing.B) {
	g := dagen.Random(dagen.Params{Tasks: 1000, CCR: 1, OutDegree: 4, Seed: 1})
	hosts := make([]string, 16)
	for i := range hosts {
		hosts[i] = string(rune('A' + i))
	}
	_, resolve := testCluster(len(hosts))
	table := spreadTable(g, hosts)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := Execute(context.Background(), g, table, Options{Hosts: resolve}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*g.Len()), "ns/task")
}
