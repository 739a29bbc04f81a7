package scheduler

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/afg"
)

func benchGraph(n int) *afg.Graph {
	g := afg.New("bench")
	var prev afg.TaskID
	for i := 0; i < n; i++ {
		id := afg.TaskID(fmt.Sprintf("t%04d", i))
		g.AddTask(&afg.Task{ID: id, Function: "f", ComputeCost: 1 + float64(i%7), OutputBytes: 1 << 12})
		if i > 0 && i%3 != 0 {
			g.AddLink(afg.Link{From: prev, To: id, Bytes: 1 << 12})
		}
		prev = id
	}
	return g
}

func BenchmarkHostSelection64Tasks16Hosts(b *testing.B) {
	hosts := map[string][2]float64{}
	for i := 0; i < 16; i++ {
		hosts[fmt.Sprintf("h%02d", i)] = [2]float64{1 + float64(i%5), float64(i % 3)}
	}
	repo := makeRepo(b, "syr", hosts)
	sel := &LocalSelector{Site: "syr", Repo: repo}
	g := benchGraph(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sel.SelectHosts(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSiteSchedule64Tasks2Sites(b *testing.B) {
	s, _, _, _ := twoSiteSetup(b, 10*time.Millisecond)
	g := benchGraph(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runPolicy("faithful", s, g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulate64Tasks(b *testing.B) {
	s, _, _, net := twoSiteSetup(b, 10*time.Millisecond)
	g := benchGraph(64)
	table, err := runPolicy("faithful", s, g)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(g, table, unitModel, net); err != nil {
			b.Fatal(err)
		}
	}
}
