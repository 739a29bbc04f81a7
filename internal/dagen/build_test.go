package dagen

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/afg"
)

// A generator whose ids collide used to drop the refused AddTask and hand
// back a smaller graph. Through the builder the refusal surfaces: as the
// error where the generator returns one, as a panic where it cannot.
func TestBuilderFailsLoudlyOnCollidingID(t *testing.T) {
	collide := func() *builder {
		b := newBuilder(3)
		b.noop("t00000", 1)
		b.noop("t00001", 1)
		b.noop("t00000", 1) // what a too-narrow id format would produce
		b.link(0, 1, 10)
		return b
	}
	if g, err := collide().build("collide"); g != nil || !errors.Is(err, afg.ErrDuplicateTask) {
		t.Fatalf("build = %v, %v; want no graph and ErrDuplicateTask", g, err)
	}
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), afg.ErrDuplicateTask.Error()) {
			t.Fatalf("mustBuild recovered %v, want a panic naming the duplicate id", r)
		}
	}()
	collide().mustBuild("collide")
}

// A refused link is as loud as a refused task.
func TestBuilderFailsLoudlyOnRefusedLink(t *testing.T) {
	b := newBuilder(2)
	b.noop("a", 1)
	b.noop("b", 1)
	b.link(0, 1, 10)
	b.link(0, 1, 10)
	if _, err := b.build("twice"); !errors.Is(err, afg.ErrDuplicateLink) {
		t.Fatalf("err = %v, want ErrDuplicateLink", err)
	}
}

// TestLargeGraphIngestInBoundedTime: generate, encode, decode and index a
// 50k-task graph. With one reachability walk per link this took some ten
// minutes (33 s to decode 16k tasks, growing faster than the square); with
// one Kahn pass per graph it takes under two seconds. The 10 s limit sits
// between the two with room on both sides, so it bounds the algorithm rather
// than timing the machine.
func TestLargeGraphIngestInBoundedTime(t *testing.T) {
	if testing.Short() || underRace {
		t.Skip("50k-task graph")
	}
	ingest := func() error {
		g := Random(Params{Tasks: 50_000, CCR: 1, Alpha: 1, OutDegree: 4, Seed: 3})
		data, err := g.Encode()
		if err != nil {
			return err
		}
		back, err := afg.Decode(data)
		if err != nil {
			return err
		}
		ix, err := back.Index()
		if err == nil && ix.Len() != 50_000 {
			err = fmt.Errorf("index holds %d tasks", ix.Len())
		}
		return err
	}
	done := make(chan error, 1)
	go func() { done <- ingest() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("50k-task generate/encode/decode/index still running after 10s")
	}
}

var underRace bool // set by race_test.go when the race detector is on

var benchGraph *afg.Graph

// BenchmarkRandom reports generation cost per task from 1k tasks to the XL
// scale point's 100k, so the slope is readable: assembly is linear in the
// graph, and what growth is left is the generator's own rng.Perm over the
// next level, O(√v) per task.
func BenchmarkRandom(b *testing.B) {
	for _, n := range []int{1000, 4000, 16000, 100_000} {
		b.Run(fmt.Sprintf("tasks=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchGraph = Random(Params{Tasks: n, CCR: 1, Alpha: 1, OutDegree: 4, Seed: 1})
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/task")
		})
	}
}
