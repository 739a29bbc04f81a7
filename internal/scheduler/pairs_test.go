package scheduler

// Transfer pricing through the per-schedule site-pair table: it must price
// every transfer exactly as Network.TransferTime does, keep a schedule's
// tables independent of network edits to pairs it never uses, and never let
// a child start before its parent's data can arrive.

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/afg"
	"repro/internal/netsim"
)

// randomSpec draws a valid path: latencies from zero to near the largest
// Duration, bandwidths from a few bytes to terabytes per second.
func randomSpec(rng *rand.Rand) netsim.PathSpec {
	lat := time.Duration(rng.Int63n(int64(time.Second)))
	switch rng.Intn(8) {
	case 0:
		lat = 0
	case 1:
		lat = time.Duration(math.MaxInt64 - rng.Int63n(int64(time.Hour)))
	}
	return netsim.PathSpec{Latency: lat, Bandwidth: math.Pow(10, rng.Float64()*15-3)}
}

// Property: over random paths and byte counts — negative, zero, huge — the
// pair table prices every transfer bit for bit as Network.TransferTime
// does, whether the pair is one site's LAN, an unknown pair's default or a
// connected path, and across resets of one reused table.
func TestSitePairsMatchTransferTime(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	fixed := []int64{math.MinInt64, -1, 0, 1, 4096, 1 << 40, math.MaxInt64 / 2, math.MaxInt64}
	all := make([]string, 12) // past the table's first width, so it widens
	for i := range all {
		all[i] = fmt.Sprintf("s%02d", i)
	}
	var sp sitePairs
	for trial := 0; trial < 300; trial++ {
		net := netsim.New(randomSpec(rng), 1)
		names := all[:1+rng.Intn(len(all))]
		for _, a := range names {
			for _, b := range names {
				if a != b && rng.Intn(2) == 0 {
					net.SetPath(a, b, randomSpec(rng))
				}
			}
		}
		sp.reset(net)
		for k := 0; k < 64; k++ {
			a, b := names[rng.Intn(len(names))], names[rng.Intn(len(names))]
			bytes := fixed[rng.Intn(len(fixed))]
			if rng.Intn(2) == 0 {
				bytes = rng.Int63() >> rng.Intn(63)
			}
			got := sp.seconds(sp.id(a), sp.id(b), bytes)
			want := net.TransferTime(a, b, bytes).Seconds()
			if math.Float64bits(got) != math.Float64bits(want) || got < 0 {
				t.Fatalf("trial %d: %s→%s %d bytes over %v: table %v, network %v",
					trial, a, b, bytes, net.Path(a, b), got, want)
			}
		}
	}
}

// Batch workers price transfers from their own tables while another
// goroutine edits the network: every table replays under the validator, and
// the tables that do not depend on worker interleaving (all but ledger's)
// equal a serial run's. Run under -race.
func TestBatchPricesWhileNetworkChanges(t *testing.T) {
	graphs := make([]*afg.Graph, 8)
	for i := range graphs {
		graphs[i] = equivGraph(t, 60, 6, int64(i+1))
	}
	for _, policy := range []string{"eft", "ledger", "heft", "cpop"} {
		env, repos, net := equivEnv(t, 3)
		serial := runBatch(t, policy, env, 1, graphs)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 1; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				// A pair no schedule here uses: sites outside every selector.
				net.Connect("unused-east", "unused-west", netsim.PathSpec{Latency: time.Duration(k%7+1) * time.Millisecond, Bandwidth: 1e6})
				runtime.Gosched()
			}
		}()
		items := runBatch(t, policy, env, 4, graphs)
		close(stop)
		wg.Wait()
		for i, it := range items {
			if it.Err != nil {
				t.Fatalf("%s graph %d: %v", policy, i, it.Err)
			}
			if _, err := ValidateSchedule(graphs[i], it.Table, heftTruth(repos), net); err != nil {
				t.Fatalf("%s graph %d: %v", policy, i, err)
			}
			if policy != "ledger" {
				tablesEqual(t, fmt.Sprintf("%s graph %d", policy, i), it.Table, serial[i].Table)
			}
		}
	}
}

// A link too large for any transfer to finish saturates at the largest
// Duration rather than wrapping negative: the executor and the validator
// both hold the child until the (never-arriving) data is in, instead of
// agreeing on a child that starts before its parent's output exists.
func TestHugeTransferHoldsTheChild(t *testing.T) {
	g := afg.New("huge")
	for _, id := range []afg.TaskID{"a", "b"} {
		if err := g.AddTask(&afg.Task{ID: id, Function: "f", ComputeCost: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddLink(afg.Link{From: "a", To: "b", Bytes: math.MaxInt64}); err != nil {
		t.Fatal(err)
	}
	table := NewAllocationTable("huge")
	table.Set(Assignment{Task: "a", Site: "syracuse", Host: "s1"})
	table.Set(Assignment{Task: "b", Site: "rome", Host: "r1"})
	net := netsim.NYNET(1)
	mk, err := Simulate(g, table, unitModel, net)
	if err != nil {
		t.Fatal(err)
	}
	audit, err := ValidateSchedule(g, table, unitModel, net)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 + time.Duration(math.MaxInt64).Seconds() + 1
	if mk < want || audit.Makespan < want {
		t.Fatalf("makespan %v (executor), %v (validator); the child cannot finish before %v", mk, audit.Makespan, want)
	}
	if b, _ := audit.Span("b"); b.Start < 1+time.Duration(math.MaxInt64).Seconds() {
		t.Fatalf("b starts at %v, before a's output can arrive", b.Start)
	}
}

// BenchmarkTransferPricing prices the same arcs through Network.TransferTime
// (a read lock and a nested string-keyed map per call) and through a pair
// table per goroutine (one slice read), from every core at once, the way
// batch workers price: the gap is the contention the table removes.
func BenchmarkTransferPricing(b *testing.B) {
	sites := make([]string, 32)
	for i := range sites {
		sites[i] = fmt.Sprintf("site%02d", i)
	}
	net := netsim.StarTopology(sites, 5*time.Millisecond, 1e7, 1)
	rng := rand.New(rand.NewSource(1))
	type arc struct {
		from, to string
		bytes    int64
	}
	arcs := make([]arc, 4096)
	for i := range arcs {
		arcs[i] = arc{sites[rng.Intn(len(sites))], sites[rng.Intn(len(sites))], rng.Int63n(1 << 24)}
	}
	b.Run("network", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			var sink float64
			for k := 0; pb.Next(); k++ {
				a := &arcs[k%len(arcs)]
				sink += net.TransferTime(a.from, a.to, a.bytes).Seconds()
			}
			if sink < 0 {
				b.Error("negative transfer")
			}
		})
	})
	b.Run("pairs", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			var sp sitePairs
			sp.reset(net)
			ids := make([][2]int32, len(arcs))
			for i, a := range arcs {
				ids[i] = [2]int32{sp.id(a.from), sp.id(a.to)}
			}
			var sink float64
			for k := 0; pb.Next(); k++ {
				i := k % len(arcs)
				sink += sp.seconds(ids[i][0], ids[i][1], arcs[i].bytes)
			}
			if sink < 0 {
				b.Error("negative transfer")
			}
		})
	})
}
