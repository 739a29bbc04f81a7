package netsim

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestPathSameSiteUsesLAN(t *testing.T) {
	n := New(DefaultLAN, 1)
	p := n.Path("syr", "syr")
	if p != DefaultLAN {
		t.Fatalf("p = %v", p)
	}
}

func TestPathUnknownIsConservative(t *testing.T) {
	n := New(DefaultLAN, 1)
	p := n.Path("a", "b")
	if p.Latency < 50*time.Millisecond {
		t.Fatalf("unknown path should be slow, got %v", p)
	}
}

func TestConnectSymmetric(t *testing.T) {
	n := New(DefaultLAN, 1)
	spec := PathSpec{Latency: 7 * time.Millisecond, Bandwidth: 1e6}
	n.Connect("a", "b", spec)
	if n.Path("a", "b") != spec || n.Path("b", "a") != spec {
		t.Fatal("asymmetric after Connect")
	}
}

func TestTransferTime(t *testing.T) {
	n := New(DefaultLAN, 1)
	n.Connect("a", "b", PathSpec{Latency: 10 * time.Millisecond, Bandwidth: 1e6})
	// 1 MB over 1 MB/s = 1 s + 10 ms.
	got := n.TransferTime("a", "b", 1e6)
	want := time.Second + 10*time.Millisecond
	if got != want {
		t.Fatalf("got %v, want %v", got, want)
	}
	// Zero bytes = pure latency; negative bytes are clamped.
	if n.TransferTime("a", "b", 0) != 10*time.Millisecond {
		t.Fatal("zero-byte transfer should be latency only")
	}
	if n.TransferTime("a", "b", -5) != 10*time.Millisecond {
		t.Fatal("negative bytes should clamp to zero")
	}
}

func TestIntraSiteCheaperThanWAN(t *testing.T) {
	n := NYNET(1)
	local := n.TransferTime("syracuse", "syracuse", 1<<20)
	remote := n.TransferTime("syracuse", "rome", 1<<20)
	if local >= remote {
		t.Fatalf("LAN (%v) should beat WAN (%v)", local, remote)
	}
}

func TestInjectDelayScales(t *testing.T) {
	n := New(DefaultLAN, 0.001)
	n.Connect("a", "b", PathSpec{Latency: 100 * time.Millisecond, Bandwidth: 1e9})
	start := time.Now()
	n.InjectDelay("a", "b", 0)
	elapsed := time.Since(start)
	if elapsed > 50*time.Millisecond {
		t.Fatalf("scaled delay too long: %v", elapsed)
	}
}

func TestScaleDefaultsToOne(t *testing.T) {
	n := New(DefaultLAN, -3)
	if n.Scale() != 1 {
		t.Fatalf("scale = %v", n.Scale())
	}
}

func TestNearestOrdering(t *testing.T) {
	n := New(DefaultLAN, 1)
	n.Connect("home", "far", PathSpec{Latency: 50 * time.Millisecond, Bandwidth: 1e6})
	n.Connect("home", "near", PathSpec{Latency: 5 * time.Millisecond, Bandwidth: 1e6})
	n.Connect("home", "mid", PathSpec{Latency: 20 * time.Millisecond, Bandwidth: 1e6})
	got := n.Nearest("home", 2)
	if len(got) != 2 || got[0] != "near" || got[1] != "mid" {
		t.Fatalf("nearest = %v", got)
	}
	all := n.Nearest("home", 10)
	if len(all) != 3 || all[2] != "far" {
		t.Fatalf("nearest(10) = %v", all)
	}
	if len(n.Nearest("isolated", 3)) != 0 {
		t.Fatal("isolated site should have no neighbours")
	}
}

func TestNearestTieBreaksByName(t *testing.T) {
	n := New(DefaultLAN, 1)
	spec := PathSpec{Latency: 5 * time.Millisecond, Bandwidth: 1e6}
	n.Connect("home", "zeta", spec)
	n.Connect("home", "alpha", spec)
	got := n.Nearest("home", 2)
	if got[0] != "alpha" || got[1] != "zeta" {
		t.Fatalf("tie break wrong: %v", got)
	}
}

func TestStarTopologyDistances(t *testing.T) {
	sites := []string{"s0", "s1", "s2", "s3"}
	n := StarTopology(sites, 10*time.Millisecond, 1e6, 1)
	if n.Path("s0", "s1").Latency != 10*time.Millisecond {
		t.Fatal("adjacent latency wrong")
	}
	if n.Path("s0", "s3").Latency != 30*time.Millisecond {
		t.Fatal("distant latency wrong")
	}
	near := n.Nearest("s0", 3)
	if len(near) != 3 || near[0] != "s1" {
		t.Fatalf("near = %v", near)
	}
}

func TestNYNETSites(t *testing.T) {
	n := NYNET(1)
	sites := n.Sites()
	if len(sites) != 3 {
		t.Fatalf("sites = %v", sites)
	}
	if n.Path("syracuse", "rome").Latency >= n.Path("syracuse", "nyc").Latency {
		t.Fatal("rome should be nearer syracuse than nyc")
	}
}

// A transfer that cannot fit a Duration saturates at the largest one
// instead of wrapping negative: an enormous byte count on a real path, and
// a path with no bandwidth, whatever the byte count.
func TestTransferSaturates(t *testing.T) {
	const never = time.Duration(math.MaxInt64)
	n := NYNET(1)
	if got := n.TransferTime("syracuse", "rome", math.MaxInt64); got != never {
		t.Fatalf("MaxInt64 bytes syracuse→rome = %v, want %v", got, never)
	}
	if got := n.TransferTime("syracuse", "syracuse", math.MaxInt64); got != never {
		t.Fatalf("MaxInt64 bytes over the LAN = %v, want %v", got, never)
	}
	for _, bytes := range []int64{0, 1, 1 << 20} {
		if got := (PathSpec{Latency: time.Millisecond}).Transfer(bytes); got != never {
			t.Fatalf("%d bytes with no bandwidth = %v, want %v", bytes, got, never)
		}
	}
	if got := (PathSpec{Latency: never - time.Nanosecond, Bandwidth: 1}).Transfer(1); got != never {
		t.Fatalf("latency near the limit plus 1 s = %v, want %v", got, never)
	}
}

// A path that is not a positive finite rate, or runs back in time, is a
// programming error: SetPath, Connect and New refuse it, naming the pair.
func TestPathSpecRefusesNonRates(t *testing.T) {
	bad := []PathSpec{
		{Latency: time.Millisecond, Bandwidth: 0},
		{Latency: time.Millisecond, Bandwidth: -1e6},
		{Latency: time.Millisecond, Bandwidth: math.NaN()},
		{Latency: time.Millisecond, Bandwidth: math.Inf(1)},
		{Latency: -time.Millisecond, Bandwidth: 1e6},
	}
	mustPanic := func(what, name string, f func()) {
		t.Helper()
		defer func() {
			t.Helper()
			r := recover()
			if r == nil {
				t.Fatalf("%s accepted it", what)
			}
			if msg := fmt.Sprint(r); !strings.Contains(msg, name) {
				t.Fatalf("%s panicked with %q, which does not name %s", what, msg, name)
			}
		}()
		f()
	}
	for _, spec := range bad {
		n := New(DefaultLAN, 1)
		mustPanic(fmt.Sprintf("SetPath(%v)", spec), "a→b", func() { n.SetPath("a", "b", spec) })
		mustPanic(fmt.Sprintf("Connect(%v)", spec), "a→b", func() { n.Connect("a", "b", spec) })
		mustPanic(fmt.Sprintf("New(%v)", spec), "LAN", func() { New(spec, 1) })
		if p := n.Path("a", "b"); p.Bandwidth <= 0 {
			t.Fatalf("a refused spec was installed: %v", p)
		}
	}
}

// Property: TransferTime is monotone in bytes and always >= latency.
func TestPropertyTransferMonotone(t *testing.T) {
	n := NYNET(1)
	f := func(b1, b2 int64) bool {
		if b1 < 0 {
			b1 = -b1
		}
		if b2 < 0 {
			b2 = -b2
		}
		b1 %= 1 << 30
		b2 %= 1 << 30
		if b1 > b2 {
			b1, b2 = b2, b1
		}
		t1 := n.TransferTime("syracuse", "rome", b1)
		t2 := n.TransferTime("syracuse", "rome", b2)
		return t1 <= t2 && t1 >= n.Path("syracuse", "rome").Latency
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
