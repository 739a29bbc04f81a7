package resource

import (
	"errors"
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func testHost(seed int64) *Host {
	return NewHost(HostSpec{
		Name: "h1", Site: "syracuse", Arch: ArchSolaris,
		TotalMemory: 1 << 20, SpeedFactor: 2,
	}, DefaultLoadModel, seed)
}

func TestNewHostDefaultsSpeed(t *testing.T) {
	h := NewHost(HostSpec{Name: "x"}, DefaultLoadModel, 1)
	if h.Spec.SpeedFactor != 1 {
		t.Fatalf("speed = %v", h.Spec.SpeedFactor)
	}
}

func TestStepLoadStaysNonNegative(t *testing.T) {
	h := NewHost(HostSpec{Name: "x"}, LoadModel{Baseline: 0.05, Volatility: 0.5, Rho: 0.1}, 7)
	for i := 0; i < 1000; i++ {
		if l := h.StepLoad(); l < 0 {
			t.Fatalf("negative load %v at step %d", l, i)
		}
	}
}

func TestStepLoadTracksBaseline(t *testing.T) {
	h := NewHost(HostSpec{Name: "x"}, LoadModel{Baseline: 0.6, Volatility: 0.01, Rho: 0.5}, 3)
	var sum float64
	const n = 5000
	for i := 0; i < n; i++ {
		sum += h.StepLoad()
	}
	mean := sum / n
	if math.Abs(mean-0.6) > 0.1 {
		t.Fatalf("mean load %v, want ≈0.6", mean)
	}
}

func TestBeginEndTaskAccounting(t *testing.T) {
	h := testHost(1)
	if err := h.BeginTask(512 << 10); err != nil {
		t.Fatal(err)
	}
	if got := h.AvailableMemory(); got != (1<<20)-(512<<10) {
		t.Fatalf("avail = %d", got)
	}
	if h.Load() < 1 {
		t.Fatalf("task load not reflected: %v", h.Load())
	}
	h.EndTask(512 << 10)
	if got := h.AvailableMemory(); got != 1<<20 {
		t.Fatalf("avail after end = %d", got)
	}
}

func TestBeginTaskOutOfMemory(t *testing.T) {
	h := testHost(2)
	if err := h.BeginTask(2 << 20); err == nil {
		t.Fatal("expected out-of-memory error")
	}
}

// TestBeginTaskRefusesNegativeAndWrappingMemory: a negative request is
// refused with ErrNegativeMemory and claims nothing, so a 1 TB request after
// it is still out of memory on a 1 GB host; on a host with one byte in use, a
// request of MaxInt64 is out of memory, not a sum that wraps below the total.
func TestBeginTaskRefusesNegativeAndWrappingMemory(t *testing.T) {
	h := NewHost(HostSpec{Name: "h", TotalMemory: 1 << 30}, DefaultLoadModel, 1)
	if err := h.BeginTask(-1 << 40); !errors.Is(err, ErrNegativeMemory) {
		t.Fatalf("BeginTask(-1<<40) = %v, want ErrNegativeMemory", err)
	}
	if err := h.BeginTask(1 << 40); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("BeginTask(1<<40) after a refused negative request = %v, want ErrOutOfMemory", err)
	}
	if err := h.BeginTask(1); err != nil {
		t.Fatal(err)
	}
	if err := h.BeginTask(math.MaxInt64); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("BeginTask(MaxInt64) with 1 byte used = %v, want ErrOutOfMemory", err)
	}
	if got := h.AvailableMemory(); got != 1<<30-1 {
		t.Fatalf("available = %d, want %d: a refused request claimed memory", got, 1<<30-1)
	}
}

func TestBeginTaskOnDownHost(t *testing.T) {
	h := testHost(3)
	h.SetDown(true)
	if err := h.BeginTask(1); err == nil {
		t.Fatal("expected error on down host")
	}
	h.SetDown(false)
	if err := h.BeginTask(1); err != nil {
		t.Fatal(err)
	}
}

func TestEndTaskClampsAtZero(t *testing.T) {
	h := testHost(4)
	h.EndTask(100) // never began
	if h.AvailableMemory() != 1<<20 {
		t.Fatal("memory went negative-used")
	}
	if h.Load() < 0 {
		t.Fatal("load went negative")
	}
}

func TestEffectiveSecondsScalesWithLoad(t *testing.T) {
	h := NewHost(HostSpec{Name: "x", TotalMemory: 1 << 30}, LoadModel{}, 5)
	idle := h.EffectiveSeconds(10, 2)
	if math.Abs(idle-20) > 1e-9 { // 10 × 2 × (1+0)
		t.Fatalf("idle = %v", idle)
	}
	if err := h.BeginTask(0); err != nil {
		t.Fatal(err)
	}
	busy := h.EffectiveSeconds(10, 2)
	if math.Abs(busy-40) > 1e-9 { // 10 × 2 × (1+1)
		t.Fatalf("busy = %v", busy)
	}
}

func TestConcurrentHostAccess(t *testing.T) {
	h := NewHost(HostSpec{Name: "x", TotalMemory: 1 << 30}, DefaultLoadModel, 6)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				if err := h.BeginTask(1024); err == nil {
					h.StepLoad()
					h.EndTask(1024)
				}
			}
		}()
	}
	wg.Wait()
	if h.AvailableMemory() != 1<<30 {
		t.Fatalf("memory leaked: %d", h.AvailableMemory())
	}
}

func TestPoolAddDuplicate(t *testing.T) {
	p := NewPool()
	if err := p.Add(testHost(1)); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(testHost(2)); err == nil {
		t.Fatal("expected duplicate error")
	}
}

func TestPoolOrderAndUp(t *testing.T) {
	p := GenerateSite("rome", 6, 4, 11)
	names := p.Names()
	if len(names) != 6 {
		t.Fatalf("names = %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names unsorted: %v", names)
		}
	}
	p.Get(names[2]).SetDown(true)
	for i, h := range p.Hosts() {
		if h.Spec.Name != names[i] {
			t.Fatalf("host %d is %s, want %s", i, h.Spec.Name, names[i])
		}
		if h.IsDown() != (i == 2) {
			t.Fatalf("host %s down = %v", h.Spec.Name, h.IsDown())
		}
	}
}

func TestGenerateSiteDeterministic(t *testing.T) {
	a := GenerateSite("syr", 8, 4, 99)
	b := GenerateSite("syr", 8, 4, 99)
	for _, name := range a.Names() {
		ha, hb := a.Get(name), b.Get(name)
		if ha.Spec != hb.Spec {
			t.Fatalf("specs differ for %s: %+v vs %+v", name, ha.Spec, hb.Spec)
		}
	}
}

func TestGenerateSiteSpreadClamped(t *testing.T) {
	p := GenerateSite("x", 4, 0.1, 1)
	for _, h := range p.Hosts() {
		if h.Spec.SpeedFactor < 1 || h.Spec.SpeedFactor > 1.0001 {
			t.Fatalf("speed %v outside clamped spread", h.Spec.SpeedFactor)
		}
	}
}

// Property: speed factors land in [1, spread] and memory is one of the
// generated sizes.
func TestPropertyGenerateSiteBounds(t *testing.T) {
	f := func(seed int64) bool {
		p := GenerateSite("s", 10, 8, seed)
		for _, h := range p.Hosts() {
			if h.Spec.SpeedFactor < 1 || h.Spec.SpeedFactor > 8 {
				return false
			}
			mb := h.Spec.TotalMemory >> 20
			if mb < 64 || mb > 256 {
				return false
			}
			if h.Spec.Site != "s" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
