package scheduler

import (
	"context"
	"errors"
	"sort"
	"strings"
	"testing"
)

// stubPolicy is a registerable no-op for registry tests.
type stubPolicy struct{ name string }

func (p stubPolicy) Name() string { return p.name }
func (p stubPolicy) Schedule(context.Context, *Request) (*AllocationTable, error) {
	return nil, errors.New("stub")
}

func TestRegisterDuplicatePanics(t *testing.T) {
	Register(stubPolicy{name: "test-registry-dup"})
	t.Cleanup(func() { // the registry outlives the test; -count=N registers again
		policies.mu.Lock()
		defer policies.mu.Unlock()
		delete(policies.m, "test-registry-dup")
	})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	Register(stubPolicy{name: "test-registry-dup"})
}

func TestRegisterEmptyNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty-name Register did not panic")
		}
	}()
	Register(stubPolicy{})
}

func TestLookupUnknownNamesAvailablePolicies(t *testing.T) {
	_, err := Lookup("no-such-policy")
	if err == nil {
		t.Fatal("unknown policy did not error")
	}
	if !errors.Is(err, ErrUnknownPolicy) {
		t.Fatalf("error %v does not wrap ErrUnknownPolicy", err)
	}
	for _, want := range []string{"faithful", "eft", "heft", "cpop"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not list registered policy %q", err, want)
		}
	}
}

func TestPoliciesSortedAndComplete(t *testing.T) {
	names := Policies()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Policies() not sorted: %v", names)
	}
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	for _, want := range []string{
		"faithful", "eft", "ledger", "heft", "cpop",
		"random", "roundrobin", "minload", "fastest",
	} {
		if !have[want] {
			t.Fatalf("built-in policy %q not registered (have %v)", want, names)
		}
	}
	// Deterministic across calls.
	again := Policies()
	if len(again) != len(names) {
		t.Fatalf("Policies() changed size between calls")
	}
	for i := range names {
		if names[i] != again[i] {
			t.Fatalf("Policies() order unstable: %v vs %v", names, again)
		}
	}
	// Every registered policy resolves and reports its own name.
	for _, n := range names {
		p, err := Lookup(n)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", n, err)
		}
		if p.Name() != n {
			t.Fatalf("policy %q reports name %q", n, p.Name())
		}
	}
}
