package scheduler

import (
	"hash/maphash"
	"sync"
)

// LoadLedger is the shared cross-application view of in-flight placements:
// for every host it tracks the predicted busy seconds of tasks that have
// been scheduled onto it but not (as far as the scheduler knows) finished.
// One ledger threaded through a scheduler.Batch lets concurrent application
// flow graphs see each other's placements, instead of every walk
// independently dog-piling the same best machines.
//
// The ledger is an estimate, not a clock: Busy(h) answers "how many seconds
// of already-promised work stand between now and h being free". The
// package's one earliest-finish kernel (heft.go's placement, behind eft,
// ledger, heft and cpop) reads it directly, per candidate host: no task
// starts on h before the seconds other applications hold there, and every
// commit reserves its prediction on each of its hosts.
//
// Concurrency: the host map is sharded across independently locked stripes
// (hosts hash to stripes by name), so concurrent Reserve/Busy traffic from
// parallel Schedule goroutines contends only when two walks touch hosts on
// the same stripe — not on one global mutex.
//
// Lifecycle: the built-in user (Batch, for the "ledger" policy) creates one
// ledger per batch and discards it afterwards — reservations only need to
// outlive the scheduling episode they coordinate.
// A walk that fails releases what it reserved; an owner holding a ledger
// across episodes must release completed work itself (Release). Nothing in
// the runtime does so automatically, and unreleased reservations accumulate
// until every host looks equally busy.
type LoadLedger struct {
	shards [ledgerShards]ledgerShard
}

const ledgerShards = 32

type ledgerShard struct {
	mu   sync.Mutex
	busy map[string]float64 // host -> reserved busy seconds; guarded by mu
	// Pad the 16 bytes of state to a full 64-byte cache line so
	// neighbouring shards' locks never false-share.
	_ [48]byte
}

// ledgerSeed makes the shard hash stable within a process but unpredictable
// across runs (no host-name distribution can degenerate deterministically).
var ledgerSeed = maphash.MakeSeed()

func (l *LoadLedger) shard(host string) *ledgerShard {
	return &l.shards[maphash.String(ledgerSeed, host)%ledgerShards]
}

// NewLoadLedger returns an empty ledger.
func NewLoadLedger() *LoadLedger {
	l := &LoadLedger{}
	for i := range l.shards {
		l.shards[i].busy = make(map[string]float64)
	}
	return l
}

// Reserve records `seconds` of predicted work placed on host.
func (l *LoadLedger) Reserve(host string, seconds float64) {
	if seconds <= 0 {
		return
	}
	s := l.shard(host)
	s.mu.Lock()
	s.busy[host] += seconds
	s.mu.Unlock()
}

// Release removes `seconds` of previously reserved work from host; a host
// left with none is dropped.
func (l *LoadLedger) Release(host string, seconds float64) {
	if seconds <= 0 {
		return
	}
	s := l.shard(host)
	s.mu.Lock()
	if s.busy[host] -= seconds; s.busy[host] <= 0 {
		delete(s.busy, host)
	}
	s.mu.Unlock()
}

// Busy returns the reserved busy seconds currently standing on host. The
// earliest-finish kernel calls it once per candidate host per task.
//
//vdce:hot allocs=0
func (l *LoadLedger) Busy(host string) float64 {
	s := l.shard(host)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.busy[host]
}
