package scheduler

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// LoadLedger is the shared cross-application view of in-flight placements:
// for every host it tracks the predicted busy seconds of tasks that have
// been scheduled onto it but not (as far as the scheduler knows) finished.
// One ledger threaded through a scheduler.Batch lets concurrent application
// flow graphs see each other's placements during the availability-aware
// walk, instead of every walk independently dog-piling the same best
// machines.
//
// The ledger is an estimate, not a clock: Busy(h) answers "how many seconds
// of already-promised work stand between now and h being free", which the
// availability-aware walk folds into its earliest-finish-time objective.
//
// Concurrency: the host map is sharded across independently locked stripes
// (hosts hash to stripes by name), so concurrent Reserve/Busy traffic from
// parallel Schedule goroutines contends only when two walks touch hosts on
// the same stripe — not on one global mutex. A monotonic version counter
// advances on every mutation; View/Refresh use it to serve bulk snapshots
// ("what is every host's busy time right now?") without re-reading the
// stripes when nothing changed.
//
// Lifecycle: the built-in users (Batch.Ledger, site.Manager's SharedLedger
// batches) create one ledger per batch and discard it afterwards —
// reservations only need to outlive the scheduling episode they coordinate.
// An owner holding a ledger across episodes must release completed or
// abandoned work itself (Release / ReleaseTable); nothing in the runtime
// does so automatically, and unreleased reservations accumulate until
// every host looks equally busy.
type LoadLedger struct {
	version atomic.Uint64
	shards  [ledgerShards]ledgerShard
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
	l.version.Add(1)
}

// Release removes `seconds` of previously reserved work from host,
// clamping at zero (a release may race a monitor-driven reset).
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
	l.version.Add(1)
}

// Busy returns the reserved busy seconds currently standing on host.
func (l *LoadLedger) Busy(host string) float64 {
	s := l.shard(host)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.busy[host]
}

// ReleaseTable releases every assignment of a completed (or abandoned)
// application: each occupied host gives back the predicted duration the
// availability-aware walk reserved on it. Releases run in assignment
// order — several tasks can share a host, and the busy value is a float
// sum, so the subtraction order must be deterministic.
func (l *LoadLedger) ReleaseTable(t *AllocationTable) {
	if t == nil {
		return
	}
	for _, id := range t.Order() {
		a, ok := t.Entries[id]
		if !ok {
			continue
		}
		for _, h := range effectiveHosts(a) {
			l.Release(h, a.Predicted)
		}
	}
}

// Snapshot copies the current host -> busy-seconds map (diagnostics and
// experiment reporting). The copy is not atomic across shards: concurrent
// mutations may land in some shards and not others — the same estimate
// semantics per-host reads always had.
func (l *LoadLedger) Snapshot() map[string]float64 {
	out := make(map[string]float64)
	l.snapshotInto(out)
	return out
}

func (l *LoadLedger) snapshotInto(dst map[string]float64) {
	for i := range l.shards {
		s := &l.shards[i]
		s.mu.Lock()
		for h, b := range s.busy {
			dst[h] = b
		}
		s.mu.Unlock()
	}
}

// Version returns the mutation counter: it advances on every Reserve and
// Release, so equal versions bracket an unchanged ledger.
func (l *LoadLedger) Version() uint64 { return l.version.Load() }

// LedgerView is a bulk read-side cache over a ledger: one snapshot of every
// host's busy seconds, revalidated against the ledger's version counter.
// The EFT walk refreshes its view once per task and then reads candidates
// lock-free, instead of taking a ledger lock per (task, candidate) probe.
// A view expecting its own writes (the walk reserves as it places) absorbs
// them via its Reserve method, so a serial walk never re-snapshots.
//
// Views are single-goroutine; each walk owns its own.
type LedgerView struct {
	l      *LoadLedger
	expect uint64
	busy   map[string]float64
	stale  bool
}

// View returns a fresh view over l, or nil for a nil ledger.
func (l *LoadLedger) View() *LedgerView {
	if l == nil {
		return nil
	}
	return &LedgerView{l: l, busy: make(map[string]float64), stale: true}
}

// Refresh revalidates the view: if the ledger's version moved past what the
// view expects (a concurrent walk reserved or released), the whole busy
// table is re-read in one pass over the stripes. The warm path (version
// unchanged) must stay allocation-free — it runs once per task placed.
//
//vdce:hot allocs=0
func (v *LedgerView) Refresh() {
	if v == nil {
		return
	}
	cur := v.l.version.Load()
	if !v.stale && cur == v.expect {
		return
	}
	clear(v.busy)
	v.l.snapshotInto(v.busy)
	// Expect the version observed BEFORE the snapshot: a mutation racing
	// the stripe reads may or may not be in the copy, but its bump is
	// past cur either way, so the next Refresh re-reads rather than
	// trusting a possibly torn snapshot. (Worst case is one redundant
	// re-read; the reverse order could absorb a missed write forever.)
	v.expect = cur
	v.stale = false
}

// Busy returns the viewed busy seconds for host (as of the last Refresh).
//
//vdce:hot allocs=0
func (v *LedgerView) Busy(host string) float64 {
	if v == nil {
		return 0
	}
	return v.busy[host]
}

// Reserve forwards to the underlying ledger and keeps the view current:
// the local copy absorbs the write and the expected version advances, so
// an uncontended walk's next Refresh is a version check, not a snapshot.
//
//vdce:hot allocs=0
func (v *LedgerView) Reserve(host string, seconds float64) {
	if v == nil || seconds <= 0 {
		return
	}
	v.l.Reserve(host, seconds)
	v.busy[host] += seconds
	v.expect++
}
