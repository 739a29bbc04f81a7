// Fixture for the detflow analyzer: nondeterminism sources reaching
// schedule outputs — directly, through helpers, and through map iteration —
// plus the sanctioned shapes (seeded rand, sort-before-store, wall-clock
// measurement into non-output types) as true negatives.
package detflow

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
	"unsafe"
)

// AllocationTable mirrors the scheduler's output type by name: stores into
// it are schedule outputs.
type AllocationTable struct {
	Start float64
	Order []string
}

// Assignment is likewise a schedule-output type.
type Assignment struct {
	Predicted float64
}

// DebugReply is an RPC reply (the *Reply suffix marks it an output).
type DebugReply struct {
	Addr     string
	Makespan float64
}

// record is NOT an output type: measurements may land here freely.
type record struct {
	At float64
}

// Direct wall-clock leak into a schedule output.
func badClock(t *AllocationTable) {
	t.Start = float64(time.Now().UnixNano()) // want "value derived from wall clock"
}

// nowSeconds launders the clock through a helper; the summary carries the
// taint back to the caller.
func nowSeconds() float64 {
	return time.Since(time.Time{}).Seconds()
}

func badHelper(a *Assignment) {
	a.Predicted = nowSeconds() // want "value derived from wall clock"
}

// Global math/rand is unseeded process-wide state.
func badRand(r *DebugReply) {
	r.Makespan = rand.Float64() // want "value derived from wall clock, global rand"
}

// A seed-threaded *rand.Rand is deterministic: no finding here, and the
// obligation ("seed must itself be deterministic") moves to the callers.
func goodSeeded(seed int64, t *AllocationTable) {
	rng := rand.New(rand.NewSource(seed))
	t.Start = rng.Float64()
}

// Map iteration order leaking into the schedule's task order.
func badMapOrder(m map[string]float64, t *AllocationTable) {
	for k := range m {
		t.Order = append(t.Order, k) // want "value derived from map iteration order"
	}
}

// Sorting kills the order taint.
func goodSorted(m map[string]float64, t *AllocationTable) {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	t.Order = keys
}

// Pointer identity rendered into an RPC reply.
func badPointer(r *DebugReply, x *Assignment) {
	r.Addr = fmt.Sprintf("%p", x) // want "pointer identity"
}

// Pointer identity through a uintptr conversion.
func badUintptr(t *AllocationTable, x *Assignment) {
	t.Start = float64(uintptr(unsafe.Pointer(x))) // want "pointer identity"
}

// Wall-clock measurement into a non-output type is the legitimate use.
func goodMeasurement(rec *record) {
	rec.At = float64(time.Now().UnixNano())
}

// keyedFlatten writes each key to a slot of its own: order-independent by
// construction but unprovable statically, so the producer certifies the
// loop once. The waiver strips the taint from the summary itself.
func keyedFlatten(m map[int]float64) []float64 {
	out := make([]float64, 8)
	//vdce:ignore detflow injective keyed writes: each key owns one slot, so visit order is unobservable
	for k, v := range m {
		out[k%8] = v
	}
	return out
}

// goodCertified consumes the certified producer: no finding anywhere in the
// downstream cone, however far from the waiver the sink store sits.
func goodCertified(m map[int]float64, t *AllocationTable) {
	t.Start = keyedFlatten(m)[0]
}

// A 40-hop helper chain whose FuncKey order runs against the call
// direction: clockHop00 calls clockHop01, and so on down to clockHop39,
// which reads the clock. Each pass over the functions carries the taint one
// hop up the chain, so the finding needs 40 passes.
func badLongChain(t *AllocationTable) {
	t.Start = clockHop00() // want "value derived from wall clock"
}

func clockHop00() float64 { return clockHop01() }
func clockHop01() float64 { return clockHop02() }
func clockHop02() float64 { return clockHop03() }
func clockHop03() float64 { return clockHop04() }
func clockHop04() float64 { return clockHop05() }
func clockHop05() float64 { return clockHop06() }
func clockHop06() float64 { return clockHop07() }
func clockHop07() float64 { return clockHop08() }
func clockHop08() float64 { return clockHop09() }
func clockHop09() float64 { return clockHop10() }
func clockHop10() float64 { return clockHop11() }
func clockHop11() float64 { return clockHop12() }
func clockHop12() float64 { return clockHop13() }
func clockHop13() float64 { return clockHop14() }
func clockHop14() float64 { return clockHop15() }
func clockHop15() float64 { return clockHop16() }
func clockHop16() float64 { return clockHop17() }
func clockHop17() float64 { return clockHop18() }
func clockHop18() float64 { return clockHop19() }
func clockHop19() float64 { return clockHop20() }
func clockHop20() float64 { return clockHop21() }
func clockHop21() float64 { return clockHop22() }
func clockHop22() float64 { return clockHop23() }
func clockHop23() float64 { return clockHop24() }
func clockHop24() float64 { return clockHop25() }
func clockHop25() float64 { return clockHop26() }
func clockHop26() float64 { return clockHop27() }
func clockHop27() float64 { return clockHop28() }
func clockHop28() float64 { return clockHop29() }
func clockHop29() float64 { return clockHop30() }
func clockHop30() float64 { return clockHop31() }
func clockHop31() float64 { return clockHop32() }
func clockHop32() float64 { return clockHop33() }
func clockHop33() float64 { return clockHop34() }
func clockHop34() float64 { return clockHop35() }
func clockHop35() float64 { return clockHop36() }
func clockHop36() float64 { return clockHop37() }
func clockHop37() float64 { return clockHop38() }
func clockHop38() float64 { return clockHop39() }
func clockHop39() float64 { return float64(time.Now().UnixNano()) }

// A 40-step assignment chain written against the flow: each walk of the
// body carries the taint one step back, so the finding needs 40 walks.
func badReverseChain(t *AllocationTable) {
	var v00, v01, v02, v03, v04, v05, v06, v07, v08, v09, v10, v11, v12, v13, v14, v15, v16, v17, v18, v19, v20, v21, v22, v23, v24, v25, v26, v27, v28, v29, v30, v31, v32, v33, v34, v35, v36, v37, v38, v39 float64
	t.Start = v00 // want "value derived from wall clock"
	v00 = v01
	v01 = v02
	v02 = v03
	v03 = v04
	v04 = v05
	v05 = v06
	v06 = v07
	v07 = v08
	v08 = v09
	v09 = v10
	v10 = v11
	v11 = v12
	v12 = v13
	v13 = v14
	v14 = v15
	v15 = v16
	v16 = v17
	v17 = v18
	v18 = v19
	v19 = v20
	v20 = v21
	v21 = v22
	v22 = v23
	v23 = v24
	v24 = v25
	v25 = v26
	v26 = v27
	v27 = v28
	v28 = v29
	v29 = v30
	v30 = v31
	v31 = v32
	v32 = v33
	v33 = v34
	v34 = v35
	v35 = v36
	v36 = v37
	v37 = v38
	v38 = v39
	v39 = float64(time.Now().UnixNano())
}
