// Scale: the Application Scheduler's dispatch hot path at metacomputing
// scale — a batch of 1000-task application flow graphs scheduled against 32
// sites. The serial walk (one site at a time, one graph at a time) is raced
// against the concurrent subsystem: bounded fan-out of the Host Selection
// Algorithm across sites and the scheduler.Batch API keeping every graph in
// flight at once. Both paths price predictions the same way and must — and
// do — produce identical allocation tables; only the wall clock differs,
// and only with more than one core.
package main

import (
	"fmt"
	"log"
	"runtime"

	"repro/internal/experiments"
)

func main() {
	fmt.Printf("scale: GOMAXPROCS=%d\n", runtime.GOMAXPROCS(0))
	res, err := experiments.ScaleScheduling(1)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%s\n\n", res.Series.Title)
	fmt.Printf("  serial walk:     %7.3f s  (%6.0f tasks/s)\n",
		res.Metrics["serial_s"], res.Series.Rows[0][2])
	fmt.Printf("  concurrent path: %7.3f s  (%6.0f tasks/s)\n",
		res.Metrics["concurrent_s"], res.Metrics["tasks_per_s"])
	fmt.Printf("  speedup:         %7.2fx\n", res.Metrics["speedup"])
	fmt.Println("\nallocation tables: concurrent path identical to serial (verified)")
}
