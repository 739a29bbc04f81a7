package vis

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/runtime"
)

// Gantt renders the post-mortem timeline view of one application run: one
// row per host, task execution intervals drawn to scale. This is the
// "post-mortem visualization" half of the paper's visualization service —
// it makes host serialisation, overlap, and reschedule delays visible.
func Gantt(res *runtime.Result, width int) string {
	if width < 20 {
		width = 60
	}
	type span struct {
		task       string
		start, end time.Duration
	}
	// Collect spans relative to the earliest start.
	var t0 time.Time
	first := true
	for _, tr := range res.TaskResults {
		if tr.Err != nil || tr.Started.IsZero() {
			continue
		}
		if first || tr.Started.Before(t0) {
			t0 = tr.Started
			first = false
		}
	}
	if first {
		return "no completed tasks\n"
	}
	byHost := map[string][]span{}
	var total time.Duration
	for _, tr := range res.TaskResults {
		if tr.Err != nil || tr.Started.IsZero() {
			continue
		}
		s := tr.Started.Sub(t0)
		e := s + tr.Elapsed
		byHost[tr.Host] = append(byHost[tr.Host], span{string(tr.Task), s, e})
		if e > total {
			total = e
		}
	}
	if total <= 0 {
		total = time.Microsecond
	}
	hosts := make([]string, 0, len(byHost))
	for h := range byHost {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)

	var b strings.Builder
	fmt.Fprintf(&b, "Timeline %q — %v total\n", res.App, total.Round(time.Microsecond))
	scale := func(d time.Duration) int {
		p := int(float64(d) / float64(total) * float64(width))
		if p < 0 {
			p = 0
		}
		if p > width {
			p = width
		}
		return p
	}
	for _, h := range hosts {
		spans := byHost[h]
		sort.Slice(spans, func(i, j int) bool {
			if spans[i].start != spans[j].start {
				return spans[i].start < spans[j].start
			}
			return spans[i].task < spans[j].task
		})
		row := []byte(strings.Repeat(".", width))
		for i, sp := range spans {
			lo, hi := scale(sp.start), scale(sp.end)
			if hi <= lo {
				hi = lo + 1
				if hi > width {
					lo, hi = width-1, width
				}
			}
			mark := byte('a' + i%26)
			for p := lo; p < hi; p++ {
				row[p] = mark
			}
		}
		fmt.Fprintf(&b, "%-16s |%s|\n", h, row)
		for i, sp := range spans {
			fmt.Fprintf(&b, "%16s   %c = %s [%v → %v]\n", "",
				byte('a'+i%26), sp.task,
				sp.start.Round(time.Microsecond), sp.end.Round(time.Microsecond))
		}
	}
	return b.String()
}
