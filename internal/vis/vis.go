// Package vis implements the VDCE visualization service (paper §2.3.2):
// application performance visualization (per-task execution times),
// workload visualization (up-to-date resource loads), and comparative
// visualization (the same application across hardware/software
// configurations). Rendering targets are plain text and CSV — the
// post-mortem path; the real-time path feeds from runtime.Options.OnTaskDone.
package vis

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/repository"
	"repro/internal/runtime"
)

// barWidth is the width of ASCII bars.
const barWidth = 40

func bar(frac float64) string {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	n := int(frac*barWidth + 0.5)
	return strings.Repeat("#", n) + strings.Repeat(".", barWidth-n)
}

// ApplicationPerformance renders the per-task execution-time view of one
// completed run ("the execution time of tasks in application ... is
// visualized").
func ApplicationPerformance(res *runtime.Result) string {
	var longest time.Duration
	for _, tr := range res.TaskResults {
		longest = max(longest, tr.Elapsed)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Application %q — makespan %v, %d reschedules\n", res.App, res.Makespan.Round(time.Microsecond), res.Rescheduled)
	fmt.Fprintf(&b, "%-12s %-14s %12s  %s\n", "TASK", "HOST", "ELAPSED", "")
	for _, tr := range res.TaskResults {
		frac := 0.0
		if longest > 0 {
			frac = float64(tr.Elapsed) / float64(longest)
		}
		status := ""
		if tr.Err != nil {
			status = " ERROR: " + tr.Err.Error()
		} else if tr.Attempts > 1 {
			status = fmt.Sprintf(" (rescheduled ×%d)", tr.Attempts-1)
		}
		fmt.Fprintf(&b, "%-12s %-14s %12v  |%s|%s\n",
			tr.Task, tr.Host, tr.Elapsed.Round(time.Microsecond), bar(frac), status)
	}
	return b.String()
}

// ApplicationPerformanceCSV renders the same data as CSV.
func ApplicationPerformanceCSV(res *runtime.Result) string {
	var b strings.Builder
	b.WriteString("task,host,site,elapsed_us,attempts,error\n")
	for _, tr := range res.TaskResults {
		errStr := ""
		if tr.Err != nil {
			errStr = strings.ReplaceAll(tr.Err.Error(), ",", ";")
		}
		fmt.Fprintf(&b, "%s,%s,%s,%d,%d,%s\n",
			tr.Task, tr.Host, tr.Site, tr.Elapsed.Microseconds(), tr.Attempts, errStr)
	}
	return b.String()
}

// Workload renders the up-to-date load of every resource in a repository
// ("up-to-date workload information on VDCE resources is visualized").
func Workload(records []repository.ResourceRecord) string {
	var max float64 = 1
	for _, r := range records {
		if r.Dynamic.Load > max {
			max = r.Dynamic.Load
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %-9s %7s %9s  %s\n", "HOST", "ARCH", "LOAD", "MEM(MB)", "")
	for _, r := range records {
		state := ""
		if r.Dynamic.Down {
			state = " DOWN"
		}
		fmt.Fprintf(&b, "%-16s %-9s %7.2f %9d  |%s|%s\n",
			r.Static.HostName, r.Static.Arch, r.Dynamic.Load,
			r.Dynamic.AvailableMemory>>20, bar(r.Dynamic.Load/max), state)
	}
	return b.String()
}

// ComparativeRun is one configuration's outcome in a comparative view.
type ComparativeRun struct {
	Label    string        // configuration, e.g. "sequential 1 host"
	Makespan time.Duration // measured
}

// Comparative renders the paper's comparative performance visualization:
// "experiment and evaluate his/her application for different combinations
// of hardware and software medium". Speedup is relative to the first run.
func Comparative(app string, runs []ComparativeRun) string {
	if len(runs) == 0 {
		return "no runs\n"
	}
	base := runs[0].Makespan.Seconds()
	var max float64
	for _, r := range runs {
		if s := r.Makespan.Seconds(); s > max {
			max = s
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Comparative visualization — %s\n", app)
	fmt.Fprintf(&b, "%-28s %12s %8s  %s\n", "CONFIGURATION", "MAKESPAN", "SPEEDUP", "")
	for _, r := range runs {
		s := r.Makespan.Seconds()
		speedup := 0.0
		if s > 0 {
			speedup = base / s
		}
		frac := 0.0
		if max > 0 {
			frac = s / max
		}
		fmt.Fprintf(&b, "%-28s %12v %7.2fx  |%s|\n",
			r.Label, r.Makespan.Round(time.Microsecond), speedup, bar(frac))
	}
	return b.String()
}

// Series renders a generic (x, y) benchmark series as an aligned table —
// the common shape of the cmd/vdce-bench experiment reports.
type Series struct {
	Title   string
	XLabel  string
	YLabels []string
	Rows    [][]float64 // each row: x followed by len(YLabels) values
}

// Render formats the series.
func (s Series) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", s.Title)
	fmt.Fprintf(&b, "%-14s", s.XLabel)
	for _, y := range s.YLabels {
		fmt.Fprintf(&b, " %14s", y)
	}
	b.WriteByte('\n')
	for _, row := range s.Rows {
		if len(row) == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-14.4g", row[0])
		for _, v := range row[1:] {
			fmt.Fprintf(&b, " %14.5g", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the series as CSV.
func (s Series) CSV() string {
	var b strings.Builder
	b.WriteString(strings.ReplaceAll(s.XLabel, ",", ";"))
	for _, y := range s.YLabels {
		b.WriteByte(',')
		b.WriteString(strings.ReplaceAll(y, ",", ";"))
	}
	b.WriteByte('\n')
	for _, row := range s.Rows {
		for i, v := range row {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%g", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
