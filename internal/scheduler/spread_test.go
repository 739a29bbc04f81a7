package scheduler

import (
	"testing"
	"time"

	"repro/internal/afg"
)

// TestSelectorSpreadsIndependentTasks guards the queue-aware walk: a wide
// application must not dog-pile the single best machine.
func TestSelectorSpreadsIndependentTasks(t *testing.T) {
	repo := makeRepo(t, "syr", map[string][2]float64{
		"fast": {4, 0}, "mid": {2, 0}, "slow": {1, 0},
	})
	g := afg.New("wide")
	for i := 0; i < 9; i++ {
		g.AddTask(&afg.Task{ID: afg.TaskID(rune('a' + i)), Function: "f", ComputeCost: 1})
	}
	sel := &LocalSelector{Site: "syr", Repo: repo}
	choices, err := sel.SelectHosts(g)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, c := range choices {
		counts[c.Host]++
	}
	if counts["fast"] == 9 {
		t.Fatalf("all tasks dog-piled the fast host: %v", counts)
	}
	// The fast host should still get the largest share.
	if counts["fast"] < counts["slow"] {
		t.Fatalf("fast host under-used: %v", counts)
	}
	if counts["fast"]+counts["mid"]+counts["slow"] != 9 {
		t.Fatalf("tasks lost: %v", counts)
	}
}

// TestSelectorQueueAccountsParallelTasks: a parallel task bumps all of its
// hosts, steering later tasks elsewhere.
func TestSelectorQueueAccountsParallelTasks(t *testing.T) {
	repo := makeRepo(t, "syr", map[string][2]float64{
		"h1": {2, 0}, "h2": {2, 0}, "h3": {2, 0},
	})
	g := afg.New("parfirst")
	// The high-level parallel task is walked first (cost dominates) and
	// claims two hosts; the second task should land on the third.
	g.AddTask(&afg.Task{ID: "big", Function: "f", ComputeCost: 100, Mode: afg.Parallel, Processors: 2})
	g.AddTask(&afg.Task{ID: "small", Function: "f", ComputeCost: 1})
	sel := &LocalSelector{Site: "syr", Repo: repo}
	choices, err := sel.SelectHosts(g)
	if err != nil {
		t.Fatal(err)
	}
	bigHosts := map[string]bool{}
	for _, h := range choices["big"].Hosts {
		bigHosts[h] = true
	}
	if len(bigHosts) != 2 {
		t.Fatalf("big hosts = %v", choices["big"].Hosts)
	}
	if bigHosts[choices["small"].Host] {
		t.Fatalf("small task stacked on a parallel host: %+v vs %+v",
			choices["small"], choices["big"])
	}
}

// TestSelectorPriorityAblation: with FIFO priority the queue walk order
// changes, so a low-ID cheap task can steal the fast host from the
// critical-path task.
func TestSelectorPriorityAblation(t *testing.T) {
	repo := makeRepo(t, "syr", map[string][2]float64{
		"fast": {10, 0}, "slow": {1, 0},
	})
	g := afg.New("prio")
	// "aa" sorts first but is trivial; "zz" is the critical task.
	g.AddTask(&afg.Task{ID: "aa", Function: "f", ComputeCost: 1})
	g.AddTask(&afg.Task{ID: "zz", Function: "f", ComputeCost: 100})
	sel := &LocalSelector{Site: "syr", Repo: repo}

	lc, err := sel.SelectHosts(g)
	if err != nil {
		t.Fatal(err)
	}
	if lc["zz"].Host != "fast" {
		t.Fatalf("level priority gave the critical task %q", lc["zz"].Host)
	}
	ix, fc := fig5(t, sel, g, FIFOPriority, false, nil)
	if fc[ix.Of("aa")].Host != "fast" {
		t.Fatalf("FIFO should hand the fast host to the first id, got %q", fc[ix.Of("aa")].Host)
	}
}

// TestSiteSchedulerBurstPlacement: with a uniformly faster remote site,
// independent equal tasks all go there (each site's Fig 5 walk advances
// its queues in lockstep, so the faster site wins every per-task
// comparison), and the load is balanced across that site's hosts.
func TestSiteSchedulerBurstPlacement(t *testing.T) {
	s, _, _, _ := twoSiteSetup(t, time.Millisecond)
	g := afg.New("burst")
	for i := 0; i < 12; i++ {
		g.AddTask(&afg.Task{ID: afg.TaskID(rune('a' + i)), Function: "f", ComputeCost: 5})
	}
	table, err := runPolicy("faithful", s, g)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, a := range table.Entries() {
		if a.Site != "rome" {
			t.Fatalf("task %s left the 4x-fast site: %+v", a.Task, a)
		}
		counts[a.Host]++
	}
	if len(counts) != 2 || counts["rome-1"] != 6 || counts["rome-2"] != 6 {
		t.Fatalf("queue-aware walk should balance the site's hosts: %v", counts)
	}
}
