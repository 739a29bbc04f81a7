package core

import (
	"context"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"repro/internal/afg"
	"repro/internal/dagen"
	"repro/internal/runtime"
	"repro/internal/workload"
)

// TestSubmitRecordPinned pins what two fault-free submissions through a
// site Manager report and record: every exit output (Value.Encode bytes),
// each task's host, site and attempts, and the host order of every
// function's task-performance history afterwards. The linear solver runs
// five functions; the 300-task dagen graph runs one, so its history of
// 600 samples is trimmed to the last 256. A change to how an execution's
// outcomes are stored or recorded must leave every digest as it is.
func TestSubmitRecordPinned(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func() (*afg.Graph, error)
		want  string
	}{
		{"linsolver", func() (*afg.Graph, error) { return workload.LinearSolver(nil, 32, 3, false, 0) },
			"16850f8a864cd38f9161546df16b9814cb74601817893e83622f30e3d26b58b9"},
		{"dagen", func() (*afg.Graph, error) {
			return dagen.Random(dagen.Params{Tasks: 300, CCR: 1, Alpha: 1, OutDegree: 4, Seed: 11}), nil
		}, "8dac3e26a894663445ca7586bd9c9325cca950382c688ee5cdf74cd75c86c585"},
	} {
		t.Run(c.name, func(t *testing.T) {
			g, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			env := NewEnvironment(Options{Seed: 7})
			m, err := env.AddSite("syracuse", 5)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := env.AddSite("rome", 3); err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			for range 2 {
				res, _, err := env.Submit(context.Background(), "syracuse", g)
				if err != nil {
					t.Fatal(err)
				}
				writeOutcomes(t, &b, g, res)
			}
			for _, f := range m.Repo.Tasks.Functions() {
				rec, err := m.Repo.Tasks.Get(f)
				if err != nil {
					t.Fatal(err)
				}
				if len(rec.History) == 0 {
					continue
				}
				fmt.Fprintf(&b, "history %s %d:", f, len(rec.History))
				for _, s := range rec.History {
					fmt.Fprintf(&b, " %s", s.Host)
				}
				b.WriteByte('\n')
			}
			if got := fmt.Sprintf("%x", sha256.Sum256([]byte(b.String()))); got != c.want {
				t.Errorf("digest %s, want %s; the record:\n%.2000s", got, c.want, b.String())
			}
		})
	}
}

// writeOutcomes renders one execution's outcomes in task-id order.
func writeOutcomes(t *testing.T, b *strings.Builder, g *afg.Graph, res *runtime.Result) {
	t.Helper()
	for _, id := range g.TaskIDs() {
		tr := res.TaskResult(id)
		if tr.Err != nil || tr.Task != id {
			t.Fatalf("task %s: result %+v", id, tr)
		}
		fmt.Fprintf(b, "task %s %s/%s %d\n", id, tr.Site, tr.Host, tr.Attempts)
	}
	exits := runtime.ExitOutputs(g, res)
	for _, id := range g.Exits() {
		enc, err := exits[id].Encode()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(b, "exit %s %x\n", id, sha256.Sum256(enc))
	}
}
