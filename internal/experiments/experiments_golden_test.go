package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// experimentGolden pins one experiment's simulated-seconds output: the
// series rows where every column is simulated, and the metrics map (JSON
// encodes it in sorted key order). Wall-clock fields never enter the file.
type experimentGolden struct {
	ID      string             `json:"id"`
	Rows    [][]float64        `json:"rows,omitempty"`
	Metrics map[string]float64 `json:"metrics"`
}

// experimentsGolden is the committed shape of testdata/experiments_golden.json.
type experimentsGolden struct {
	Experiments []experimentGolden `json:"experiments"`
	Replanners  []string           `json:"replanners"`
	Churn       []ChurnCell        `json:"churn"`
}

// TestExperimentsGolden pins, at seed 1, the schedules behind FIG1, FIG4,
// FIG5, QUALITY, LEDGER and POLICY (through their simulated makespans) and
// the full CHURN grid. RANKING has its own golden; together they are what
// lets scheduler entry points be rewired or deleted with proof that no
// allocation table moved. Re-bless consciously with
//
//	go test ./internal/experiments -run ExperimentsGolden -update
func TestExperimentsGolden(t *testing.T) {
	const seed = 1
	runs := []struct {
		run  func(int64) (*Result, error)
		rows bool // every series column is simulated, none wall-clock
	}{
		{Fig1MultiSite, true},
		{Fig4SiteScheduler, true},
		{Fig5HostSelection, true},
		{ScheduleQuality, true},
		{AvailabilityScheduling, false}, // rows carry sched_wall_s
		{PolicyComparison, false},       // rows carry sched_wall_s
	}
	var got experimentsGolden
	for _, e := range runs {
		r, err := e.run(seed)
		if err != nil {
			t.Fatal(err)
		}
		g := experimentGolden{ID: r.ID, Metrics: r.Metrics}
		if e.rows {
			g.Rows = r.Series.Rows
		}
		got.Experiments = append(got.Experiments, g)
	}
	cfg := DefaultChurnConfig(seed)
	cfg.Workers = 1
	var err error
	if got.Churn, got.Replanners, err = ChurnCells(cfg); err != nil {
		t.Fatal(err)
	}

	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	path := filepath.Join("testdata", "experiments_golden.json")
	if *update {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d experiments, %d churn cells)", path, len(got.Experiments), len(got.Churn))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("experiment output drifted from %s; if the change is intended, re-bless with -update.\ngot:\n%s", path, data)
	}
}
