package experiments

import (
	"encoding/json"
	"reflect"
	"testing"
)

// smallChurnConfig keeps the sweep cheap for unit tests.
func smallChurnConfig(seed int64) ChurnConfig {
	cfg := DefaultChurnConfig(seed)
	cfg.Sizes = []int{10, 20}
	cfg.CCRs = []float64{0.5, 2}
	cfg.GraphsPerCell = 2
	return cfg
}

func TestChurnCellsDeterministicAcrossWorkers(t *testing.T) {
	serial := smallChurnConfig(7)
	serial.Workers = 1
	a, namesA, err := ChurnCells(serial)
	if err != nil {
		t.Fatal(err)
	}
	parallel := smallChurnConfig(7)
	parallel.Workers = 4
	b, namesB, err := ChurnCells(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(namesA, namesB) {
		t.Fatalf("re-planner order differs: %v vs %v", namesA, namesB)
	}
	// Byte-identical, not merely approximately equal: the JSON encoding is
	// the committed artifact shape.
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("parallel sweep diverges from serial:\n%s\n%s", ja, jb)
	}
}

func TestChurnCellsSane(t *testing.T) {
	cfg := smallChurnConfig(3)
	cfg.Workers = 1
	cells, names, err := ChurnCells(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 {
		t.Fatalf("names = %v, want the three registered re-planners", names)
	}
	if len(cells) != len(cfg.Sizes)*len(cfg.CCRs)*cfg.GraphsPerCell {
		t.Fatalf("cells = %d", len(cells))
	}
	for _, c := range cells {
		if c.FaultFree <= 0 {
			t.Fatalf("cell %+v: non-positive fault-free makespan", c)
		}
		for p := range names {
			// Degradation can dip below 1 — a deviation-triggered re-plan
			// may genuinely beat the baseline placement — but must stay a
			// positive, finite ratio.
			if c.Degradation[p] <= 0 {
				t.Fatalf("cell v=%d ccr=%g: %s degradation %v",
					c.Size, c.CCR, names[p], c.Degradation[p])
			}
			if c.Replans[p] < 0 || c.Killed[p] < 0 {
				t.Fatalf("negative counters in %+v", c)
			}
		}
	}
}

func TestChurnResultShape(t *testing.T) {
	cfg := smallChurnConfig(5)
	cfg.Workers = 2
	res, err := ChurnWith(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "CHURN" {
		t.Fatalf("ID = %s", res.ID)
	}
	if len(res.Series.Rows) != len(cfg.Sizes)*len(cfg.CCRs) {
		t.Fatalf("rows = %d", len(res.Series.Rows))
	}
	for _, key := range []string{"degradation_eft", "degradation_heft", "degradation_dup",
		"replans_eft", "killed_dup", "runs"} {
		if _, ok := res.Metrics[key]; !ok {
			t.Fatalf("missing metric %s in %v", key, res.Metrics)
		}
	}
}

// A value listed twice on a grid axis is two blocks of cells, and each row
// is the mean of its own block, in RANKING and CHURN alike. Grouping cells
// by comparing CCRs gave the first row both blocks and the second NaN.
func TestRepeatedAxisValueRows(t *testing.T) {
	check := func(exp string, rows, vals [][]float64) {
		t.Helper()
		if len(rows) != len(vals) {
			t.Fatalf("%s: %d rows for %d cells", exp, len(rows), len(vals))
		}
		for i, row := range rows {
			if want := append([]float64{10, 1}, vals[i]...); !reflect.DeepEqual(row, want) {
				t.Errorf("%s row %d = %v, want %v", exp, i, row, want)
			}
		}
	}

	rcfg := DefaultRankingConfig(1)
	rcfg.Sizes, rcfg.CCRs, rcfg.GraphsPerCell = []int{10}, []float64{1, 1}, 1
	rcfg.Policies = []string{"eft", "heft"}
	ranking, err := RankingWith(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	rcells, _, err := RankingCells(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	var slr [][]float64
	for _, c := range rcells {
		slr = append(slr, c.SLR)
	}
	check("RANKING", ranking.Series.Rows, slr)

	ccfg := smallChurnConfig(1)
	ccfg.Sizes, ccfg.CCRs, ccfg.GraphsPerCell = []int{10}, []float64{1, 1}, 1
	churn, err := ChurnWith(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	ccells, _, err := ChurnCells(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	var deg [][]float64
	for _, c := range ccells {
		deg = append(deg, c.Degradation)
	}
	check("CHURN", churn.Series.Rows, deg)
}
