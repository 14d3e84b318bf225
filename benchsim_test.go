package grass_test

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchSimHistory keeps the BENCH_sim.json performance record honest:
// every entry names the environment its numbers were measured in (ns
// figures compare only between matching environments), and entries are
// appended in strictly increasing PR order.
func TestBenchSimHistory(t *testing.T) {
	data, err := os.ReadFile("BENCH_sim.json")
	if err != nil {
		t.Fatal(err)
	}
	var record struct {
		History []struct {
			PR  int `json:"pr"`
			Env *struct {
				Go         string `json:"go"`
				GOMAXPROCS int    `json:"gomaxprocs"`
				NumCPU     int    `json:"numcpu"`
				CPU        string `json:"cpu"`
			} `json:"env"`
		} `json:"history"`
	}
	if err := json.Unmarshal(data, &record); err != nil {
		t.Fatalf("BENCH_sim.json: %v", err)
	}
	if len(record.History) == 0 {
		t.Fatal("BENCH_sim.json has no history entries")
	}
	prev := 0
	for i, e := range record.History {
		if e.PR <= prev {
			t.Errorf("entry %d: pr %d does not increase on the previous entry's %d", i, e.PR, prev)
		}
		prev = e.PR
		switch env := e.Env; {
		case env == nil:
			t.Errorf("entry %d (pr %d): no env", i, e.PR)
		case env.Go == "" || env.GOMAXPROCS <= 0 || env.NumCPU <= 0 || env.CPU == "":
			t.Errorf("entry %d (pr %d): env %+v lacks go, gomaxprocs, numcpu or cpu", i, e.PR, *env)
		}
	}
}
