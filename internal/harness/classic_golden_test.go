package harness

import "testing"

// classicOutcome is the slice of a classic-engine Result that the
// golden pins: the virtual results, plus the scheduler, allocator and
// collect counts that move when dispatch order or RNG streams do.
type classicOutcome struct {
	Ops        uint64
	Cycles     int64
	FinalSize  int
	Dispatches uint64
	Allocs     uint64
	Collects   uint64
}

func outcomeOf(r Result) classicOutcome {
	o := classicOutcome{Ops: r.Ops, Cycles: r.ElapsedCycles, FinalSize: r.FinalSize,
		Dispatches: r.Sim.Dispatches, Allocs: r.Heap.Allocs}
	if r.Core != nil {
		o.Collects = r.Core.Collects
	}
	return o
}

// classicGolden holds the classic engine's outcomes for seed 1:
// "list/<scheme>" is the quick-scale Figure 3 list panel at 8 threads on
// 8 cores with the cache model on (the shape perfbench's fig3-list
// workload runs), and "fig4-hash/<series>" is one oversubscribed
// Figure 4 hash point, 16 threads on 8 cores over a 2 virtual ms window.
var classicGolden = map[string]classicOutcome{
	"list/threadscan":            {Ops: 30620, Cycles: 20046023, FinalSize: 1068, Dispatches: 1355, Allocs: 2550, Collects: 2},
	"list/epoch":                 {Ops: 30423, Cycles: 20073552, FinalSize: 1072, Dispatches: 1342, Allocs: 2543, Collects: 0},
	"list/hazard":                {Ops: 5073, Cycles: 20043842, FinalSize: 1035, Dispatches: 1555, Allocs: 1280, Collects: 0},
	"fig4-hash/threadscan":       {Ops: 84469, Cycles: 2135339, FinalSize: 8167, Dispatches: 215, Allocs: 12358, Collects: 3},
	"fig4-hash/threadscan-tuned": {Ops: 86267, Cycles: 2135188, FinalSize: 8194, Dispatches: 217, Allocs: 12456, Collects: 1},
}

// TestClassicEngineMatchesGolden: the classic engine (Run, behind the
// facade's RunExperiment, and the figure sweeps) must reproduce its
// captured virtual results bit-identically.  Refactors that share code
// between the classic and scenario engines must keep every field.
func TestClassicEngineMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("classic golden replay skipped in -short")
	}
	got := map[string]classicOutcome{}
	for _, scheme := range []string{"threadscan", "epoch", "hazard"} {
		cfg := baseConfig("list", SweepParams{Scale: ScaleQuick, Seed: 1, CacheSim: true})
		cfg.Scheme, cfg.Threads, cfg.Cores = scheme, 8, 8
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got["list/"+scheme] = outcomeOf(r)
	}
	fig, err := RunFig4("hash", SweepParams{Scale: ScaleQuick, Seed: 1, Cores: 8,
		ThreadCounts: []int{16}, Duration: 2_000_000})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fig.Series {
		if s.Name == "threadscan" || s.Name == "threadscan-tuned" {
			got["fig4-hash/"+s.Name] = outcomeOf(s.Results[0])
		}
	}
	if len(got) != len(classicGolden) {
		t.Fatalf("ran %d cells, golden has %d", len(got), len(classicGolden))
	}
	for k, want := range classicGolden {
		if got[k] != want {
			t.Errorf("%s diverged from the captured classic golden:\n  got  %+v\n  want %+v", k, got[k], want)
		}
	}
}
