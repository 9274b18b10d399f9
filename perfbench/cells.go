package main

import (
	"fmt"
	"time"

	"threadscan"
)

// size selects how much work a workload's cells do: full is what the
// benchmark measures, tiny is the smoke test's shrunken copy of the
// same cell shapes.
type size int

const (
	full size = iota
	tiny
)

// cell is one grid point of a workload: a classic experiment (exp) or
// a scenario run (scn), exactly one of which is set.
type cell struct {
	name string
	exp  *threadscan.Experiment
	scn  *threadscan.Scenario
}

// ds names the structure the cell drives.
func (c cell) ds() string {
	if c.exp != nil {
		return c.exp.DS
	}
	return c.scn.DS
}

// workloadDef is one named set of cells, run one at a time.  Why each
// workload exists is in README.md and BENCHMARK.json.
type workloadDef struct {
	name  string
	cells func(seed int64, sz size) []cell
	// cacheSim and checked are the sim config the ledger's microloops
	// run under: the cache model and the checked heap as the cells use
	// them.
	cacheSim, checked bool
}

var workloads = []workloadDef{
	{
		name:     "fig3-list",
		cells:    fig3ListCells,
		cacheSim: true,
	},
	{
		name:    "reclaim-grid",
		cells:   reclaimGridCells,
		checked: true,
	},
	{
		name:    "hash-storm",
		cells:   hashStormCells,
		checked: true,
	},
}

func workloadByName(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// fig3ListCells is the quick-scale Figure 3 list panel at 8 threads:
// the §6 parameters the harness's quick sweep uses.
func fig3ListCells(seed int64, sz size) []cell {
	duration, keyRange := int64(20_000_000), uint64(2048) // 20 virtual ms, the harness default
	if sz == tiny {
		duration, keyRange = 300_000, 256
	}
	var out []cell
	for _, scheme := range []string{"threadscan", "epoch", "hazard"} {
		out = append(out, cell{
			name: "list/" + scheme,
			exp: &threadscan.Experiment{
				DS: "list", Scheme: scheme, Threads: 8, Cores: 8,
				Duration: duration, Seed: seed,
				KeyRange: keyRange, Prefill: int(keyRange / 2), UpdatePercent: 20,
				BufferSize: 128, Batch: 128, SlowDelay: 8_000_000,
				Quantum: 125_000, CacheSim: true,
			},
		})
	}
	return out
}

// scenarioCells crosses the named builtins (all of them when names is
// nil) with structures and schemes, scenario-major.
func scenarioCells(names, structures []string, seed int64, sz size) []cell {
	var specs []threadscan.Scenario
	if names == nil {
		specs = threadscan.BuiltinScenarios()
	} else {
		for _, n := range names {
			s, ok := threadscan.ScenarioByName(n)
			if !ok {
				panic("perfbench: unknown builtin scenario " + n)
			}
			specs = append(specs, s)
		}
	}
	var out []cell
	for _, base := range specs {
		if sz == tiny {
			base = base.Scale(0.05)
		}
		for _, ds := range structures {
			for _, scheme := range []string{"epoch", "threadscan"} {
				s := base
				s.DS, s.Scheme, s.Seed = ds, scheme, seed
				out = append(out, cell{name: s.Name + "/" + ds + "/" + scheme, scn: &s})
			}
		}
	}
	return out
}

func reclaimGridCells(seed int64, sz size) []cell {
	var names []string // all 18 builtins
	if sz == tiny {
		names = []string{"uniform-baseline", "thread-churn", "per-node-reclaim", "preempted-reader"}
	}
	return scenarioCells(names, []string{"stack", "queue"}, seed, sz)
}

func hashStormCells(seed int64, sz size) []cell {
	names := []string{"delete-storm", "retire-burst", "shifting-window", "zipfian-skew", "hotspot-90-10"}
	if sz == tiny {
		names = names[:2]
	}
	return scenarioCells(names, []string{"hash"}, seed, sz)
}

// outcome is a cell's virtual result: what the simulation computed,
// independent of the host.  Equal seeds must give equal outcomes.
type outcome struct {
	Ops           uint64 `json:"ops"`
	ElapsedCycles int64  `json:"elapsed_cycles"`
	FinalSize     int    `json:"final_size"`
	TraceHash     uint64 `json:"trace_hash,omitempty"` // scenario engine only
	Dispatches    uint64 `json:"dispatches"`
	Allocs        uint64 `json:"allocs"`
	Collects      uint64 `json:"collects"` // threadscan only
}

// diff names every field in which o differs from want.
func (o outcome) diff(want outcome) []string {
	var d []string
	field := func(name string, got, exp any) {
		if got != exp {
			d = append(d, fmt.Sprintf("%s %v, expected %v", name, got, exp))
		}
	}
	field("ops", o.Ops, want.Ops)
	field("elapsed_cycles", o.ElapsedCycles, want.ElapsedCycles)
	field("final_size", o.FinalSize, want.FinalSize)
	field("trace_hash", o.TraceHash, want.TraceHash)
	field("dispatches", o.Dispatches, want.Dispatches)
	field("allocs", o.Allocs, want.Allocs)
	field("collects", o.Collects, want.Collects)
	return d
}

// cellRun is one facade call's result.
type cellRun struct {
	out      outcome
	wall     time.Duration // the whole facade call
	simWall  time.Duration // Result.WallTime: the host time inside Sim.Run
	problems []string      // run error and broken engine invariants
}

// runFacade executes c through the public facade and checks the engine
// invariants that hold for every seed.
func runFacade(c cell) cellRun {
	var r cellRun
	start := time.Now()
	if c.exp != nil {
		res, err := threadscan.RunExperiment(*c.exp)
		r.wall = time.Since(start)
		if err != nil {
			r.problems = append(r.problems, "run error: "+err.Error())
			return r
		}
		r.simWall = res.WallTime
		r.out = outcome{
			Ops: res.Ops, ElapsedCycles: res.ElapsedCycles, FinalSize: res.FinalSize,
			Dispatches: res.Sim.Dispatches, Allocs: res.Heap.Allocs,
		}
		if res.Core != nil {
			r.out.Collects = res.Core.Collects
		}
	} else {
		res, err := threadscan.RunScenario(*c.scn)
		r.wall = time.Since(start)
		if err != nil {
			r.problems = append(r.problems, "run error: "+err.Error())
			return r
		}
		r.simWall = res.WallTime
		r.out = outcome{
			Ops: res.Ops, ElapsedCycles: res.ElapsedCycles, FinalSize: res.FinalSize,
			TraceHash: res.TraceHash, Dispatches: res.Sim.Dispatches, Allocs: res.Heap.Allocs,
		}
		if res.Core != nil {
			r.out.Collects = res.Core.Collects
		}
		if res.Scheme == "threadscan" && res.LeakedRegistrations != 0 {
			r.problems = append(r.problems,
				fmt.Sprintf("leaked_registrations %d, expected 0", res.LeakedRegistrations))
		}
		if res.AccountingError != "" {
			r.problems = append(r.problems, "accounting error: "+res.AccountingError)
		}
		if res.KeyedError != "" {
			r.problems = append(r.problems, "keyed error: "+res.KeyedError)
		}
	}
	return r
}
