package main

import (
	"os"
	"strings"
	"testing"

	"threadscan/internal/harness"
	"threadscan/internal/workload"
)

// builtinByName returns the named builtin as a one-element spec slice.
func builtinByName(t *testing.T, name string) []workload.Scenario {
	t.Helper()
	s, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("%s builtin missing", name)
	}
	return []workload.Scenario{s}
}

// validateTopologyFlags must catch bad topology requests at flag-parse
// time — before any scenario runs — instead of silently clamping to a
// different machine (the old behavior) or panicking mid-grid.
func TestValidateTopologyFlags(t *testing.T) {
	builtins := workload.Builtins()
	split, ok := workload.ByName("numa-split")
	if !ok {
		t.Fatal("numa-split builtin missing")
	}
	flat, ok := workload.ByName("uniform-baseline")
	if !ok {
		t.Fatal("uniform-baseline builtin missing")
	}

	cases := []struct {
		name     string
		specs    []workload.Scenario
		nodes    int
		pin      string
		claim    string
		perNode  bool
		steal    int
		allocPol string
		wantErr  string // substring; "" = must pass
	}{
		{name: "defaults pass", specs: builtins},
		{name: "nodes within cores", specs: builtins, nodes: 2, pin: "rr"},
		{name: "nodes over cores rejected", specs: []workload.Scenario{split}, nodes: 64,
			wantErr: "more nodes than cores"},
		{name: "nodes over smallest scenario rejected", specs: builtins, nodes: 7,
			wantErr: "more nodes than cores"}, // thread-churn runs on 6 cores
		{name: "negative nodes rejected", specs: builtins, nodes: -1,
			wantErr: "cannot be negative"},
		{name: "bad pin rejected", specs: builtins, pin: "sideways",
			wantErr: "-pin"},
		{name: "bad claim rejected", specs: builtins, claim: "greedy",
			wantErr: "-claim"},
		{name: "negative steal rejected", specs: builtins, steal: -8,
			wantErr: "-steal"},
		{name: "pernode on flat scenario rejected", specs: []workload.Scenario{flat}, perNode: true,
			wantErr: "multi-node"},
		{name: "pernode flattened by -nodes 1 rejected", specs: []workload.Scenario{split}, nodes: 1, perNode: true,
			wantErr: "multi-node"},
		{name: "pernode with nodes passes", specs: []workload.Scenario{flat}, nodes: 2, perNode: true},
		{name: "pernode on numa scenario passes", specs: []workload.Scenario{split}, perNode: true},
		{name: "pernode beyond tag bits rejected", specs: []workload.Scenario{split}, nodes: 9, perNode: true,
			wantErr: "at most 8 nodes"},
		{name: "unknown alloc policy rejected", specs: builtins, allocPol: "firsttouch",
			wantErr: "allocation policy"},
		{name: "alloc policy on flat scenario rejected", specs: []workload.Scenario{flat}, allocPol: "localalloc",
			wantErr: "multi-node"},
		{name: "alloc policy flattened by -nodes 1 rejected", specs: []workload.Scenario{split}, nodes: 1, allocPol: "membind",
			wantErr: "multi-node"},
		{name: "global alloc policy on flat scenario passes", specs: []workload.Scenario{flat}, allocPol: "global"},
		{name: "builtin alloc policy flattened by -nodes 1 rejected", specs: builtinByName(t, "membind-contrast"), nodes: 1,
			wantErr: "multi-node"},
		{name: "builtin alloc policy with its own topology passes", specs: builtinByName(t, "membind-contrast")},
		{name: "alloc policy with nodes passes", specs: []workload.Scenario{flat}, nodes: 2, allocPol: "interleave"},
		{name: "alloc policy on numa scenario passes", specs: []workload.Scenario{split}, allocPol: "localalloc"},
	}
	for _, tc := range cases {
		err := validateTopologyFlags(tc.specs, tc.nodes, tc.pin, tc.claim, tc.perNode, tc.steal, tc.allocPol)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: expected error containing %q, got nil", tc.name, tc.wantErr)
		} else if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

// resolveScenarios must name-check every -scenario entry at parse time
// instead of failing mid-grid.
func TestResolveScenarios(t *testing.T) {
	all, err := resolveScenarios("")
	if err != nil || len(all) != len(workload.Builtins()) {
		t.Fatalf("empty selector: %d specs, err %v (want the full builtin suite)", len(all), err)
	}
	two, err := resolveScenarios("numa-split, delete-storm")
	if err != nil || len(two) != 2 || two[0].Name != "numa-split" || two[1].Name != "delete-storm" {
		t.Fatalf("two-name selector: %+v, err %v", two, err)
	}
	if _, err := resolveScenarios("numa-split,nope"); err == nil ||
		!strings.Contains(err.Error(), "unknown scenario") {
		t.Fatalf("unknown name: err %v, want unknown-scenario usage error", err)
	}
}

// createTraceFile must surface an unwritable -trace path as a usage
// error at parse time, before minutes of simulation run for nothing.
func TestCreateTraceFile(t *testing.T) {
	if _, err := createTraceFile("/no/such/dir/trace.json"); err == nil ||
		!strings.Contains(err.Error(), "-trace") {
		t.Fatalf("unwritable path: err %v, want -trace usage error", err)
	}
	path := t.TempDir() + "/trace.json"
	f, err := createTraceFile(path)
	if err != nil {
		t.Fatalf("writable path: %v", err)
	}
	f.Close()
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("trace file not created: %v", err)
	}
}

// The root command owns no tracer: -trace there is a usage error that
// redirects to the scenarios subcommand (and names the -ablation
// conflict explicitly).
func TestValidateRootTrace(t *testing.T) {
	if err := validateRootTrace("", "stall"); err != nil {
		t.Fatalf("no -trace: unexpected error %v", err)
	}
	if err := validateRootTrace("out.json", "stall"); err == nil ||
		!strings.Contains(err.Error(), "cannot be combined with -ablation") {
		t.Fatalf("-trace with -ablation: err %v", err)
	}
	if err := validateRootTrace("out.json", ""); err == nil ||
		!strings.Contains(err.Error(), "applies to the scenarios subcommand") {
		t.Fatalf("-trace alone: err %v", err)
	}
}

// resolveAblation must reject at parse time an unknown -ablation name
// (naming the registered ones) and any override the chosen ablation has
// nothing to apply to, instead of failing mid-run or ignoring the flag.
func TestResolveAblation(t *testing.T) {
	cases := []struct {
		name                                 string
		ablation, scenarios, shards, threads string
		wantErr                              string // substring; "" = must pass
	}{
		{name: "registered name", ablation: "stall"},
		{name: "unknown name lists the registry", ablation: "bogus",
			wantErr: "known: " + strings.Join(harness.AblationNames(), ", ")},
		{name: "subject override", ablation: "numa", scenarios: "numa-split, numa-balanced"},
		{name: "subject override on a subjectless ablation", ablation: "stall", scenarios: "numa-split",
			wantErr: "-ablation-scenario does not apply"},
		{name: "unknown subject", ablation: "numa", scenarios: "nope", wantErr: "unknown scenario"},
		{name: "shard counts", ablation: "shards", shards: "1, 4"},
		{name: "shard counts without a K axis", ablation: "buffer", shards: "2",
			wantErr: "-shard-counts"},
		{name: "bad shard count", ablation: "shards", shards: "two", wantErr: "bad value"},
		{name: "thread counts", ablation: "scancost", threads: "1,2"},
		{name: "thread counts without a threads axis", ablation: "lookup", threads: "4",
			wantErr: "-threads"},
	}
	for _, tc := range cases {
		a, err := resolveAblation(tc.ablation, tc.scenarios, tc.shards, tc.threads)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: err %v, want one containing %q", tc.name, err, tc.wantErr)
		case tc.wantErr == "" && a.Name != tc.ablation:
			t.Errorf("%s: resolved %q", tc.name, a.Name)
		}
	}
	a, err := resolveAblation("shards", "delete-storm", "1, 4", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Subjects) != 1 || a.Subjects[0] != "delete-storm" {
		t.Errorf("subjects %v, want [delete-storm]", a.Subjects)
	}
	if k := a.Axes[0]; k.Name != "shards" || strings.Join(k.Values, ",") != "1,4" {
		t.Errorf("shards axis %s=%v, want 1,4", k.Name, k.Values)
	}
}
