package harness

import (
	"bytes"
	"strings"
	"testing"

	"threadscan/internal/workload"
)

// ablation returns the registered ablation called name.
func ablation(t *testing.T, name string) Ablation {
	t.Helper()
	a, ok := AblationByName(name)
	if !ok {
		t.Fatalf("ablation %q not registered", name)
	}
	return a
}

// withAxes returns a copy of a in which each axis replaces its namesake,
// or, when a has none, joins as the innermost axis.  A single-valued
// axis fixes a knob without adding cells.
func withAxes(a Ablation, axes ...Axis) Ablation {
	a.Axes = append([]Axis(nil), a.Axes...)
next:
	for _, ax := range axes {
		for i := range a.Axes {
			if a.Axes[i].Name == ax.Name {
				a.Axes[i] = ax
				continue next
			}
		}
		a.Axes = append(a.Axes, ax)
	}
	return a
}

func setStallEvery(s *workload.Scenario, v int) { s.StallEvery = v }

// TestAblationRegistry runs every registered ablation at a tiny
// duration: the sweep must succeed, render one table row per cell, and
// give every row as many fields as the header.
func TestAblationRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("every ablation sweep skipped in -short")
	}
	seen := map[string]bool{}
	for _, a := range Ablations {
		t.Run(a.Name, func(t *testing.T) {
			if seen[a.Name] {
				t.Fatalf("ablation %q registered twice", a.Name)
			}
			seen[a.Name] = true
			cells, err := a.Run(SweepParams{Cores: 2, Duration: 500_000, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			want := 1
			if len(a.Subjects) > 0 {
				want = len(a.Subjects)
			}
			for _, ax := range a.Axes {
				want *= len(ax.Values)
			}
			if len(cells) != want {
				t.Fatalf("%d cells, want %d", len(cells), want)
			}
			var buf bytes.Buffer
			if err := a.WriteTable(&buf, cells); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
			if len(lines) != 2+len(cells) || !strings.HasPrefix(lines[0], "# ") {
				t.Fatalf("table has %d lines for %d cells:\n%s", len(lines), len(cells), buf.String())
			}
			header := strings.Fields(lines[1])
			if len(header) != len(a.Columns) {
				t.Fatalf("header has %d fields, want %d columns", len(header), len(a.Columns))
			}
			for _, row := range lines[2:] {
				if got := len(strings.Fields(row)); got != len(header) {
					t.Errorf("row %q has %d fields, header %d", row, got, len(header))
				}
			}
		})
	}
}

// Sweep replaces an axis's values and refuses ones it cannot apply.
func TestAblationSweep(t *testing.T) {
	a := ablation(t, "shards")
	b, err := a.Sweep("shards", "2", "4")
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Axes[0].Values; len(got) != 2 || got[0] != "2" {
		t.Fatalf("swept values %v", got)
	}
	if a.Axes[0].Values[0] != "1" {
		t.Fatal("Sweep wrote through to the registry")
	}
	if _, err := a.Sweep("shards", "x"); err == nil {
		t.Fatal("non-numeric shard count accepted")
	}
	if _, err := a.Sweep("nodes", "2"); err == nil {
		t.Fatal("sweep over a missing axis accepted")
	}
}
