package harness

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"threadscan/internal/obs"
	"threadscan/internal/workload"
)

// TestCounterCatalogueReachesEverySurface: every catalogue entry shows
// up under its own name in the metrics export of a per-node threadscan
// run, in the scenario table header, and as an ablation column, and
// every ablation column of that name renders the catalogue's value.  A
// name the catalogue lacks fails.
func TestCounterCatalogueReachesEverySurface(t *testing.T) {
	spec, ok := workload.ByName("per-node-reclaim")
	if !ok {
		t.Fatal("per-node-reclaim builtin missing")
	}
	spec = spec.Scale(0.25)
	spec.DS, spec.Scheme, spec.Seed = "stack", "threadscan", 1
	spec.MetricsEvery = -1
	res, err := RunScenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := res.RunStats

	var buf bytes.Buffer
	if err := WriteScenarioTable(&buf, []ScenarioResult{res}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(buf.String(), "\n")
	header, row := strings.Fields(lines[0]), strings.Fields(lines[1])
	if len(header) != len(row) {
		t.Fatalf("table header has %d fields, row %d", len(header), len(row))
	}
	cell := map[string]string{}
	for i, h := range header {
		cell[h] = row[i]
	}

	for _, c := range counters {
		want := c.of(final)
		s := findSeries(t, res.Metrics, c.name)
		kind := obs.SeriesCounter
		if c.gauge {
			kind = obs.SeriesGauge
		}
		if s.Kind != kind.String() {
			t.Errorf("%s: series kind %s, want %s", c.name, s.Kind, kind)
		}
		if !c.gauge && len(s.Points) > 0 && uint64(s.Points[len(s.Points)-1].V) > want {
			t.Errorf("%s: timeline ends at %.0f, above the final total %d", c.name, s.Points[len(s.Points)-1].V, want)
		}
		if got, ok := cell[c.name]; !ok || got != fmt.Sprint(want) {
			t.Errorf("%s: table cell %q (present %v), want %d", c.name, got, ok, want)
		}
		col := counterCol(c.name)
		if col.Name != c.name || fmt.Sprintf(col.Format, col.Value(res)) != fmt.Sprint(want) {
			t.Errorf("%s: ablation column %q renders %v, want %d", c.name, col.Name, col.Value(res), want)
		}
	}

	// No ablation re-derives a catalogue counter under its name.
	cited := 0
	for _, a := range Ablations {
		for _, col := range a.Columns {
			c, ok := counterByName(col.Name)
			if !ok {
				continue
			}
			cited++
			if got, want := fmt.Sprintf(col.Format, col.Value(res)), fmt.Sprint(c.of(final)); got != want {
				t.Errorf("ablation %s column %s renders %s, catalogue %s", a.Name, col.Name, got, want)
			}
		}
	}
	if cited == 0 {
		t.Error("no ablation column cites the catalogue")
	}

	if _, ok := counterByName("no_such_counter"); ok {
		t.Error("counterByName found a counter the catalogue lacks")
	}
	defer func() {
		if recover() == nil {
			t.Error("counterCol accepted a name the catalogue lacks")
		}
	}()
	counterCol("no_such_counter")
}
