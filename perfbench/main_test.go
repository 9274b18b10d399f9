package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// contract is the part of BENCHMARK.json the smoke test holds the code
// to: every metric it names must print, with its unit.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// printed writes rep as the benchmark prints it and parses the last
// line back.
func printed(t *testing.T, rep report, cfg runConfig) report {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.write(&buf, newManifest(cfg)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if !strings.HasPrefix(lines[0], "manifest {") {
		t.Errorf("first line is not the manifest: %q", lines[0])
	}
	var got report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	return got
}

func checkMetrics(t *testing.T, wl string, got map[string]metric, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics printed, BENCHMARK.json names %d", wl, len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not printed", wl, m.Name)
		case g.Unit != m.Unit:
			t.Errorf("%s: metric %s unit %q, want %q", wl, m.Name, g.Unit, m.Unit)
		}
	}
}

// TestSmoke runs every workload at tiny size, end to end and traced,
// and checks that every metric prints with its unit and that a wrong
// expectation fails its cell.
func TestSmoke(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(c.Workloads), len(workloads))
	}
	for _, w := range c.Workloads {
		wl, err := workloadByName(w.Name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(wl.name, func(t *testing.T) {
			cfg := runConfig{wl: wl, seed: 7, size: tiny}
			var log bytes.Buffer

			// Record this seed's outcomes, then hold a second run to them.
			first := runEndToEnd(cfg, expectations{}, &log)
			if first.Failed != 0 {
				t.Fatalf("unpinned run failed:\n%s", log.String())
			}
			exp := expectations{wl.name: {"7": first.outcomes}}
			rep := printed(t, runEndToEnd(cfg, exp, &log), cfg)
			if !rep.Correct || rep.Failed != 0 || rep.Attempted != len(first.outcomes) {
				t.Fatalf("pinned rerun: correct %v, %d of %d failed:\n%s",
					rep.Correct, rep.Failed, rep.Attempted, log.String())
			}
			checkMetrics(t, wl.name, rep.Metrics, c.EndToEnd)

			// A deliberately wrong expectation fails exactly its cell.
			victim := wl.cells(cfg.seed, cfg.size)[0].name
			wrong := exp[wl.name]["7"][victim]
			wrong.Ops++
			exp[wl.name]["7"][victim] = wrong
			log.Reset()
			rep = printed(t, runEndToEnd(cfg, exp, &log), cfg)
			if rep.Correct || rep.Failed != 1 {
				t.Errorf("perturbed expectation: correct %v, %d failed, want 1", rep.Correct, rep.Failed)
			}
			if !strings.Contains(log.String(), victim+": ops ") {
				t.Errorf("failure does not name cell %s and field ops:\n%s", victim, log.String())
			}

			log.Reset()
			rep = printed(t, runTraced(cfg, &log), cfg)
			if !rep.Correct {
				t.Fatalf("traced run failed:\n%s", log.String())
			}
			checkMetrics(t, wl.name, rep.Metrics, c.PerLayer)
			for _, m := range c.PerLayer {
				if strings.HasSuffix(m.Name, ".n") && rep.Metrics[m.Name].Value == 0 {
					t.Errorf("%s: %s has no samples", wl.name, m.Name)
				}
			}
		})
	}
}
