// Command perfbench is the repository's host-cost benchmark.  It runs
// one named workload through the public facade (threadscan.RunExperiment
// and threadscan.RunScenario), checks every cell's virtual results
// against recorded expectations, and prints the end-to-end metrics; with
// -trace 1 it instead rebuilds each cell from the layers' public
// constructors, times the calls into each layer, and prints the
// per-layer metrics.  The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	go run . -workload fig3-list -seed 1 -seconds 30 -trace 0
//
// See README.md for the workloads, the metrics and what each should
// move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

func main() {
	wlName := flag.String("workload", "", "workload to run (fig3-list, reclaim-grid, hash-storm)")
	seed := flag.Int64("seed", 1, "seed for every cell's simulation")
	seconds := flag.Int("seconds", 30, "measure for this many host seconds (at least one pass)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics through the facade; 1: per-layer metrics from the traced driver")
	record := flag.String("record", "", "with -trace 0, write this seed's cell outcomes as expectations to this file")
	flag.Parse()

	wl, err := workloadByName(*wlName)
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("-trace must be 0 or 1, not %d", *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	exp, err := loadExpectations()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg := runConfig{wl: wl, seed: *seed, seconds: time.Duration(*seconds) * time.Second, size: full}
	var rep report
	if *trace == 0 {
		rep = runEndToEnd(cfg, exp, os.Stderr)
		if *record != "" {
			if rep.Failed > 0 {
				fmt.Fprintln(os.Stderr, "perfbench: cells failed; nothing recorded")
				os.Exit(1)
			}
			if err := exp.record(*record, wl.name, *seed, rep.outcomes); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				os.Exit(1)
			}
		}
	} else {
		rep = runTraced(cfg, os.Stderr)
	}
	if err := rep.write(os.Stdout, newManifest(cfg)); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// runConfig is one benchmark invocation.
type runConfig struct {
	wl      workloadDef
	seed    int64
	seconds time.Duration
	size    size
}

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a run prints.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	notes    []string           // per-metric detail lines (tail percentile, source)
	outcomes map[string]outcome // -trace 0: each cell's outcome on the first pass
}

func (r *report) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail counts one failed cell run and says why on w, one line per
// problem.
func (r *report) fail(w io.Writer, cellName string, problems []string) {
	r.Failed++
	for _, p := range problems {
		fmt.Fprintf(w, "FAIL %s: %s\n", cellName, p)
	}
}

// write prints the manifest, a metric table and, as the last line, the
// result JSON.
func (r *report) write(w io.Writer, m manifest) error {
	r.Correct = r.Failed == 0 && r.Attempted > 0
	mj, err := json.Marshal(m)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "manifest %s\n", mj)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-32s %16.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "#", n)
	}
	fmt.Fprintf(w, "failed_frac %g (%d of %d cells)\n",
		float64(r.Failed)/float64(max(r.Attempted, 1)), r.Failed, r.Attempted)
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// manifest says how a result was made, so rows from different hosts or
// revisions are never compared silently.
type manifest struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"vcs_revision"`
	Modified   string `json:"vcs_modified"`
	Workload   string `json:"workload"`
	Cells      int    `json:"cells"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
}

func newManifest(cfg runConfig) manifest {
	m := manifest{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Revision: "unknown", Modified: "unknown",
		Workload: cfg.wl.name, Cells: len(cfg.wl.cells(cfg.seed, cfg.size)),
		Seed: cfg.seed, Seconds: int(cfg.seconds / time.Second),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Revision = s.Value
			case "vcs.modified":
				m.Modified = s.Value
			}
		}
	}
	return m
}

// runEndToEnd runs every cell of the workload through the facade, pass
// after pass until the time is up, and reports each end-to-end metric
// as the median over passes.  Every pass checks every cell.
func runEndToEnd(cfg runConfig, exp expectations, log io.Writer) report {
	var rep report
	cells := cfg.wl.cells(cfg.seed, cfg.size)
	var wall, setup, opsRate, allocMB []float64
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < cfg.seconds; pass++ {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var setupD, simD time.Duration
		var ops uint64
		outs := map[string]outcome{}
		t0 := time.Now()
		for _, c := range cells {
			r := runFacade(c)
			rep.Attempted++
			setupD += r.wall - r.simWall
			simD += r.simWall
			ops += r.out.Ops
			outs[c.name] = r.out
			problems := r.problems
			if len(problems) == 0 {
				problems = exp.check(cfg.wl.name, cfg.seed, c.name, r.out)
			}
			if len(problems) > 0 {
				rep.fail(log, c.name, problems)
			}
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&after)
		if pass == 0 {
			rep.outcomes = outs
		}
		wall = append(wall, d.Seconds())
		setup = append(setup, setupD.Seconds())
		opsRate = append(opsRate, float64(ops)/simD.Seconds())
		allocMB = append(allocMB, float64(after.TotalAlloc-before.TotalAlloc)/1e6)
		fmt.Fprintf(log, "pass %d: wall %.3fs setup %.3fs sim_ops/s %.0f alloc %.0fMB\n",
			pass, d.Seconds(), setupD.Seconds(), opsRate[pass], allocMB[pass])
	}
	rep.set("wall_s", median(wall), "s")
	rep.set("setup_s", median(setup), "s")
	rep.set("sim_ops_per_s", median(opsRate), "1/s")
	rep.set("alloc_mb", median(allocMB), "MB")
	rep.notes = append(rep.notes, fmt.Sprintf("medians over %d passes of %d cells", len(wall), len(cells)))
	return rep
}

// median returns the middle value of xs (the mean of the middle two
// for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
