package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"threadscan/internal/harness"
	"threadscan/internal/obs"
	"threadscan/internal/workload"
)

// runHarnessBench is the `tsbench harness-bench` subcommand: the
// simulator's own wall-clock trajectory.  It times the full scenario
// grid and every ablation sweep on the host clock, appends one row to
// BENCH_harness.json, and with -check fails when any section runs more
// than 2x slower than the rolling best of the rows recorded on the same
// host — so a simulator performance regression fails CI like a
// correctness regression would.
//
// Host time lives here deliberately: internal/harness is a simulation
// package policed by tslint's determinism analyzer, so the only clock
// it may read is virtual.  The trajectory is a property of the *host*
// run, which makes it cmd/ business.
func runHarnessBench(args []string) {
	fs := flag.NewFlagSet("harness-bench", flag.ExitOnError)
	var (
		jsonPath = fs.String("json", "BENCH_harness.json", "trajectory file to append to")
		check    = fs.Bool("check", false, "fail if any section runs >2x slower than the rolling best of the trajectory's rows from this host")
		scale    = fs.Float64("scale", 0.25, "stretch factor for the scenario-grid section")
		duration = fs.Float64("duration-ms", 10, "measured window for the ablation sections, in virtual milliseconds")
		seed     = fs.Int64("seed", 1, "simulation seed")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: tsbench harness-bench [flags]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}

	params := harness.SweepParams{
		Scale:    harness.ScaleQuick,
		Duration: int64(*duration * 1e6),
		Seed:     *seed,
		CacheSim: true,
	}

	row := benchRow{
		When:     time.Now().UTC().Format(time.RFC3339),
		Host:     fmt.Sprintf("%s/%s ncpu=%d", runtime.GOOS, runtime.GOARCH, runtime.NumCPU()),
		Sections: map[string]float64{},
	}
	timed := func(name string, run func() error) {
		start := time.Now()
		if err := run(); err != nil {
			fatal(fmt.Errorf("harness-bench %s: %w", name, err))
		}
		secs := time.Since(start).Seconds()
		row.Sections[name] = secs
		row.TotalSec += secs
		fmt.Fprintf(os.Stderr, "· %-20s %7.2fs\n", name, secs)
	}

	timed("scenario-grid", func() error {
		for _, base := range workload.Builtins() {
			for _, ds := range []string{"list", "stack", "queue"} {
				for _, scheme := range []string{"leaky", "epoch", "threadscan"} {
					spec := base.Scale(*scale)
					spec.DS, spec.Scheme, spec.Seed = ds, scheme, *seed
					if _, err := harness.RunScenario(spec); err != nil {
						return fmt.Errorf("%s/%s/%s: %w", base.Name, ds, scheme, err)
					}
				}
			}
		}
		return nil
	})
	for _, a := range harness.Ablations {
		timed("ablation-"+a.Name, func() error { _, err := a.Run(params); return err })
	}
	timed("metrics", func() error {
		spec, ok := workload.ByName("per-node-reclaim")
		if !ok {
			return fmt.Errorf("builtin per-node-reclaim missing")
		}
		spec = spec.Scale(*scale)
		spec.Scheme, spec.Seed = "threadscan", *seed
		spec.MetricsEvery = -1 // footprint cadence
		r, err := harness.RunScenario(spec)
		if err != nil {
			return err
		}
		cell := obs.MetricsCell{Scenario: r.Name, DS: r.DS, Scheme: r.Scheme, Series: r.Metrics}
		var buf bytes.Buffer
		if err := obs.WriteMetricsJSON(&buf, []obs.MetricsCell{cell}); err != nil {
			return err
		}
		cells, err := obs.ReadMetricsJSON(&buf)
		if err != nil {
			return err
		}
		// A metrics run must self-compare clean: any drift against its
		// own export is a determinism or round-trip bug, not a perf
		// regression, and fails the section outright.
		if drifts := obs.DiffMetrics(cells, cells, 0.01); len(drifts) > 0 {
			return fmt.Errorf("metrics self-diff drifted: %d series", len(drifts))
		}
		return nil
	})
	fmt.Fprintf(os.Stderr, "· %-20s %7.2fs\n", "total", row.TotalSec)

	prior, err := readTrajectory(*jsonPath)
	if err != nil {
		fatal(err)
	}
	if *check {
		if err := checkTrajectory(prior, row); err != nil {
			fatal(err)
		}
	}
	if err := writeTrajectory(*jsonPath, append(prior, row)); err != nil {
		fatal(err)
	}
}

// benchRow is one harness-bench run: host wall-clock seconds per
// section, appended to the trajectory file.
type benchRow struct {
	When     string             `json:"when"`
	Host     string             `json:"host"`
	Sections map[string]float64 `json:"sections_sec"`
	TotalSec float64            `json:"total_sec"`
}

func readTrajectory(path string) ([]benchRow, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var rows []benchRow
	if err := json.Unmarshal(raw, &rows); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rows, nil
}

func writeTrajectory(path string, rows []benchRow) error {
	buf, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// checkTrajectory compares the fresh row against the rolling best (the
// per-section minimum over the last 20 rows recorded on the fresh row's
// host) and reports every section that ran more than 2x slower.  Rows
// from other hosts are ignored: a fast host must not set the budget of
// a slow one, nor a slow one loosen a fast one's.  The minimum — not
// the latest row — is the reference, so a slow run can't ratchet the
// budget upward run over run; the 2x margin absorbs run-to-run noise.
func checkTrajectory(prior []benchRow, fresh benchRow) error {
	var window []benchRow
	for _, r := range prior {
		if r.Host == fresh.Host {
			window = append(window, r)
		}
	}
	if len(window) == 0 {
		fmt.Fprintf(os.Stderr, "harness-bench: no prior rows from host %q (%d from other hosts); recording first row\n",
			fresh.Host, len(prior))
		return nil
	}
	if len(window) > 20 {
		window = window[len(window)-20:]
	}
	best := map[string]float64{}
	for _, r := range window {
		for name, secs := range r.Sections {
			if b, ok := best[name]; !ok || secs < b {
				best[name] = secs
			}
		}
	}
	var regressions []string
	for name, secs := range fresh.Sections {
		if b, ok := best[name]; ok && secs > 2*b {
			regressions = append(regressions,
				fmt.Sprintf("%s: %.2fs vs rolling best %.2fs (%.1fx)", name, secs, b, secs/b))
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("wall-clock regression >2x:\n  %s", strings.Join(regressions, "\n  "))
	}
	fmt.Fprintf(os.Stderr, "harness-bench: all %d sections within 2x of the rolling best of %d rows from host %q\n",
		len(fresh.Sections), len(window), fresh.Host)
	return nil
}
