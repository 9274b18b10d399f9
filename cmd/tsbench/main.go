// Command tsbench regenerates the paper's evaluation — both figure
// families (Figure 3: throughput scaling; Figure 4: oversubscription)
// and the ten ablations listed in the README's "Ablations" section (A1
// buffer size, A2 scan cost, A3 scan lookup, A4 errant thread, A5
// sharded collect, A6 NUMA shard affinity, A7 per-node routing, A8
// allocation pools, A9 concurrent collects, A10 bounded garbage) — and
// runs the declarative scenario suite (skew, delete storms, thread
// churn, oversubscription) with memory-footprint telemetry.
//
// Examples:
//
//	tsbench -fig 3 -ds list                 # one Figure 3 panel, quick scale
//	tsbench -fig 4 -ds all -csv fig4.csv    # all Figure 4 panels + CSV
//	tsbench -fig 3 -ds hash -scale paper    # paper-exact workload (slow!)
//	tsbench -ablation stall                 # A4: errant-thread contrast
//	tsbench -ablation robust                # A10: bounded garbage under preemption
//	tsbench -single -ds skiplist -scheme threadscan -threads 16 -cores 8
//
//	tsbench scenarios -list                 # name every built-in scenario
//	tsbench scenarios                       # full suite as JSON on stdout
//	tsbench scenarios -scenario delete-storm,thread-churn -ds stack,queue
//	tsbench scenarios -json suite.json      # results to a file, table on stderr
//
//	tsbench scenarios -metrics m.json       # per-series virtual-time timelines
//	                                        # (garbage_nodes, live_words, every counter)
//	tsbench timeline m.json                 # sparkline/table report of a metrics file
//	tsbench metrics-diff old.json new.json  # flag steady-state drift between runs
//
//	tsbench harness-bench                   # append a wall-clock trajectory row
//	tsbench harness-bench -check            # and fail on >2x regression
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"threadscan/internal/harness"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "scenarios" {
		runScenarios(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "harness-bench" {
		runHarnessBench(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "timeline" {
		runTimeline(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "metrics-diff" {
		runMetricsDiff(os.Args[2:])
		return
	}
	var (
		figNum   = flag.Int("fig", 0, "figure to reproduce: 3 or 4")
		ablation = flag.String("ablation", "", "ablation to run: "+strings.Join(harness.AblationNames(), " | "))
		single   = flag.Bool("single", false, "run a single experiment and dump its stats")
		dsName   = flag.String("ds", "all", "data structure: list | hash | skiplist | all")
		scheme   = flag.String("scheme", "threadscan", "scheme for -single")
		scale    = flag.String("scale", "quick", "workload scale: quick | paper")
		threads  = flag.String("threads", "", "comma-separated thread counts (sweeps) or count (-single)")
		cores    = flag.Int("cores", 0, "virtual cores (0 = per-scale default)")
		duration = flag.Float64("duration-ms", 50, "measured window per point, in virtual milliseconds")
		quantum  = flag.Float64("quantum-us", 0, "scheduler timeslice in virtual microseconds (0 = default: 125 for -fig and -ablation at quick scale, 1000 at paper scale except ablations over builtin scenarios, which keep the scenario's 125; 200, the simulator's, for -single)")
		seed     = flag.Int64("seed", 1, "simulation seed")
		cacheSim = flag.Bool("cache", true, "enable the per-core cache model")
		csvPath  = flag.String("csv", "", "also write figure results as CSV to this file")
		buffer   = flag.Int("buffer", 0, "per-thread delete buffer for -single (0 = 1024)")
		batch    = flag.Int("batch", 0, "reclaim batch for -single (0 = 1024)")
		ablScen  = flag.String("ablation-scenario", "", "comma-separated builtin scenarios replacing the -ablation's subjects")
		shardKs  = flag.String("shard-counts", "", "comma-separated K values for an -ablation with a shards axis")
		trace    = flag.String("trace", "", "tracing is a scenarios feature; see: tsbench scenarios -trace out.json")
	)
	flag.Parse()

	if err := validateRootTrace(*trace, *ablation); err != nil {
		fmt.Fprintln(os.Stderr, "tsbench:", err)
		flag.Usage()
		os.Exit(2)
	}

	// An unknown scheme is a usage error at parse time, not a failure
	// after the run starts — same policy as scenario and topology names.
	if !harness.KnownScheme(*scheme) {
		fmt.Fprintf(os.Stderr, "tsbench: unknown scheme %q (known: %s)\n",
			*scheme, strings.Join(harness.SchemeNames(), ", "))
		flag.Usage()
		os.Exit(2)
	}

	var abl harness.Ablation
	if *ablation != "" {
		var err error
		abl, err = resolveAblation(*ablation, *ablScen, *shardKs, *threads)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tsbench:", err)
			flag.Usage()
			os.Exit(2)
		}
	}

	params := harness.SweepParams{
		Scale:    parseScale(*scale),
		Cores:    *cores,
		Duration: int64(*duration * 1e6),
		Quantum:  int64(*quantum * 1e3),
		Seed:     *seed,
		CacheSim: *cacheSim,
	}
	if *threads != "" && !*single {
		params.ThreadCounts = parseInts(*threads, "thread count")
	}

	switch {
	case *single:
		runSingle(*dsName, *scheme, *threads, params, *buffer, *batch)
	case *ablation != "":
		cells, err := abl.Run(params)
		if err != nil {
			fatal(err)
		}
		if err := abl.WriteTable(os.Stdout, cells); err != nil {
			fatal(err)
		}
	case *figNum == 3 || *figNum == 4:
		runFigure(*figNum, *dsName, params, *csvPath)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tsbench:", err)
	os.Exit(1)
}

// validateRootTrace rejects -trace on the root command: traces come
// from the scenario engine, and silently ignoring the flag on a figure
// or ablation run would look like an empty-trace bug.  A usage error at
// parse time, matching the topology-flag validation style.
func validateRootTrace(trace, ablation string) error {
	if trace == "" {
		return nil
	}
	if ablation != "" {
		return fmt.Errorf("-trace cannot be combined with -ablation: tracing is a scenarios feature (tsbench scenarios -trace %s)", trace)
	}
	return fmt.Errorf("-trace applies to the scenarios subcommand: tsbench scenarios -trace %s", trace)
}

func parseScale(s string) harness.Scale {
	switch s {
	case "quick":
		return harness.ScaleQuick
	case "paper":
		return harness.ScalePaper
	default:
		fatal(fmt.Errorf("unknown scale %q", s))
		return 0
	}
}

func parseInts(s, what string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			fatal(fmt.Errorf("bad %s %q", what, part))
		}
		out = append(out, n)
	}
	return out
}

// resolveAblation looks up the -ablation name and applies the
// -ablation-scenario, -shard-counts and -threads overrides.  An unknown
// name, or an override the ablation has nothing to apply to, is a usage
// error at parse time — same policy as -scheme.
func resolveAblation(name, scenarios, shardCounts, threads string) (harness.Ablation, error) {
	a, ok := harness.AblationByName(name)
	if !ok {
		return a, fmt.Errorf("unknown ablation %q (known: %s)",
			name, strings.Join(harness.AblationNames(), ", "))
	}
	if scenarios != "" {
		if len(a.Subjects) == 0 {
			return a, fmt.Errorf("-ablation-scenario does not apply to -ablation %s, which runs no builtin scenario", name)
		}
		specs, err := resolveScenarios(scenarios)
		if err != nil {
			return a, fmt.Errorf("-ablation-scenario: %w", err)
		}
		a.Subjects = nil
		for _, s := range specs {
			a.Subjects = append(a.Subjects, s.Name)
		}
	}
	for _, o := range []struct{ flag, axis, values string }{
		{"-shard-counts", "shards", shardCounts},
		{"-threads", "threads", threads},
	} {
		if o.values == "" {
			continue
		}
		var err error
		if a, err = a.Sweep(o.axis, strings.Split(strings.ReplaceAll(o.values, " ", ""), ",")...); err != nil {
			return a, fmt.Errorf("%s: %w", o.flag, err)
		}
	}
	return a, nil
}

func dsNames(s string) []string {
	if s == "all" {
		return []string{"list", "hash", "skiplist"}
	}
	if s == "skip" {
		return []string{"skiplist"}
	}
	return []string{s}
}

func runFigure(fig int, dsArg string, params harness.SweepParams, csvPath string) {
	var csvFile *os.File
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		csvFile = f
	}
	for _, name := range dsNames(dsArg) {
		var (
			figure harness.Figure
			err    error
		)
		if fig == 3 {
			figure, err = harness.RunFig3(name, params)
		} else {
			figure, err = harness.RunFig4(name, params)
		}
		if err != nil {
			fatal(err)
		}
		if err := harness.WriteTable(os.Stdout, figure); err != nil {
			fatal(err)
		}
		fmt.Println()
		if csvFile != nil {
			if err := harness.WriteCSV(csvFile, figure); err != nil {
				fatal(err)
			}
		}
	}
}

func runSingle(dsArg, scheme, threadsArg string, params harness.SweepParams, buffer, batch int) {
	n := 4
	if threadsArg != "" {
		n = parseInts(threadsArg, "thread count")[0]
	}
	for _, name := range dsNames(dsArg) {
		cfg := harness.Config{
			DS: name, Scheme: scheme, Threads: n, Cores: params.Cores,
			Duration: params.Duration, Seed: params.Seed, CacheSim: params.CacheSim,
			Quantum: params.Quantum, BufferSize: buffer, Batch: batch,
		}
		r, err := harness.Run(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s/%s threads=%d cores=%d\n", name, scheme, n, r.Config.Cores)
		fmt.Printf("  ops            %d\n", r.Ops)
		fmt.Printf("  elapsed        %.3f virtual ms (wall %v)\n", r.VirtualSeconds*1e3, r.WallTime)
		fmt.Printf("  throughput     %.0f ops/vsec\n", r.Throughput)
		fmt.Printf("  final size     %d\n", r.FinalSize)
		fmt.Printf("  scheme stats   %+v\n", r.Scheme)
		if r.Core != nil {
			fmt.Printf("  threadscan     %+v\n", *r.Core)
		}
		fmt.Printf("  sim stats      %+v\n", r.Sim)
		fmt.Printf("  heap           allocs=%d frees=%d live=%d\n",
			r.Heap.Allocs, r.Heap.Frees, r.Heap.LiveBlocks)
	}
}
