package harness

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"text/tabwriter"
)

// Scale selects workload sizes: Quick keeps simulations laptop-fast
// while preserving every structural property; Paper uses the exact §6
// parameters (131k-node hash table, 128k-node skip list, 40 cores).
type Scale int

const (
	// ScaleQuick shrinks the big structures and core count.
	ScaleQuick Scale = iota
	// ScalePaper uses the paper's §6 parameters verbatim.
	ScalePaper
)

// SweepParams parameterizes a figure sweep or an ablation.  Ablations
// run on the scenario engine, which has no cache model and takes its
// thread counts from axes, so they ignore CacheSim and ThreadCounts.
type SweepParams struct {
	Scale        Scale
	ThreadCounts []int // per-point thread counts; nil = per-figure default
	Cores        int   // virtual cores; 0 = per-scale default
	Duration     int64 // per-thread virtual cycles; 0 = default (20ms)

	// Quantum is the scheduler timeslice in cycles.  0 = the sweep
	// default: 125,000 at quick scale and 1,000,000 at paper scale for
	// figures and paper-workload ablations (ablations over builtin
	// scenarios keep the scenario's own, 125,000).  Handed to a single
	// run (tsbench -single), 0 means the simulator's 200,000.
	Quantum int64

	Seed     int64
	CacheSim bool
}

// baseConfig returns the per-structure workload of §6 at the chosen
// scale.  Reclamation batch sizes follow the measurement window: the
// paper's 1024-pointer buffers amortize over 10-second runs; quick runs
// measure tens of virtual milliseconds, so buffers scale to 128 (and
// the errant delay to 4ms) to keep the same reclamations-per-run ratio.
func baseConfig(dsName string, p SweepParams) Config {
	cfg := Config{DS: dsName, Duration: p.Duration, Seed: p.Seed,
		CacheSim: p.CacheSim, Quantum: p.Quantum}
	if cfg.Quantum == 0 {
		// The timeslice sets the signal-response rotation under
		// oversubscription ((threads/cores) x quantum) and must keep
		// the paper's ratio of collect cost to inter-collect interval.
		// Paper scale: 1ms (Linux-like) against 1024-deep buffers.
		// Quick scale: buffers shrink 8x, so the quantum does too.
		if p.Scale == ScalePaper {
			cfg.Quantum = 1_000_000
		} else {
			cfg.Quantum = 125_000
		}
	}
	if p.Scale == ScalePaper {
		cfg.BufferSize = 1024
		cfg.Batch = 1024
		cfg.SlowDelay = 40_000_000 // the paper's 40ms
	} else {
		// Scaled so that (a) several reclamation phases happen per
		// measured window, as in the paper's 10s runs, and (b) the
		// buffer stays well above the stale-register pinning floor
		// (~15 re-marked nodes per thread) so marked nodes do not
		// dominate the delete buffers.
		cfg.BufferSize = 128
		cfg.Batch = 128
		// The errant delay must exceed a reclaimer's inter-cleanup
		// interval (~5ms of thread time at these op rates) to show the
		// paper's collapse; 8ms keeps the paper's delay:batch ratio.
		cfg.SlowDelay = 8_000_000
	}
	switch dsName {
	case "list":
		// "Linked lists were 1024 nodes long, and the range of values
		// was 2048" — small enough to use verbatim at every scale.
		cfg.KeyRange = 2048
		cfg.Prefill = 1024
	case "hash":
		if p.Scale == ScalePaper {
			// "Hash tables contained 131,072 nodes with a range of
			// 262,144.  The expected bucket size was 32 nodes."
			cfg.KeyRange = 262_144
			cfg.Prefill = 131_072
			cfg.Buckets = 4096
		} else {
			cfg.KeyRange = 16_384
			cfg.Prefill = 8_192
			cfg.Buckets = 256
		}
	case "skiplist":
		if p.Scale == ScalePaper {
			// "Skip lists contained 128,000 nodes with a range of
			// values of 256,000."
			cfg.KeyRange = 256_000
			cfg.Prefill = 128_000
		} else {
			cfg.KeyRange = 16_000
			cfg.Prefill = 8_000
		}
	}
	return cfg
}

func (p *SweepParams) fill(fig int) {
	if p.Cores == 0 {
		if p.Scale == ScalePaper {
			p.Cores = 40 // the paper's 40-core, 80-thread Xeon
		} else {
			p.Cores = 8
		}
	}
	if len(p.ThreadCounts) == 0 {
		switch {
		case fig == 3 && p.Scale == ScalePaper:
			p.ThreadCounts = []int{1, 10, 20, 40, 60, 80}
		case fig == 3:
			p.ThreadCounts = []int{1, 2, 4, 8, 16}
		case fig == 4 && p.Scale == ScalePaper:
			// "threads up to 200" on 40 cores.
			p.ThreadCounts = []int{40, 80, 120, 160, 200}
		default:
			p.ThreadCounts = []int{8, 16, 24, 32, 40}
		}
	}
}

// Series is one scheme's curve across thread counts.
type Series struct {
	Name    string
	Results []Result
}

// Figure is a reproduced figure panel: throughput-vs-threads curves for
// one data structure under several schemes.
type Figure struct {
	Title        string
	DS           string
	ThreadCounts []int
	Series       []Series
}

// runSweep produces one panel for the named schemes.  The variant hook
// may adjust each point's Config (e.g. the tuned 4096 buffer).
func runSweep(title, dsName string, schemes []string, p SweepParams,
	variant func(*Config, string)) (Figure, error) {
	fig := Figure{Title: title, DS: dsName, ThreadCounts: p.ThreadCounts}
	for _, scheme := range schemes {
		s := Series{Name: scheme}
		for _, n := range p.ThreadCounts {
			cfg := baseConfig(dsName, p)
			cfg.Scheme = scheme
			cfg.Threads = n
			cfg.Cores = p.Cores
			if variant != nil {
				variant(&cfg, scheme)
			}
			r, err := Run(cfg)
			if err != nil {
				return fig, err
			}
			s.Results = append(s.Results, r)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// Fig3Schemes are the five techniques of Figure 3, in the paper's order.
var Fig3Schemes = []string{"leaky", "hazard", "epoch", "slow-epoch", "threadscan"}

// Fig4Schemes are the techniques kept for the oversubscription study:
// "Slow Epoch and Hazard Pointers were not included ... since they were
// shown not to scale well in normal circumstances" (§6).
var Fig4Schemes = []string{"leaky", "epoch", "threadscan"}

// RunFig3 reproduces one panel of Figure 3: throughput vs thread count,
// threads <= hardware contexts.
func RunFig3(dsName string, p SweepParams) (Figure, error) {
	p.fill(3)
	title := fmt.Sprintf("Figure 3 (%s): throughput, %d cores", dsName, p.Cores)
	return runSweep(title, dsName, Fig3Schemes, p, nil)
}

// RunFig4 reproduces one panel of Figure 4: the oversubscribed system
// (threads >> cores).  For the hash table it adds the paper's tuned
// variant — "increasing the length of the per-thread delete buffer
// length to 4096", i.e. 4x the base buffer at either scale.
func RunFig4(dsName string, p SweepParams) (Figure, error) {
	p.fill(4)
	schemes := Fig4Schemes
	if dsName == "hash" {
		schemes = append(append([]string{}, schemes...), "threadscan-tuned")
	}
	title := fmt.Sprintf("Figure 4 (%s): oversubscription, %d cores", dsName, p.Cores)
	return runSweep(title, dsName, schemes, p, func(cfg *Config, scheme string) {
		if scheme == "threadscan-tuned" {
			cfg.Scheme = "threadscan"
			cfg.BufferSize = 4 * cfg.BufferSize
		}
	})
}

// WriteTable renders a figure as an aligned text table of throughput
// (operations per virtual second).
func WriteTable(w io.Writer, f Figure) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "# %s\n", f.Title)
	fmt.Fprint(tw, "threads")
	for _, s := range f.Series {
		fmt.Fprintf(tw, "\t%s", s.Name)
	}
	fmt.Fprintln(tw)
	for i, n := range f.ThreadCounts {
		fmt.Fprintf(tw, "%d", n)
		for _, s := range f.Series {
			fmt.Fprintf(tw, "\t%.0f", s.Results[i].Throughput)
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// WriteCSV renders a figure as CSV rows:
// ds,scheme,threads,cores,ops,elapsed_cycles,throughput.
func WriteCSV(w io.Writer, f Figure) error {
	cw := csv.NewWriter(w)
	defer cw.Flush()
	if err := cw.Write([]string{"ds", "scheme", "threads", "cores", "ops",
		"elapsed_cycles", "throughput_ops_per_vsec"}); err != nil {
		return err
	}
	for _, s := range f.Series {
		for _, r := range s.Results {
			rec := []string{
				f.DS, s.Name,
				strconv.Itoa(r.Config.Threads),
				strconv.Itoa(r.Config.Cores),
				strconv.FormatUint(r.Ops, 10),
				strconv.FormatInt(r.ElapsedCycles, 10),
				strconv.FormatFloat(r.Throughput, 'f', 0, 64),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
