package harness

import (
	"fmt"

	"threadscan/internal/core"
	"threadscan/internal/reclaim"
	"threadscan/internal/simmem"
	"threadscan/internal/simt"
)

// The counter catalogue: every raw counter a run reports, named once.
// The metrics engine registers each entry as a timeline of that name,
// the scenario table prints each as a column of that name, and the
// ablations render the ones they cite through counterCol, so adding a
// counter is one line here.  Derived figures (rates, ratios, per-node
// breakdowns) stay with the surface that derives them.

// RunStats is one run's counter sources.
type RunStats struct {
	SchemeStats reclaim.Stats `json:"scheme_stats"`
	Core        *core.Stats   `json:"threadscan_stats,omitempty"` // nil off threadscan
	Sim         simt.SimStats `json:"sim_stats"`
	Heap        simmem.Stats  `json:"heap_stats"`
}

// A counter is one catalogue entry: a name and its reader.
type counter struct {
	name string
	// gauge marks an instantaneous level; every other entry is a
	// cumulative total (or a running maximum), never decreasing.
	gauge bool
	core  bool // reads RunStats.Core, which only threadscan runs have
	read  func(s *RunStats) uint64
}

// total, level and coreTotal build catalogue entries: a cumulative
// total, an instantaneous level, and a ThreadScan pipeline total.
func total(name string, read func(*RunStats) uint64) counter {
	return counter{name: name, read: read}
}

func level(name string, read func(*RunStats) uint64) counter {
	return counter{name: name, gauge: true, read: read}
}

func coreTotal(name string, read func(*core.Stats) uint64) counter {
	return counter{name: name, core: true, read: func(s *RunStats) uint64 { return read(s.Core) }}
}

// garbageNodes is retired-but-unfreed nodes and the Freed-over-Retired
// excess.  A sound scheme never frees more than it retired; when one
// does, the garbage reads zero and the excess is reported instead of
// wrapping the uint64 subtraction to ~1.8e19.
func garbageNodes(st reclaim.Stats) (garbage, skew uint64) {
	if st.Freed > st.Retired {
		return 0, st.Freed - st.Retired
	}
	return st.Retired - st.Freed, 0
}

// counters is the catalogue, in presentation order.
var counters = []counter{
	total("retired", func(s *RunStats) uint64 { return s.SchemeStats.Retired }),
	total("freed", func(s *RunStats) uint64 { return s.SchemeStats.Freed }),
	level("pending", func(s *RunStats) uint64 { return s.SchemeStats.Pending }),
	level("garbage_nodes", func(s *RunStats) uint64 {
		g, _ := garbageNodes(s.SchemeStats)
		return g
	}),
	total("reclaim_passes", func(s *RunStats) uint64 { return s.SchemeStats.ReclaimPasses }),
	total("grace_waits", func(s *RunStats) uint64 { return s.SchemeStats.GraceWaits }),
	total("grace_wait_cycles", func(s *RunStats) uint64 { return uint64(s.SchemeStats.GraceWaitCycles) }),

	coreTotal("collects", func(c *core.Stats) uint64 { return c.Collects }),
	coreTotal("watermark_collects", func(c *core.Stats) uint64 { return c.WatermarkCollects }),
	// Reclaimer sweeps plus scanner help-frees.
	coreTotal("reclaimed", func(c *core.Stats) uint64 { return c.Reclaimed + c.HelpFreed }),
	coreTotal("collect_cycles", func(c *core.Stats) uint64 { return uint64(c.CollectCycles) }),
	coreTotal("handler_cycles", func(c *core.Stats) uint64 { return uint64(c.HandlerCycles) }),
	coreTotal("scanned_words", func(c *core.Stats) uint64 { return c.ScannedWords }),
	coreTotal("max_master", func(c *core.Stats) uint64 { return uint64(c.MaxMaster) }), // a running maximum
	coreTotal("double_retires", func(c *core.Stats) uint64 { return c.DoubleRetires }),
	coreTotal("help_sorted_shards", func(c *core.Stats) uint64 { return c.HelpSortedShards }),
	coreTotal("help_swept_shards", func(c *core.Stats) uint64 { return c.HelpSweptShards }),
	coreTotal("local_shard_claims", func(c *core.Stats) uint64 { return c.LocalShardClaims }),
	coreTotal("remote_shard_claims", func(c *core.Stats) uint64 { return c.RemoteShardClaims }),
	coreTotal("sweep_remote_fills", func(c *core.Stats) uint64 { return c.SweepRemoteFills }),
	// Collects run, and sweep lists drained, for another node.
	coreTotal("steals", func(c *core.Stats) uint64 { return c.StolenCollects + c.StolenSweeps }),
	coreTotal("overlapped_collects", func(c *core.Stats) uint64 { return c.OverlappedCollects }),

	total("signals_sent", func(s *RunStats) uint64 { return s.Sim.SignalsSent }),
	total("remote_line_fills", func(s *RunStats) uint64 { return s.Sim.RemoteLineFills }),
	total("alloc_remote_fills", func(s *RunStats) uint64 { return s.Sim.AllocRemoteFills }),

	level("live_words", func(s *RunStats) uint64 { return s.Heap.LiveBytes / 8 }),
	total("remote_allocs", func(s *RunStats) uint64 { return s.Heap.RemoteAllocs }),
	total("home_frees", func(s *RunStats) uint64 { return s.Heap.HomeFrees }),
	total("remote_frees", func(s *RunStats) uint64 { return s.Heap.RemoteFrees }),
}

// counterByName returns the catalogue entry called name.
func counterByName(name string) (counter, bool) {
	for _, c := range counters {
		if c.name == name {
			return c, true
		}
	}
	return counter{}, false
}

// of reads c from a run's stats.  ThreadScan counters read zero on a
// run without the ThreadScan core.
func (c counter) of(s RunStats) uint64 {
	if c.core && s.Core == nil {
		return 0
	}
	return c.read(&s)
}

// counterCol is the ablation column rendering the named catalogue
// counter.  It panics on a name the catalogue lacks, so a misspelt
// column fails as soon as the package loads.
func counterCol(name string) Column {
	c, ok := counterByName(name)
	if !ok {
		panic(fmt.Sprintf("harness: no counter %q in the catalogue", name))
	}
	return Column{name, "%d", func(r ScenarioResult) any { return c.of(r.RunStats) }}
}
