// Package harness drives the paper's evaluation (§6): workload
// generation, prefill, measurement, teardown, and the sweeps that
// regenerate every figure plus the ablations listed in the README's
// "Ablations" section.
//
// Methodology mirrors the paper: a sorted-set workload with a 20%
// update ratio (half inserts, half removes, "so about 10% of all
// operations were node removals"), keys uniform over a range twice the
// steady-state size, structures prefilled to half the range.  Time is
// virtual: every thread runs until a fixed virtual wall-clock deadline
// (a thread's clock advances while it waits for a core, exactly like
// wall time in the paper's 10-second runs), and throughput is total
// completed operations per virtual second — so under oversubscription
// each thread contributes proportionally fewer operations, as on the
// paper's 40-core machine.
package harness

import (
	"fmt"
	"time"

	"threadscan/internal/core"
	"threadscan/internal/ds"
	"threadscan/internal/obs"
	"threadscan/internal/reclaim"
	"threadscan/internal/simmem"
	"threadscan/internal/simt"
	"threadscan/internal/workload"
)

// Config describes one experiment (one data point).
type Config struct {
	DS     string // list | hash | skiplist (or stack | queue)
	Scheme string // any name in SchemeNames (leaky | hazard | ... | hyaline)

	Threads int
	Cores   int
	Nodes   int // NUMA nodes (0/1 = flat machine)

	// AllocPolicy is the allocator's NUMA placement policy: "" /
	// "global" (single pool), "localalloc", "membind", or "interleave"
	// (per-node pools; see simmem.Policy).  Inert on a flat machine.
	AllocPolicy string

	// Duration is the measured phase's virtual wall-clock window in
	// cycles (1e9 cycles = 1 virtual second at the default Hz).  Each
	// thread runs until its clock — which advances through both
	// execution and core-queue waits — passes the deadline.
	Duration int64

	Seed int64

	// Workload shape.
	KeyRange      uint64
	Prefill       int
	UpdatePercent int // 20 => 10% inserts + 10% removes (paper §6)

	// Structure parameters.
	NodeBytes int // list/hash node padding; 0 = paper's 172
	Buckets   int // hash; 0 = KeyRange/32 (paper: expected bucket 32)

	// Scheme parameters.
	BufferSize     int              // threadscan delete buffer; 0 = 1024
	HelpFree       bool             // threadscan §7 extension
	Shards         int              // threadscan collect shards K; 0 = 1 (serial)
	Watermark      int              // threadscan global collect watermark; 0 = off
	Claim          core.ClaimPolicy // threadscan shard-claim order (NUMA ablation A6)
	PerNode        bool             // threadscan per-node routing + node-local reclaimers (A7)
	StealThreshold int              // threadscan per-node steal threshold; 0 = core default
	SerializeColl  bool             // threadscan: serialize per-node collects (A9 control)
	Lookup         core.LookupKind  // threadscan scan lookup (ablation A3)
	Batch          int              // hazard/epoch/stacktrack batch; 0 = 1024
	SlowDelay      int64            // slow-epoch cleanup stall; 0 = 40ms
	DelayVictim    int              // slow-epoch errant thread id; 0 = thread 0
	SegmentLen     int              // stacktrack segment; 0 = 16

	// Simulator knobs (0 = defaults).
	Quantum   int64
	Hz        int64
	HeapWords int
	CacheSim  bool
	Chaos     bool

	// Obs, when non-nil, records lifecycle spans and latency histograms
	// for the run (threaded into every scheme and attached to the
	// simulator as its probe).  Recording never charges virtual cycles,
	// so results are bit-identical with or without it.
	Obs *obs.Recorder
}

func (c *Config) fill() {
	if c.Threads <= 0 {
		c.Threads = 1
	}
	if c.Cores <= 0 {
		c.Cores = c.Threads
	}
	if c.Duration <= 0 {
		c.Duration = 20_000_000 // 20 virtual ms
	}
	if c.KeyRange == 0 {
		c.KeyRange = 2048
	}
	if c.Prefill == 0 {
		c.Prefill = int(c.KeyRange / 2)
	}
	if c.UpdatePercent == 0 {
		c.UpdatePercent = 20
	}
	if c.Buckets == 0 {
		c.Buckets = int(c.KeyRange / 32)
		if c.Buckets < 1 {
			c.Buckets = 1
		}
	}
	if c.BufferSize == 0 {
		c.BufferSize = core.DefaultBufferSize
	}
	if c.Batch == 0 {
		c.Batch = 1024
	}
	if c.SlowDelay == 0 {
		c.SlowDelay = 40_000_000 // the paper's 40ms at 1 GHz
	}
	if c.SegmentLen == 0 {
		c.SegmentLen = 16
	}
	if c.Hz == 0 {
		c.Hz = 1_000_000_000
	}
	if c.HeapWords == 0 {
		c.HeapWords = c.heapWordsEstimate() * policyHeapScale(c.AllocPolicy, c.Nodes)
	}
}

// policyHeapScale is the factor a heap-words estimate grows by under a
// per-node allocation policy: regions split the arena Nodes ways, so
// scaling keeps each node the headroom a global pool would have
// machine-wide (membind has no fallback to borrow it back).  Shared by
// the classic runner and the scenario engine so the two paths cannot
// drift.
func policyHeapScale(allocPolicy string, nodes int) int {
	if pol, err := simmem.ParsePolicy(allocPolicy); err == nil &&
		pol != simmem.PolicyGlobal && nodes > 1 {
		return nodes
	}
	return 1
}

// heapWordsEstimate sizes the arena from the workload: live structure
// nodes plus every scheme's worst-case buffered retirees plus slack.
func (c *Config) heapWordsEstimate() int {
	nodeBytes := c.NodeBytes
	if nodeBytes <= 0 {
		nodeBytes = ds.DefaultNodeBytes
	}
	per := simmem.ClassSizeBytes(nodeBytes)
	if c.DS == "skiplist" {
		per = simmem.ClassSizeBytes(15 * 8)
	}
	buffered := c.Threads*(c.BufferSize+c.Batch) + 4*c.Batch
	liveMax := int(c.KeyRange) + buffered + 4096
	words := liveMax * (per / 8) * 2
	p := 1 << 16
	for p < words {
		p <<= 1
	}
	return p
}

// Result is one experiment outcome.
type Result struct {
	Config Config

	Ops            uint64  // completed operations (all types)
	ElapsedCycles  int64   // global virtual time of the measured phase
	VirtualSeconds float64 // ElapsedCycles at Hz
	Throughput     float64 // Ops / VirtualSeconds

	FinalSize int // structure size after teardown

	Scheme reclaim.Stats
	Core   *core.Stats // ThreadScan protocol counters (nil otherwise)
	Sim    simt.SimStats
	Heap   simmem.Stats

	WallTime time.Duration // host time spent simulating (meta)
}

// schemeEntry is one registered reclamation scheme family: its name and
// the constructor binding it to a simulator under a harness Config.
type schemeEntry struct {
	name string
	// differential marks families compared by the cross-scheme
	// differential suite.  slow-epoch is excluded: it is the epoch
	// family with an injected stall, not a distinct discipline.
	differential bool
	build        func(sim *simt.Sim, cfg Config) (reclaim.Scheme, *core.ThreadScan)
}

// schemeRegistry is the single source of truth for scheme names.
// BuildScheme, SchemeNames, the differential suite, and the CLI
// -scheme validation all derive from it; adding a family here is the
// only plumbing a new scheme needs.  Order is presentation order.
var schemeRegistry = []schemeEntry{
	{name: "leaky", differential: true,
		build: func(sim *simt.Sim, cfg Config) (reclaim.Scheme, *core.ThreadScan) {
			return reclaim.NewLeaky(sim), nil
		}},
	{name: "hazard", differential: true,
		build: func(sim *simt.Sim, cfg Config) (reclaim.Scheme, *core.ThreadScan) {
			return reclaim.NewHazard(sim, reclaim.HazardConfig{
				Slots: ds.SkipListHazardSlots, Batch: cfg.Batch, Obs: cfg.Obs}), nil
		}},
	{name: "epoch", differential: true,
		build: func(sim *simt.Sim, cfg Config) (reclaim.Scheme, *core.ThreadScan) {
			return reclaim.NewEpoch(sim, reclaim.EpochConfig{
				Batch: cfg.Batch, Obs: cfg.Obs}), nil
		}},
	{name: "slow-epoch",
		build: func(sim *simt.Sim, cfg Config) (reclaim.Scheme, *core.ThreadScan) {
			return reclaim.NewEpoch(sim, reclaim.EpochConfig{
				Batch: cfg.Batch, DelayCycles: cfg.SlowDelay,
				DelayVictim: cfg.DelayVictim, Obs: cfg.Obs}), nil
		}},
	{name: "threadscan", differential: true,
		build: func(sim *simt.Sim, cfg Config) (reclaim.Scheme, *core.ThreadScan) {
			ts := reclaim.NewThreadScan(sim, core.Config{
				BufferSize: cfg.BufferSize, HelpFree: cfg.HelpFree, Lookup: cfg.Lookup,
				Shards: cfg.Shards, CollectWatermark: cfg.Watermark, Claim: cfg.Claim,
				PerNode: cfg.PerNode, StealThreshold: cfg.StealThreshold,
				SerializeCollects: cfg.SerializeColl, Obs: cfg.Obs})
			return ts, ts.Core()
		}},
	{name: "stacktrack", differential: true,
		build: func(sim *simt.Sim, cfg Config) (reclaim.Scheme, *core.ThreadScan) {
			return reclaim.NewStackTrack(sim, reclaim.StackTrackConfig{
				SegmentLen: cfg.SegmentLen, Batch: cfg.Batch, Obs: cfg.Obs}), nil
		}},
	{name: "hyaline", differential: true,
		build: func(sim *simt.Sim, cfg Config) (reclaim.Scheme, *core.ThreadScan) {
			return reclaim.NewHyaline(sim, reclaim.HyalineConfig{
				Batch: cfg.Batch, Obs: cfg.Obs}), nil
		}},
}

// SchemeNames returns every registered scheme name in registry order.
func SchemeNames() []string {
	names := make([]string, len(schemeRegistry))
	for i, e := range schemeRegistry {
		names[i] = e.name
	}
	return names
}

// DifferentialSchemeNames returns the families the cross-scheme
// differential suite compares (every registered family except scheme
// *configurations* such as slow-epoch).
func DifferentialSchemeNames() []string {
	var names []string
	for _, e := range schemeRegistry {
		if e.differential {
			names = append(names, e.name)
		}
	}
	return names
}

// KnownScheme reports whether name is a registered scheme, letting
// CLIs reject typos at flag-parse time instead of mid-sweep.
func KnownScheme(name string) bool {
	for _, e := range schemeRegistry {
		if e.name == name {
			return true
		}
	}
	return false
}

// BuildScheme constructs the named scheme bound to sim, returning the
// inner ThreadScan core when applicable.
func BuildScheme(sim *simt.Sim, cfg Config) (reclaim.Scheme, *core.ThreadScan, error) {
	for _, e := range schemeRegistry {
		if e.name == cfg.Scheme {
			sc, tsCore := e.build(sim, cfg)
			return sc, tsCore, nil
		}
	}
	return nil, nil, fmt.Errorf("harness: unknown scheme %q (known: %v)",
		cfg.Scheme, SchemeNames())
}

// Run executes one experiment and returns its Result.
func Run(cfg Config) (Result, error) {
	cfg.fill()
	allocPolicy, err := simmem.ParsePolicy(cfg.AllocPolicy)
	if err != nil {
		return Result{}, err
	}
	sim := simt.New(simt.Config{
		Cores:      cfg.Cores,
		Nodes:      cfg.Nodes,
		Quantum:    cfg.Quantum,
		Seed:       cfg.Seed,
		Hz:         cfg.Hz,
		Chaos:      cfg.Chaos,
		CacheSim:   cfg.CacheSim,
		StackWords: 256,
		MaxCycles:  cfg.Duration*int64(cfg.Threads+4)*4 + 4_000_000_000,
		Heap:       simmem.Config{Words: cfg.HeapWords, Check: false, Poison: true, Policy: allocPolicy},
	})
	if cfg.Obs != nil {
		sim.SetProbe(cfg.Obs)
		sim.Heap().SetObserver(cfg.Obs)
	}
	sc, tsCore, err := BuildScheme(sim, cfg)
	if err != nil {
		return Result{}, err
	}
	target, err := buildTarget(sim, sc, &workload.Scenario{
		DS: cfg.DS, NodeBytes: cfg.NodeBytes, Buckets: cfg.Buckets})
	if err != nil {
		return Result{}, err
	}

	nT := cfg.Threads
	startBar := sim.NewBarrier("measure-start", nT)
	endBar := sim.NewBarrier("measure-end", nT)
	tearBar := sim.NewBarrier("teardown", nT)

	startAt := make([]int64, nT)
	finishAt := make([]int64, nT)

	insThreshold := uint64(cfg.UpdatePercent) / 2
	remThreshold := uint64(cfg.UpdatePercent)

	for i := 0; i < nT; i++ {
		i := i
		sim.Spawn(fmt.Sprintf("w%d", i), func(th *simt.Thread) {
			// Prefill: evenly spaced keys, striped across threads.
			for k := i; k < cfg.Prefill; k += nT {
				key := ds.MinKey + uint64(k)*cfg.KeyRange/uint64(cfg.Prefill)
				target.Apply(th, workload.OpInsert, key)
			}
			startBar.Await(th)

			rng := th.RNG()
			start := th.Now()
			startAt[i] = start
			deadline := start + cfg.Duration
			for th.Now() < deadline {
				key := ds.MinKey + uint64(rng.Int63n(int64(cfg.KeyRange)))
				op := workload.OpLookup
				switch r := uint64(rng.Intn(100)); {
				case r < insThreshold:
					op = workload.OpInsert
				case r < remThreshold:
					op = workload.OpRemove
				}
				target.Apply(th, op, key)
				th.AddOps(1)
			}
			finishAt[i] = th.Now()
			endBar.Await(th)

			// Teardown: drop stale references, then flush reclaim
			// state so leak accounting is exact.
			for r := 0; r < simt.NumRegs; r++ {
				th.SetReg(r, 0)
			}
			tearBar.Await(th)
			sc.Flush(th)
		})
	}

	wallStart := wallNow()
	if err := sim.Run(); err != nil {
		return Result{}, fmt.Errorf("harness: %s/%s t=%d: %w", cfg.DS, cfg.Scheme, cfg.Threads, err)
	}
	res := Result{
		Config:   cfg,
		WallTime: wallSince(wallStart),
		Scheme:   sc.Stats(),
		Sim:      sim.Stats(),
		Heap:     sim.Heap().Stats(),
	}
	if tsCore != nil {
		st := tsCore.Stats()
		res.Core = &st
	}
	var minStart, maxFinish int64
	for i, th := range sim.Threads() { // the workers, in spawn order
		res.Ops += th.Ops()
		if i == 0 || startAt[i] < minStart {
			minStart = startAt[i]
		}
		if finishAt[i] > maxFinish {
			maxFinish = finishAt[i]
		}
	}
	res.ElapsedCycles = maxFinish - minStart
	res.VirtualSeconds = float64(res.ElapsedCycles) / float64(cfg.Hz)
	if res.VirtualSeconds > 0 {
		res.Throughput = float64(res.Ops) / res.VirtualSeconds
	}
	res.FinalSize = target.Size()
	return res, nil
}
