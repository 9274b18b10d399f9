package harness

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"text/tabwriter"

	"threadscan/internal/core"
	"threadscan/internal/workload"
)

// An Ablation is one declarative design-claim experiment: a base
// scenario per subject, crossed with every combination of its axes'
// values, each cell run through RunScenario and rendered as one table
// row of named column projections.  Every ablation the README's
// "Ablations" section lists is one entry of the Ablations registry.
type Ablation struct {
	Name string // the tsbench -ablation name; harness-bench times it as "ablation-"+Name

	// Title heads the table.  A "%s" in it is replaced by the
	// comma-joined subjects.
	Title string

	// Subjects are the builtin scenarios the sweep runs on by default,
	// outermost in row order.  Empty means Base builds the scenario from
	// SweepParams alone, and the ablation takes no subject override.
	Subjects []string

	// Base returns one subject's scenario ("" when Subjects is empty)
	// before any axis applies.
	Base func(subject string, p SweepParams) (workload.Scenario, error)

	// Axes are crossed in order, the first outermost.
	Axes []Axis

	Columns []Column
}

// An Axis is one swept dimension: a name, its values, and the setter
// applying one value to a scenario.  Set must not write through slices
// the scenario shares with its base (replace them instead), since every
// cell starts from a shallow copy of the base.
type Axis struct {
	Name   string
	Values []string
	Set    func(s *workload.Scenario, v string) error
}

// A Column is one named projection of a cell's result, rendered with
// Format.  A raw counter's column is counterCol(name), which takes its
// name and reader from the counter catalogue.
type Column struct {
	Name   string
	Format string
	Value  func(r ScenarioResult) any
}

// A Cell is one run of an ablation: its subject, the axis values it ran
// at (by axis name), and the result.
type Cell struct {
	Subject string
	Point   map[string]string
	Result  ScenarioResult
}

// Run executes every cell of a, in table row order.
func (a Ablation) Run(p SweepParams) ([]Cell, error) {
	points := [][]string{nil}
	for _, ax := range a.Axes {
		var next [][]string
		for _, pt := range points {
			for _, v := range ax.Values {
				next = append(next, append(pt[:len(pt):len(pt)], v))
			}
		}
		points = next
	}
	subjects := a.Subjects
	if len(subjects) == 0 {
		subjects = []string{""}
	}
	var cells []Cell
	for _, subject := range subjects {
		base, err := a.Base(subject, p)
		if err != nil {
			return nil, err
		}
		for _, pt := range points {
			spec := base
			at := make(map[string]string, len(pt))
			for i, v := range pt {
				if err := a.Axes[i].Set(&spec, v); err != nil {
					return nil, err
				}
				at[a.Axes[i].Name] = v
			}
			r, err := RunScenario(spec)
			if err != nil {
				return nil, err
			}
			cells = append(cells, Cell{Subject: subject, Point: at, Result: r})
		}
	}
	return cells, nil
}

// WriteTable renders cells as a's aligned text table.
func (a Ablation) WriteTable(w io.Writer, cells []Cell) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	title := a.Title
	if strings.Contains(title, "%s") {
		title = fmt.Sprintf(title, strings.Join(a.Subjects, ","))
	}
	fmt.Fprintf(tw, "# %s\n", title)
	fields := make([]string, len(a.Columns))
	for i, c := range a.Columns {
		fields[i] = c.Name
	}
	fmt.Fprintln(tw, strings.Join(fields, "\t"))
	for _, cell := range cells {
		for i, c := range a.Columns {
			fields[i] = fmt.Sprintf(c.Format, c.Value(cell.Result))
		}
		fmt.Fprintln(tw, strings.Join(fields, "\t"))
	}
	return tw.Flush()
}

// Sweep returns a copy of a whose named axis takes values instead of
// its defaults.  It fails when a has no such axis or a value does not
// parse.
func (a Ablation) Sweep(axis string, values ...string) (Ablation, error) {
	for i, ax := range a.Axes {
		if ax.Name != axis {
			continue
		}
		if len(values) == 0 {
			return a, fmt.Errorf("harness: ablation %s: no values for axis %s", a.Name, axis)
		}
		for _, v := range values {
			if err := ax.Set(&workload.Scenario{}, v); err != nil {
				return a, err
			}
		}
		a.Axes = append([]Axis(nil), a.Axes...)
		a.Axes[i].Values = values
		return a, nil
	}
	return a, fmt.Errorf("harness: ablation %s has no %s axis", a.Name, axis)
}

// AblationByName returns the registered ablation called name.
func AblationByName(name string) (Ablation, bool) {
	for _, a := range Ablations {
		if a.Name == name {
			return a, true
		}
	}
	return Ablation{}, false
}

// AblationNames returns every registered ablation name in registry
// order.
func AblationNames() []string {
	names := make([]string, len(Ablations))
	for i, a := range Ablations {
		names[i] = a.Name
	}
	return names
}

// intAxis is an axis over integer values.
func intAxis[T int | int64](name string, set func(s *workload.Scenario, v T), values ...T) Axis {
	labels := make([]string, len(values))
	for i, v := range values {
		labels[i] = strconv.FormatInt(int64(v), 10)
	}
	return Axis{Name: name, Values: labels, Set: func(s *workload.Scenario, v string) error {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return fmt.Errorf("harness: axis %s: bad value %q", name, v)
		}
		set(s, T(n))
		return nil
	}}
}

// A choice is one value of a choice axis and the scenario edit it
// names.
type choice struct {
	value string
	set   func(s *workload.Scenario)
}

// choiceAxis is an axis whose values name scenario edits.
func choiceAxis(name string, choices ...choice) Axis {
	ax := Axis{Name: name, Set: func(s *workload.Scenario, v string) error {
		for _, c := range choices {
			if c.value == v {
				c.set(s)
				return nil
			}
		}
		return fmt.Errorf("harness: axis %s: bad value %q", name, v)
	}}
	for _, c := range choices {
		ax.Values = append(ax.Values, c.value)
	}
	return ax
}

// stringAxis is an axis over names the scenario validates itself.
func stringAxis(name string, set func(s *workload.Scenario, v string), values ...string) Axis {
	return Axis{Name: name, Values: values, Set: func(s *workload.Scenario, v string) error {
		set(s, v)
		return nil
	}}
}

func setThreads(s *workload.Scenario, v int)       { s.Threads = v }
func setBuffer(s *workload.Scenario, v int)        { s.BufferSize = v }
func setStallCycles(s *workload.Scenario, v int64) { s.StallCycles = v }
func setScheme(s *workload.Scenario, v string)     { s.Scheme = v }

// paperBase is the Base of a subjectless ablation: the §6 workload
// baseConfig sizes for dsName at p's scale, as a one-phase threadscan
// scenario on p.Cores cores (one thread each) — uniform keys, 10%
// inserts and 10% removes, over p's measured window (default 20
// virtual ms) — adjusted by edit when non-nil.
func paperBase(dsName string, edit func(s *workload.Scenario)) func(string, SweepParams) (workload.Scenario, error) {
	return func(_ string, p SweepParams) (workload.Scenario, error) {
		p.fill(3)
		cfg := baseConfig(dsName, p)
		duration := p.Duration
		if duration <= 0 {
			duration = 20_000_000
		}
		s := workload.Scenario{
			Name: "paper-" + dsName, DS: dsName, Scheme: "threadscan",
			Threads: p.Cores, Cores: p.Cores,
			KeyRange: cfg.KeyRange, Prefill: cfg.Prefill, Buckets: cfg.Buckets,
			BufferSize: cfg.BufferSize, Batch: cfg.Batch,
			Seed: p.Seed, Quantum: cfg.Quantum,
			Phases: []workload.Phase{{Name: "steady", Duration: duration,
				Mix: workload.Mix{InsertPct: 10, RemovePct: 10}}},
		}
		if edit != nil {
			edit(&s)
		}
		return s, nil
	}
}

// builtinBase is the Base of a subject ablation: the named builtin on
// dsName under threadscan, with Seed and Quantum from p when set and
// its phases stretched by p.Duration against tsbench's 50ms
// -duration-ms default (100ms doubles the built-in length; 0 keeps it).
// Stall lengths stretch too, unless an axis sets them.  edit, when
// non-nil, adjusts the result.
func builtinBase(dsName string, edit func(s *workload.Scenario, p SweepParams)) func(string, SweepParams) (workload.Scenario, error) {
	return func(name string, p SweepParams) (workload.Scenario, error) {
		s, ok := workload.ByName(name)
		if !ok {
			return s, fmt.Errorf("harness: unknown scenario %q", name)
		}
		if p.Duration > 0 {
			s = s.Scale(float64(p.Duration) / 50_000_000)
		}
		s.DS, s.Scheme = dsName, "threadscan"
		if p.Seed != 0 {
			s.Seed = p.Seed
		}
		if p.Quantum > 0 {
			s.Quantum = p.Quantum
		}
		if edit != nil {
			edit(&s, p)
		}
		return s, nil
	}
}

// numaLift puts a subject where the NUMA ablations (A6, A7, A8) mean
// something.  Claim policy only acts when nodes > 1 and K > 1, routing
// needs a topology and claimable units, and per-node pools need a
// topology, so a flat or unsharded subject is lifted onto a pinned
// two-node machine with a sharded, help-swept pipeline.
func numaLift(s *workload.Scenario, _ SweepParams) {
	if s.Nodes < 2 {
		s.Nodes = 2
	}
	if s.PinPolicy == "" || s.PinPolicy == "none" {
		s.PinPolicy = "rr"
	}
	if s.Shards <= 1 {
		s.Shards = 8
		s.HelpFree = true
	}
}

// overlapScale fixes the A9 scaling geometry: per-node resources are
// held constant (cores, threads, key range, prefill per node) while
// the node count sweeps, so each added node brings one more retire
// stream and one more collect pipeline.  A skewed base (any worker-mix
// entry with no updates, i.e. numa-skewed-retire) keeps all retirement
// on node 0 — the shape that cannot scale and shows the steal path
// stays live; a symmetric base retires on every node.
func overlapScale(base workload.Scenario, nodes int) workload.Scenario {
	const (
		coresPerNode   = 4
		threadsPerNode = 4
	)
	spec := base
	spec.Nodes = nodes
	spec.Cores = coresPerNode * nodes
	spec.Threads = threadsPerNode * nodes
	spec.PinPolicy = "rr"
	spec.KeyRange = base.KeyRange * uint64(nodes)
	spec.Prefill = base.Prefill * nodes
	// Keep the collect trigger well above threads x stack words so
	// sweep and aggregate — the per-node work — dominate the scan —
	// the all-threads work — and the pipeline is worth overlapping.
	spec.BufferSize = 512
	skewed := false
	for _, m := range base.WorkerMix {
		if m.InsertPct == 0 && m.RemovePct == 0 {
			skewed = true
		}
	}
	retire := workload.Mix{InsertPct: 40, RemovePct: 40}
	if skewed {
		// Node 0 retires everything; the other nodes only read.
		mix := make([]workload.Mix, nodes)
		mix[0] = retire
		spec.WorkerMix = mix
	} else {
		// Node-symmetric retire pressure: every node drives its own
		// collect pipeline equally.
		spec.WorkerMix = nil
	}
	phases := make([]workload.Phase, len(base.Phases))
	copy(phases, base.Phases)
	for i := range phases {
		phases[i].Mix = retire
	}
	spec.Phases = phases
	return spec
}

// collectThroughput is reclaimed nodes — reclaimer sweeps plus scanner
// help-frees — per virtual second: the collect-pipeline capacity the
// per-node collect slots exist to scale.  With one machine-wide lock it
// saturates at one pipeline's rate no matter how many nodes retire;
// overlapped it should grow near-linearly in the node count.
func collectThroughput(r ScenarioResult) float64 {
	if r.Core == nil || r.VirtualSeconds <= 0 {
		return 0
	}
	return float64(r.Core.Reclaimed+r.Core.HelpFreed) / r.VirtualSeconds
}

// nodeCollects renders the per-node collect balance as "a/b/...", or
// "-" without per-node routing.
func nodeCollects(r ScenarioResult) any {
	if r.Core == nil || len(r.Core.NodeCollects) == 0 {
		return "-"
	}
	parts := make([]string, len(r.Core.NodeCollects))
	for i, n := range r.Core.NodeCollects {
		parts[i] = strconv.FormatUint(n, 10)
	}
	return strings.Join(parts, "/")
}

// Shared columns.  Bespoke columns reading r.Core belong to ablations
// that fix threadscan as the scheme.
var (
	throughputCol = Column{"throughput", "%.0f", func(r ScenarioResult) any { return r.Throughput }}
	scenarioCol   = Column{"scenario", "%s", func(r ScenarioResult) any { return r.Name }}
	schemeCol     = Column{"scheme", "%s", func(r ScenarioResult) any { return r.Scheme }}
)

// Ablations is the registry every ablation consumer iterates: tsbench
// -ablation and its help text, harness-bench, and the tests.  Order is
// presentation order.
var Ablations = []Ablation{
	{
		// A1, the paper's §6 tuning: "increasing the size of the delete
		// buffer ... is a useful way of amortizing the cost of signals
		// and of waiting.  However, it also increases the size of the
		// list of pointers".  Oversubscribed: four threads per core.
		Name:  "buffer",
		Title: "A1: delete-buffer size (oversubscribed hash table)",
		Base:  paperBase("hash", func(s *workload.Scenario) { s.Threads = 4 * s.Cores }),
		Axes:  []Axis{intAxis("buffer", setBuffer, 32, 64, 128, 256, 512, 1024)},
		Columns: []Column{
			{"buffer", "%d", func(r ScenarioResult) any { return r.Scenario.BufferSize }},
			throughputCol,
			counterCol("collects"),
			counterCol("max_master"),
			counterCol("signals_sent"),
		},
	},
	{
		// A2: "Stack scans are the main source of overhead for
		// ThreadScan, although ... the overhead is well amortized across
		// threads and against reclaimed nodes" (§1.2), with and without
		// HelpFree, the §7 latency-sharing extension.
		Name:  "scancost",
		Title: "A2: scan cost breakdown (list)",
		Base:  paperBase("list", nil),
		Axes: []Axis{
			choiceAxis("helpfree",
				choice{"false", func(s *workload.Scenario) { s.HelpFree = false }},
				choice{"true", func(s *workload.Scenario) { s.HelpFree = true }}),
			intAxis("threads", setThreads, 1, 2, 4, 8, 16),
		},
		Columns: []Column{
			{"helpfree", "%t", func(r ScenarioResult) any { return r.Scenario.HelpFree }},
			{"threads", "%d", func(r ScenarioResult) any { return r.Threads }},
			throughputCol,
			counterCol("collects"),
			counterCol("reclaimed"),
			{"handler_cyc/node", "%.1f", func(r ScenarioResult) any {
				return perReclaimed(r.Core, r.Core.HandlerCycles)
			}},
			{"collect_cyc/node", "%.1f", func(r ScenarioResult) any {
				return perReclaimed(r.Core, r.Core.CollectCycles)
			}},
		},
	},
	{
		// A3: the TS-Scan membership structure — sorted binary search,
		// the paper's §4.1 design, vs linear scan vs hash set.  Linear
		// lookup is quadratic in the master buffer, so the buffers stay
		// modest for the ablation to finish.
		Name:  "lookup",
		Title: "A3: TS-Scan lookup structure (list, buffer 256)",
		Base:  paperBase("list", func(s *workload.Scenario) { s.BufferSize = 256 }),
		Axes: []Axis{stringAxis("lookup", func(s *workload.Scenario, v string) { s.Lookup = v },
			"binary", "linear", "hash")},
		Columns: []Column{
			{"lookup", "%s", func(r ScenarioResult) any { return r.Scenario.Lookup }},
			throughputCol,
			counterCol("handler_cycles"),
			counterCol("scanned_words"),
		},
	},
	{
		// A4, the paper's central liveness claim (§1.2, §2): the first
		// worker runs one empty operation stalled for StallCycles every
		// StallEvery ops.  Epoch reclaimers inherit the stall;
		// ThreadScan's signal handler runs *inside* the stalled thread,
		// so collects finish regardless.  It is an *application* stall
		// (StallKind "work"): the victim still reaches safepoints, so
		// signals are delivered mid-stall.  Small batches make
		// reclamation frequent enough to overlap the stall windows.
		Name:  "stall",
		Title: "A4: errant stalled thread (list; first worker stalls mid-operation)",
		Base: paperBase("list", func(s *workload.Scenario) {
			s.Name = "a4-errant-stall"
			s.StallEvery, s.StallCycles = 200, 2_000_000 // 2ms
			s.StallVictims, s.StallKind = 1, "work"
			s.Batch, s.BufferSize = 32, 64
		}),
		Axes: []Axis{stringAxis("scheme", setScheme, "epoch", "threadscan")},
		Columns: []Column{
			schemeCol,
			throughputCol,
			counterCol("reclaim_passes"),
			counterCol("grace_wait_cycles"),
			counterCol("freed"),
			{"peak_garbage", "%d", func(r ScenarioResult) any { return r.Footprint.ExactPeakRetiredNodes }},
		},
	},
	{
		// A5: the collect pipeline's shard count K crossed with the
		// global watermark trigger (off, and half the aggregate
		// delete-buffer capacity), on the skewed retirement shape whose
		// single hot reclaimer the pipeline exists to break up.  The
		// only subject ablation that takes p.Cores.
		Name:     "shards",
		Title:    "A5: sharded collect pipeline (%s, list/threadscan)",
		Subjects: []string{"zipfian-skew"},
		Base: builtinBase("list", func(s *workload.Scenario, p SweepParams) {
			if p.Cores > 0 {
				s.Cores = p.Cores
			}
		}),
		Axes: []Axis{
			intAxis("shards", func(s *workload.Scenario, v int) { s.Shards = v }, 1, 2, 4, 8, 16),
			choiceAxis("watermark",
				choice{"off", func(s *workload.Scenario) { s.Watermark = 0 }},
				choice{"half", func(s *workload.Scenario) {
					filled := *s
					_ = filled.Fill() // a bad spec fails when its cell runs
					s.Watermark = filled.Threads * filled.BufferSize / 2
				}}),
		},
		Columns: []Column{
			{"shards", "%d", func(r ScenarioResult) any { return r.Scenario.Shards }},
			{"watermark", "%d", func(r ScenarioResult) any { return r.Scenario.Watermark }},
			throughputCol,
			counterCol("collects"),
			counterCol("collect_cycles"),
			counterCol("handler_cycles"),
			counterCol("help_sorted_shards"),
			counterCol("help_swept_shards"),
			{"peak_garbage", "%d", func(r ScenarioResult) any { return r.Footprint.PeakRetiredNodes }},
		},
	},
	{
		// A6: affinity-first vs round-robin shard claiming on a two-node
		// machine: numa-split, the worst-case cross-socket retirement
		// shape, with numa-balanced as its control.
		Name:     "numa",
		Title:    "A6: NUMA shard affinity (stack/threadscan)",
		Subjects: []string{"numa-split", "numa-balanced"},
		Base:     builtinBase("stack", numaLift),
		Axes: []Axis{stringAxis("claim", func(s *workload.Scenario, v string) { s.ClaimPolicy = v },
			"affinity", "rr")},
		Columns: []Column{
			scenarioCol,
			{"claim", "%s", func(r ScenarioResult) any { return r.Scenario.ClaimPolicy }},
			throughputCol,
			counterCol("collects"),
			counterCol("local_shard_claims"),
			counterCol("remote_shard_claims"),
			counterCol("remote_line_fills"),
			counterCol("help_sorted_shards"),
			counterCol("help_swept_shards"),
		},
	},
	{
		// A7: per-node retirement routing vs the globally hashed
		// pipeline, on numa-split and numa-skewed-retire (the
		// rebalancing adversary).  The three regimes tell the locality
		// story in order: "global/rr" is the topology-blind pipeline,
		// "global/affinity" is the A6 answer (globally hashed shards,
		// affinity-first *claiming*), and "pernode" routes at Free time
		// and reclaims node-locally — which eliminates the sweep-side
		// remote fills claiming alone cannot (a claimed shard still
		// holds the other socket's lines).
		Name:     "pernode",
		Title:    "A7: per-node retirement routing (stack/threadscan)",
		Subjects: []string{"numa-split", "numa-skewed-retire"},
		Base:     builtinBase("stack", numaLift),
		Axes: []Axis{choiceAxis("routing",
			choice{"global/rr", func(s *workload.Scenario) { s.ClaimPolicy, s.PerNode = "rr", false }},
			choice{"global/affinity", func(s *workload.Scenario) { s.ClaimPolicy, s.PerNode = "affinity", false }},
			choice{"pernode", func(s *workload.Scenario) { s.ClaimPolicy, s.PerNode = "affinity", true }})},
		Columns: []Column{
			scenarioCol,
			{"routing", "%s", func(r ScenarioResult) any {
				if r.Scenario.PerNode {
					return "pernode"
				}
				return "global/" + r.Scenario.ClaimPolicy
			}},
			throughputCol,
			counterCol("collects"),
			counterCol("sweep_remote_fills"),
			counterCol("remote_line_fills"),
			counterCol("local_shard_claims"),
			counterCol("remote_shard_claims"),
			counterCol("steals"),
			{"node-collects", "%s", nodeCollects},
		},
	},
	{
		// A8: allocator policy x retirement routing, on numa-split and
		// realloc-local's closed loop.  The regimes tell the
		// allocation-locality story in order: "global" is the single
		// machine-wide pool (the sweep is node-local but a freed block
		// is recycled by whichever node allocs next), "interleave" and
		// "membind" are the numactl contrast points, and "localalloc" —
		// with and without per-node routing — is the answer: per-node
		// pools serve allocs node-locally and sweep-to-home routing
		// returns every freed block to its resident node, closing the
		// retire-on-N → collect-on-N → realloc-on-N loop.
		Name:     "allocpool",
		Title:    "A8: NUMA allocation pools (stack/threadscan)",
		Subjects: []string{"numa-split", "realloc-local"},
		Base:     builtinBase("stack", numaLift),
		Axes: []Axis{choiceAxis("policy/routing",
			choice{"global/global", func(s *workload.Scenario) { s.AllocPolicy, s.PerNode = "global", false }},
			choice{"global/pernode", func(s *workload.Scenario) { s.AllocPolicy, s.PerNode = "global", true }},
			choice{"interleave/pernode", func(s *workload.Scenario) { s.AllocPolicy, s.PerNode = "interleave", true }},
			choice{"membind/pernode", func(s *workload.Scenario) { s.AllocPolicy, s.PerNode = "membind", true }},
			choice{"localalloc/global", func(s *workload.Scenario) { s.AllocPolicy, s.PerNode = "localalloc", false }},
			choice{"localalloc/pernode", func(s *workload.Scenario) { s.AllocPolicy, s.PerNode = "localalloc", true }})},
		Columns: []Column{
			scenarioCol,
			{"policy", "%s", func(r ScenarioResult) any { return r.Scenario.AllocPolicy }},
			{"routing", "%s", func(r ScenarioResult) any {
				if r.Scenario.PerNode {
					return "pernode"
				}
				return "global"
			}},
			throughputCol,
			counterCol("remote_allocs"),
			counterCol("alloc_remote_fills"),
			counterCol("home_frees"),
			counterCol("remote_frees"),
			counterCol("sweep_remote_fills"),
			counterCol("remote_line_fills"),
		},
	},
	{
		// A9: per-node collects serialized on one machine-wide lock vs
		// running concurrently on the per-node collect slots, across
		// node counts at fixed per-node geometry (overlapScale).
		// per-node-reclaim is the symmetric shape, where collect
		// throughput should scale near-linearly in nodes once collects
		// overlap; numa-skewed-retire is the single-retiring-node
		// adversary, which cannot scale and checks that steal
		// arbitration under overlap stays sound.
		Name:     "overlap",
		Title:    "A9: concurrent per-node collects (stack/threadscan, 4 cores + 4 threads per node)",
		Subjects: []string{"per-node-reclaim", "numa-skewed-retire"},
		Base:     builtinBase("stack", nil),
		Axes: []Axis{
			intAxis("nodes", func(s *workload.Scenario, v int) { *s = overlapScale(*s, v) }, 1, 2, 4),
			choiceAxis("mode",
				choice{"serialized", func(s *workload.Scenario) { s.SerializeCollects = true }},
				choice{"overlapped", func(s *workload.Scenario) { s.SerializeCollects = false }}),
		},
		Columns: []Column{
			scenarioCol,
			{"nodes", "%d", func(r ScenarioResult) any { return r.Nodes }},
			{"mode", "%s", func(r ScenarioResult) any {
				if r.Scenario.SerializeCollects {
					return "serialized"
				}
				return "overlapped"
			}},
			{"collect-throughput", "%.0f", func(r ScenarioResult) any { return collectThroughput(r) }},
			counterCol("collects"),
			counterCol("overlapped_collects"),
			counterCol("steals"),
			{"ops-throughput", "%.0f", func(r ScenarioResult) any { return r.Throughput }},
			{"node-collects", "%s", nodeCollects},
		},
	},
	{
		// A10, the bounded-garbage contrast the robust family exists
		// for (Hyaline, arXiv:1905.07903): a preempted reader (deaf to
		// signals, parked mid-operation) holds its position for
		// increasing stall lengths while the other workers churn.
		// Epoch's grace periods and ThreadScan's scan barrier both
		// inherit the stall, so their exact peak retired garbage grows
		// with it, while hyaline's per-batch reference counts free every
		// batch the victim never entered — its peak stays bounded.  The
		// stall lengths are absolute, not stretched by p.Duration.
		Name:     "robust",
		Title:    "A10: bounded garbage under preemption (%s, list)",
		Subjects: []string{"stalled-scanner"},
		Base:     builtinBase("list", nil),
		Axes: []Axis{
			stringAxis("scheme", setScheme, "epoch", "threadscan", "hyaline"),
			intAxis("stall_cycles", setStallCycles, 1_000_000, 2_000_000, 6_000_000),
		},
		Columns: []Column{
			schemeCol,
			{"stall_cycles", "%d", func(r ScenarioResult) any { return r.Scenario.StallCycles }},
			throughputCol,
			{"exact_peak_nodes", "%d", func(r ScenarioResult) any { return r.Footprint.ExactPeakRetiredNodes }},
			{"exact_peak_words", "%d", func(r ScenarioResult) any { return r.Footprint.ExactPeakRetiredWords }},
			{"sampled_peak_nodes", "%d", func(r ScenarioResult) any { return r.Footprint.PeakRetiredNodes }},
			counterCol("freed"),
			counterCol("pending"),
		},
	},
}

// perReclaimed is cycles per reclaimed node (0 when nothing was
// reclaimed).
func perReclaimed(c *core.Stats, cycles int64) float64 {
	n := c.Reclaimed + c.HelpFreed
	if n == 0 {
		return 0
	}
	return float64(cycles) / float64(n)
}
