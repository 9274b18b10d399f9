package main

// The driver rebuilds a cell's declared shape from the layers' public
// constructors (simt.New, harness.BuildScheme, the ds constructors,
// workload.TargetFor, workload.NewKeyGen, Mix.Pick, SpawnFrom and the
// stalls) so the traced run can put spans around the calls into each
// layer from outside the program.  It runs no footprint sampler and no
// recorder, so its thread ids and results differ from the facade's;
// what must hold is that its traced and untraced runs of one cell are
// virtually identical.

import (
	"fmt"
	"time"

	"threadscan"
	"threadscan/internal/core"
	"threadscan/internal/ds"
	"threadscan/internal/harness"
	"threadscan/internal/reclaim"
	"threadscan/internal/simmem"
	"threadscan/internal/simt"
	"threadscan/internal/workload"
)

// driven is one driver run of a cell.
type driven struct {
	out      outcome
	counts   map[string]uint64 // per-layer counts, from each layer's own stats
	setup    time.Duration     // construction: sim, scheme, structure
	run      time.Duration     // Sim.Run
	problems []string
}

// drive runs c once; tr is nil for the untraced run.
func drive(c cell, tr *tracer) driven {
	if c.exp != nil {
		return driveClassic(*c.exp, tr)
	}
	return driveScenario(*c.scn, tr)
}

// driverRun carries what the worker bodies share.  The simulator runs one
// simulated thread at a time, so the maps need no locking.
type driverRun struct {
	sim    *simt.Sim
	scheme reclaim.Scheme // the traced wrapper when tracing
	core   *core.ThreadScan
	target workload.Target
	ds     string
	tr     *tracer
	opHist *hist // the op spans' histogram, ds.op_ns.<ds>

	startAt, finishAt map[int]int64
	traces            map[int]uint64
}

func newDriverRun(sim *simt.Sim, sc reclaim.Scheme, tsCore *core.ThreadScan, dsName string, tr *tracer) *driverRun {
	r := &driverRun{sim: sim, scheme: sc, core: tsCore, ds: dsName, tr: tr,
		startAt: map[int]int64{}, finishAt: map[int]int64{}, traces: map[int]uint64{}}
	if tr != nil {
		tr.attach(sim, tsCore)
		r.opHist = tr.hist("ds.op_ns." + dsName)
		r.scheme = tr.wrap(sc)
	}
	return r
}

// build constructs the structure over the (possibly wrapped) scheme.
func (r *driverRun) build(nodeBytes, buckets int) error {
	var structure any
	switch r.ds {
	case "list":
		structure = ds.NewList(r.sim, r.scheme, nodeBytes)
	case "hash":
		structure = ds.NewHashTable(r.sim, r.scheme, buckets, nodeBytes)
	case "stack":
		structure = ds.NewStack(r.sim, r.scheme, nodeBytes)
	case "queue":
		structure = ds.NewQueue(r.sim, r.scheme, nodeBytes)
	default:
		return fmt.Errorf("perfbench: the driver does not build %q", r.ds)
	}
	t, err := workload.TargetFor(structure)
	r.target = t
	return err
}

// apply is one operation: the op root span when tracing.
func (r *driverRun) apply(th *simt.Thread, op workload.Op, key uint64) bool {
	if r.tr == nil {
		return r.target.Apply(th, op, key)
	}
	sp := r.tr.begin(th)
	ok := r.target.Apply(th, op, key)
	r.tr.endOp(th, sp, r.opHist)
	return ok
}

// prefill inserts worker i's stripe of evenly spaced keys.
func (r *driverRun) prefill(th *simt.Thread, i, workers, prefill int, keyRange uint64) {
	for k := i; k < prefill; k += workers {
		r.apply(th, workload.OpInsert, ds.MinKey+uint64(k)*keyRange/uint64(prefill))
	}
}

// runSim runs the simulation and assembles the outcome.
func (r *driverRun) runSim(d *driven) {
	t0 := time.Now()
	err := r.sim.Run()
	d.run = time.Since(t0)
	if r.tr != nil {
		r.tr.runNs += float64(d.run)
		r.tr.detach()
	}
	if err != nil {
		d.problems = append(d.problems, "run error: "+err.Error())
		return
	}
	var sums []uint64
	var minStart, maxFinish int64
	first := true
	for _, th := range r.sim.Threads() {
		d.out.Ops += th.Ops()
		if s, ok := r.startAt[th.ID()]; ok && (first || s < minStart) {
			minStart, first = s, false
		}
		if f := r.finishAt[th.ID()]; f > maxFinish {
			maxFinish = f
		}
		if sum, ok := r.traces[th.ID()]; ok {
			sums = append(sums, sum)
		}
	}
	d.out.ElapsedCycles = maxFinish - minStart
	d.out.TraceHash = workload.CombineTraces(sums)
	d.out.FinalSize = r.target.Size()
	ss, hs, rs := r.sim.Stats(), r.sim.Heap().Stats(), r.scheme.Stats()
	d.out.Dispatches, d.out.Allocs = ss.Dispatches, hs.Allocs
	d.counts = map[string]uint64{
		"ds.ops":                 d.out.Ops,
		"simt.dispatches":        ss.Dispatches,
		"simt.context_switches":  ss.ContextSwitches,
		"simt.signals_delivered": ss.SignalsDelivered,
		"simt.remote_line_fills": ss.RemoteLineFills,
		"simmem.allocs":          hs.Allocs,
		"simmem.frees":           hs.Frees,
		"simmem.cache_misses":    hs.CacheMisses,
		"simmem.pages_carved":    hs.PagesCarved,
		"reclaim.retired":        rs.Retired,
		"reclaim.freed":          rs.Freed,
		"reclaim.protects":       rs.Protects,
		"reclaim.grace_waits":    rs.GraceWaits,
	}
	if r.core != nil {
		cs := r.core.Stats()
		d.out.Collects = cs.Collects
		d.counts["core.collects"] = cs.Collects
		d.counts["core.scanned_words"] = cs.ScannedWords
		d.counts["core.reclaimed"] = cs.Reclaimed
	}
}

// opLoop runs one worker's measured operations until deadline: next
// draws each op and key, after runs between ops (the stall injection).
// It records the op-trace digest and the measured window.
func (r *driverRun) opLoop(th *simt.Thread, deadline int64, next func(th *simt.Thread) (workload.Op, uint64), after func()) {
	tr := workload.NewTrace()
	r.startAt[th.ID()] = th.Now()
	for th.Now() < deadline {
		op, key := next(th)
		ok := r.apply(th, op, key)
		tr.Record(op, key, ok)
		th.AddOps(1)
		if after != nil {
			after()
		}
	}
	r.finishAt[th.ID()] = th.Now()
	r.traces[th.ID()] = tr.Sum()
}

// dropRefs clears the register file so teardown sees no stale
// references.
func dropRefs(th *simt.Thread) {
	for reg := 0; reg < simt.NumRegs; reg++ {
		th.SetReg(reg, 0)
	}
}

// classicHeapWords sizes the classic engine's arena as the harness
// does: live nodes plus every scheme's buffered retirees, doubled.
func classicHeapWords(e threadscan.Experiment) int {
	nodeBytes := e.NodeBytes
	if nodeBytes <= 0 {
		nodeBytes = ds.DefaultNodeBytes
	}
	per := simmem.ClassSizeBytes(nodeBytes)
	buffered := e.Threads*(e.BufferSize+e.Batch) + 4*e.Batch
	words := (int(e.KeyRange) + buffered + 4096) * (per / 8) * 2
	p := 1 << 16
	for p < words {
		p <<= 1
	}
	return p
}

// driveClassic rebuilds harness.Run's shape: prefill, a barrier, a
// uniform-key op loop until the virtual deadline, then teardown.  The
// experiment must carry every knob explicitly (the benchmark's cells
// do): the driver applies no defaults.
func driveClassic(e threadscan.Experiment, tr *tracer) driven {
	var d driven
	t0 := time.Now()
	sim := simt.New(simt.Config{
		Cores: e.Cores, Quantum: e.Quantum, Seed: e.Seed, CacheSim: e.CacheSim,
		StackWords: 256,
		MaxCycles:  e.Duration*int64(e.Threads+4)*4 + 4_000_000_000,
		Heap:       simmem.Config{Words: classicHeapWords(e), Poison: true},
	})
	sc, tsCore, err := harness.BuildScheme(sim, harness.Config{
		Scheme: e.Scheme, BufferSize: e.BufferSize, Batch: e.Batch, SlowDelay: e.SlowDelay})
	if err != nil {
		d.problems = append(d.problems, err.Error())
		return d
	}
	r := newDriverRun(sim, sc, tsCore, e.DS, tr)
	buckets := e.Buckets
	if buckets == 0 {
		buckets = max(int(e.KeyRange/32), 1)
	}
	if err := r.build(e.NodeBytes, buckets); err != nil {
		d.problems = append(d.problems, err.Error())
		return d
	}
	nT := e.Threads
	startBar := sim.NewBarrier("measure-start", nT)
	endBar := sim.NewBarrier("measure-end", nT)
	tearBar := sim.NewBarrier("teardown", nT)
	mix := workload.Mix{InsertPct: e.UpdatePercent / 2, RemovePct: e.UpdatePercent - e.UpdatePercent/2}
	for i := 0; i < nT; i++ {
		sim.Spawn(fmt.Sprintf("w%d", i), func(th *simt.Thread) {
			r.prefill(th, i, nT, e.Prefill, e.KeyRange)
			startBar.Await(th)
			rng := th.RNG()
			gen := workload.NewKeyGen(workload.Dist{}, e.KeyRange, rng)
			r.opLoop(th, th.Now()+e.Duration, func(th *simt.Thread) (workload.Op, uint64) {
				key := gen.Key(0)
				return mix.Pick(rng.Intn(100)), key
			}, nil)
			endBar.Await(th)
			dropRefs(th)
			tearBar.Await(th)
			r.scheme.Flush(th)
		})
	}
	d.setup = time.Since(t0)
	if tr != nil {
		tr.record("harness.cell_setup_ms", float64(d.setup)/1e6)
	}
	r.runSim(&d)
	return d
}

// scenarioNodeWords is the allocator words one node of spec.DS takes.
func scenarioNodeWords(spec *workload.Scenario) int {
	nb := spec.NodeBytes
	if nb <= 0 {
		switch spec.DS {
		case "stack":
			nb = ds.DefaultStackNodeBytes
		case "queue":
			nb = ds.DefaultQueueNodeBytes
		default:
			nb = ds.DefaultNodeBytes
		}
	}
	return simmem.ClassSizeBytes(nb) / 8
}

// scenarioHeapWords sizes the arena as the scenario engine does: the
// live set, buffered retirees and every allocation the mix allows.
func scenarioHeapWords(spec *workload.Scenario, bufferSize, batch int) int {
	insCost, otherCost := int64(100), int64(10)
	if spec.DS == "list" || spec.DS == "hash" {
		insCost, otherCost = 250, 60
	}
	var allocNodes int64
	for _, p := range spec.Phases {
		i := int64(p.Mix.InsertPct)
		for _, m := range spec.WorkerMix {
			i = max(i, int64(m.InsertPct))
		}
		if i > 0 {
			allocNodes += p.Duration * i / (i*insCost + (100-i)*otherCost)
		}
	}
	workers := spec.Threads + 2
	if spec.Churn != nil {
		workers += spec.Churn.TotalWorkers()
	}
	scale := 1
	if spec.AllocPolicy != "" && spec.AllocPolicy != "global" && spec.Nodes > 1 {
		scale = spec.Nodes
	}
	live := int(spec.KeyRange) + spec.Prefill + int(allocNodes)*spec.Cores + workers*(bufferSize+batch) + 4096
	words := live * scenarioNodeWords(spec) * 3 / 2 * scale
	p := 1 << 16
	for p < words {
		p <<= 1
	}
	return p
}

// driveScenario rebuilds harness.RunScenario's shape without its
// footprint sampler: prefill, phased op mixes with per-group overrides,
// pinning, churn generations spawned mid-run, and stall injection.
func driveScenario(spec workload.Scenario, tr *tracer) driven {
	var d driven
	if err := spec.Fill(); err != nil {
		d.problems = append(d.problems, err.Error())
		return d
	}
	if spec.OpsPerWorker > 0 {
		d.problems = append(d.problems, "the driver runs deadline scenarios only")
		return d
	}
	t0 := time.Now()
	total := spec.TotalDuration()
	workers := spec.Threads
	if spec.Churn != nil {
		workers += spec.Churn.TotalWorkers()
	}
	bufferSize, batch := spec.BufferSize, spec.Batch
	if bufferSize == 0 {
		bufferSize = core.DefaultBufferSize
	}
	if batch == 0 {
		batch = 1024
	}
	claim := core.ClaimAffinity
	if spec.ClaimPolicy == "rr" {
		claim = core.ClaimRoundRobin
	}
	allocPolicy, err := simmem.ParsePolicy(spec.AllocPolicy)
	if err != nil {
		d.problems = append(d.problems, err.Error())
		return d
	}
	quantum := spec.Quantum
	if quantum == 0 {
		quantum = 125_000
	}
	sim := simt.New(simt.Config{
		Cores: spec.Cores, Nodes: spec.Nodes, Quantum: quantum, Seed: spec.Seed,
		Chaos: spec.Chaos, StackWords: 256,
		MaxCycles: total*int64(workers+4)*4 + 4_000_000_000,
		Heap: simmem.Config{Words: scenarioHeapWords(&spec, bufferSize, batch),
			Check: true, Poison: true, Policy: allocPolicy},
	})
	sc, tsCore, err := harness.BuildScheme(sim, harness.Config{
		Scheme: spec.Scheme, BufferSize: bufferSize, Batch: batch,
		Shards: spec.Shards, Watermark: spec.Watermark, HelpFree: spec.HelpFree,
		Claim: claim, PerNode: spec.PerNode, StealThreshold: spec.StealThreshold,
		SerializeColl: spec.SerializeCollects, SlowDelay: 40_000_000, DelayVictim: 1,
	})
	if err != nil {
		d.problems = append(d.problems, err.Error())
		return d
	}
	r := newDriverRun(sim, sc, tsCore, spec.DS, tr)
	buckets := spec.Buckets
	if buckets == 0 {
		buckets = max(int(spec.KeyRange/32), 1)
	}
	if err := r.build(spec.NodeBytes, buckets); err != nil {
		d.problems = append(d.problems, err.Error())
		return d
	}

	var phaseEnd []int64
	var cum int64
	for _, p := range spec.Phases {
		cum += p.Duration
		phaseEnd = append(phaseEnd, cum)
	}
	mutators, spawningDone := spec.Threads, spec.Churn == nil

	// work drives one worker from base until deadline, crossing phase
	// boundaries at absolute virtual times.
	work := func(th *simt.Thread, base, deadline int64, override *workload.Mix, stalled bool) {
		rng := th.RNG()
		phase := 0
		gen := workload.NewKeyGen(spec.Phases[0].Dist, spec.KeyRange, rng)
		sinceStall := 0
		next := func(th *simt.Thread) (workload.Op, uint64) {
			for phase < len(spec.Phases)-1 && th.Now() >= base+phaseEnd[phase] {
				phase++
				gen = workload.NewKeyGen(spec.Phases[phase].Dist, spec.KeyRange, rng)
			}
			phaseStart := base
			if phase > 0 {
				phaseStart += phaseEnd[phase-1]
			}
			frac := float64(th.Now()-phaseStart) / float64(spec.Phases[phase].Duration)
			if frac >= 1 {
				frac = 0.999999 // oversubscribed final-phase overhang
			}
			key := gen.Key(frac)
			mix := spec.Phases[phase].Mix
			if override != nil {
				mix = *override
			}
			return mix.Pick(rng.Intn(100)), key
		}
		var stall func()
		if stalled {
			// One errant, empty operation stalled mid-bracket every
			// StallEvery ops: no rng draw, no trace record.
			stall = func() {
				if sinceStall++; sinceStall < spec.StallEvery {
					return
				}
				sinceStall = 0
				r.scheme.BeginOp(th)
				if spec.StallKind == "preempt" {
					th.Charge(spec.StallCycles)
				} else {
					th.Work(spec.StallCycles)
				}
				r.scheme.EndOp(th)
			}
		}
		r.opLoop(th, deadline, next, stall)
	}
	retire := func(th *simt.Thread) {
		dropRefs(th)
		mutators--
	}

	participants := spec.Threads
	if spec.Churn != nil {
		participants++
	}
	startBar := sim.NewBarrier("scenario-start", participants)
	for i := 0; i < spec.Threads; i++ {
		override := spec.WorkerGroupMix(i)
		stalled := spec.StallCycles > 0 && i < spec.StallVictims
		th := sim.Spawn(fmt.Sprintf("w%d", i), func(th *simt.Thread) {
			r.prefill(th, i, spec.Threads, spec.Prefill, spec.KeyRange)
			startBar.Await(th)
			start := th.Now()
			work(th, start, start+total, override, stalled)
			retire(th)
			if i == 0 {
				for mutators > 0 || !spawningDone {
					th.Pause()
				}
				r.scheme.Flush(th)
			}
		})
		if node := spec.WorkerNode(i); node >= 0 {
			th.Pin(node)
		}
	}
	if ch := spec.Churn; ch != nil {
		sim.Spawn("churn-ctl", func(th *simt.Thread) {
			startBar.Await(th)
			start := th.Now()
			spawned := 0
			for g := 0; g < ch.Generations; g++ {
				for at := start + ch.Start(g); th.Now() < at; {
					th.Sleep(at - th.Now())
				}
				for j := 0; j < ch.Workers; j++ {
					mutators++
					w := sim.SpawnFrom(th, fmt.Sprintf("churn%d.%d", g, j), func(w *simt.Thread) {
						work(w, start, min(w.Now()+ch.Life, start+total), nil, false)
						retire(w)
					})
					if spec.PinPolicy == "rr" || spec.PinPolicy == "split" {
						w.Pin(spawned % spec.Nodes)
					}
					spawned++
				}
			}
			spawningDone = true
		})
	}
	d.setup = time.Since(t0)
	if tr != nil {
		tr.record("harness.cell_setup_ms", float64(d.setup)/1e6)
	}
	r.runSim(&d)
	if tsCore != nil && tsCore.RegisteredThreads() != 0 {
		d.problems = append(d.problems, fmt.Sprintf("leaked_registrations %d, expected 0", tsCore.RegisteredThreads()))
	}
	return d
}
