package main

// The microloop ledger times single simulator primitives under a
// workload's sim config: 8 cores, the scenario quantum, and the cache
// model and heap checking as the workload's cells use them.  A sample
// is the host time of a batch of calls divided by the batch length;
// batches during which the scheduler dispatched are dropped, since they
// timed a hand-off too.

import (
	"time"

	"threadscan"
	"threadscan/internal/ds"
	"threadscan/internal/simmem"
	"threadscan/internal/simt"
)

const (
	ledgerBatch  = 256 // calls per timed batch
	ledgerBlocks = 512 // working set: list-sized blocks
)

// ledgerSamples is the number of batches per primitive.
func ledgerSamples(sz size) int {
	if sz == tiny {
		return 200
	}
	return 4000
}

func ledgerSim(cacheSim, checked bool) *simt.Sim {
	return simt.New(simt.Config{
		Cores: 8, Quantum: 125_000, Seed: 1, CacheSim: cacheSim, StackWords: 256,
		Heap: simmem.Config{Words: 1 << 21, Check: checked, Poison: true},
	})
}

// batchTimer times batches on one simulated thread and drops those
// that crossed a dispatch.
type batchTimer struct {
	sim *simt.Sim
	tr  *tracer
	at  time.Time
	d0  uint64
}

func (b *batchTimer) start() {
	b.d0 = b.sim.Stats().Dispatches
	b.at = time.Now()
}

func (b *batchTimer) stop(metric string, calls int) {
	d := time.Since(b.at)
	if b.sim.Stats().Dispatches == b.d0 {
		b.tr.record(metric, float64(d)/float64(calls))
	}
}

// runLedger records every microloop's samples into tr.
func runLedger(tr *tracer, wl workloadDef, sz size) error {
	samples := ledgerSamples(sz)
	for _, cacheSim := range []bool{true, false} {
		metric := "simt.load_nocache_ns"
		if cacheSim {
			metric = "simt.load_ns"
		}
		if err := memLoop(tr, cacheSim, wl.checked, metric, samples, func(th *simt.Thread) { th.Load(2, 1, 0) }); err != nil {
			return err
		}
	}
	if err := memLoop(tr, wl.cacheSim, wl.checked, "simt.store_ns", samples, func(th *simt.Thread) { th.Store(1, 1, 0) }); err != nil {
		return err
	}
	if err := memLoop(tr, wl.cacheSim, wl.checked, "simt.cas_ns", samples, func(th *simt.Thread) { th.CAS(1, 1, 0, 0) }); err != nil {
		return err
	}
	for _, f := range []func(*tracer, workloadDef, int) error{handoffLoop, signalLoop, allocLoop} {
		if err := f(tr, wl, samples); err != nil {
			return err
		}
	}
	for i := 0; i < 16; i++ {
		t0 := time.Now()
		simmem.New(simmem.Config{Words: 1 << 21, Check: wl.checked, Poison: true})
		tr.record("simmem.heap_new_ms", float64(time.Since(t0))/1e6)
	}
	return nil
}

// memLoop runs op over a working set of list-sized blocks, with the
// block address in register 1 and zero in register 0.
func memLoop(tr *tracer, cacheSim, checked bool, metric string, samples int, op func(*simt.Thread)) error {
	sim := ledgerSim(cacheSim, checked)
	nodeBytes := simmem.ClassSizeBytes(ds.DefaultNodeBytes)
	sim.Spawn("mem", func(th *simt.Thread) {
		blocks := make([]uint64, ledgerBlocks)
		for i := range blocks {
			th.Alloc(1, nodeBytes)
			blocks[i] = th.Reg(1)
		}
		th.SetReg(0, 0)
		b := batchTimer{sim: sim, tr: tr}
		for s, j := 0, 0; s < samples; s++ {
			b.start()
			for k := 0; k < ledgerBatch; k++ {
				th.SetReg(1, blocks[j])
				op(th)
				j = (j + 1) % len(blocks)
			}
			b.stop(metric, ledgerBatch)
		}
	})
	return sim.Run()
}

// handoffLoop times Yield: the thread hands its core back to the
// scheduler and is dispatched again.  Every call is a dispatch, so no
// batch is dropped.
func handoffLoop(tr *tracer, wl workloadDef, samples int) error {
	sim := ledgerSim(wl.cacheSim, wl.checked)
	sim.Spawn("yield", func(th *simt.Thread) {
		for s := 0; s < samples/4; s++ {
			t0 := time.Now()
			for k := 0; k < ledgerBatch/4; k++ {
				th.Yield()
			}
			tr.record("simt.handoff_ns", float64(time.Since(t0))/float64(ledgerBatch/4))
		}
	})
	return sim.Run()
}

// signalLoop times Signal to handler entry: a sender signals a sleeping
// receiver and sleeps; the receiver's handler records the latency and
// signals the sender back.
func signalLoop(tr *tracer, wl workloadDef, samples int) error {
	const sig = 1
	rounds := samples / 2
	sim := ledgerSim(wl.cacheSim, wl.checked)
	var sent time.Time
	var sender *simt.Thread
	done := false
	sim.SetSignalHandler(sig, func(th *simt.Thread) {
		if th == sender || done {
			return
		}
		tr.record("simt.signal_ns", float64(time.Since(sent)))
		th.Signal(sender, sig)
	})
	receiver := sim.Spawn("receiver", func(th *simt.Thread) {
		for !done {
			th.Sleep(1 << 40)
		}
	})
	sender = sim.Spawn("sender", func(th *simt.Thread) {
		for i := 0; i < rounds; i++ {
			sent = time.Now()
			th.Signal(receiver, sig)
			th.Sleep(1 << 40)
		}
		done = true
		th.Signal(receiver, sig)
	})
	return sim.Run()
}

// allocLoop times Alloc+FreeAddr pairs of list-sized blocks, a batch
// of allocations then their frees, so thread-cache refills and
// overflows are in the samples.
func allocLoop(tr *tracer, wl workloadDef, samples int) error {
	sim := ledgerSim(wl.cacheSim, wl.checked)
	nodeBytes := simmem.ClassSizeBytes(ds.DefaultNodeBytes)
	sim.Spawn("alloc", func(th *simt.Thread) {
		blocks := make([]uint64, ledgerBatch)
		b := batchTimer{sim: sim, tr: tr}
		for s := 0; s < samples/4; s++ {
			b.start()
			for k := range blocks {
				th.Alloc(1, nodeBytes)
				blocks[k] = th.Reg(1)
			}
			for _, a := range blocks {
				th.FreeAddr(a)
			}
			b.stop("simmem.alloc_free_ns", len(blocks))
		}
	})
	return sim.Run()
}

// fallbackCell is a small single-threaded hazard scenario over
// dsName.  The ledger drives it for a structure the workload's cells
// never run, and for Protect, which only hazard calls, so every
// per-layer timing has samples on every workload.
func fallbackCell(dsName string, seed int64, sz size) cell {
	duration := int64(2_000_000)
	if sz == tiny {
		duration = 200_000
	}
	s := threadscan.Scenario{
		Name: "fallback", DS: dsName, Scheme: "hazard", Threads: 1, Cores: 1,
		KeyRange: 1024, Prefill: 512, Seed: seed, BufferSize: 128, Batch: 128, Quantum: 125_000,
		Phases: []threadscan.ScenarioPhase{{Name: "steady", Duration: duration,
			Mix: threadscan.OpMix{InsertPct: 10, RemovePct: 10}}},
	}
	return cell{name: "fallback/" + dsName + "/hazard", scn: &s}
}
