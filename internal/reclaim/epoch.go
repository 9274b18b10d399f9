package reclaim

import (
	"threadscan/internal/obs"
	"threadscan/internal/simt"
)

// Epoch implements epoch-based (quiescence) reclamation in the style of
// Harris [20] and RCU [36], instrumented exactly as the paper describes
// (§6): "thread-specific counters to be updated before and after each
// operation.  A thread that had removed 1024 nodes would read all epoch
// counters before continuing."
//
// A thread's counter is odd while it is inside an operation.  A
// reclaimer (at a quiescent point, after EndOp) snapshots all counters
// and waits until every thread observed mid-operation has advanced;
// nodes retired before the wait are then safe to free.
//
// The scheme's weakness — the one ThreadScan exists to fix — is that a
// single delayed thread stalls every reclaimer (the "Slow Epoch" series
// of Figure 3).  EpochConfig.Delay* reproduces that errant thread.
type Epoch struct {
	sim *simt.Sim
	cfg EpochConfig

	counters []uint64   // [threadID] odd = in operation
	live     []bool     // [threadID] participates in grace periods
	retired  [][]uint64 // [threadID] retire lists
	opCount  []uint64   // [threadID] operations started (delay pacing)
	orphans  []uint64   // retire lists of exited threads

	stats Stats
}

// EpochConfig parameterizes the scheme.
type EpochConfig struct {
	// Batch is the retire count that triggers a grace-period wait and
	// reclamation.  Defaults to 1024 (paper §6).
	Batch int

	// DelayCycles, when nonzero, makes the victim thread busy-wait this
	// long during its cleanup phase, while still inside the operation
	// that filled its batch — the paper's "Slow Epoch": "simulated by a
	// 40ms busy-wait by the affected thread during its cleanup phase";
	// "a thread that wants to free its pointers cannot do so until the
	// errant thread updates its epoch counter" (§6).  40ms at the
	// default 1 GHz clock is 40,000,000.
	DelayCycles int64

	// DelayEvery paces the victim: one delayed cleanup per DelayEvery
	// cleanups.  Defaults to 1 (every cleanup) when DelayCycles is set.
	DelayEvery int

	// DelayVictim is the thread ID of the errant thread.  Default 0.
	DelayVictim int

	// Obs, when non-nil, records retire latency, reclaim-pass spans,
	// and grace-period waits.  Never charges virtual cycles.
	Obs *obs.Recorder
}

func (c *EpochConfig) fill() {
	if c.Batch <= 0 {
		c.Batch = 1024
	}
	if c.DelayCycles > 0 && c.DelayEvery <= 0 {
		c.DelayEvery = 1
	}
}

// NewEpoch creates an epoch-based reclamation domain bound to sim.
func NewEpoch(sim *simt.Sim, cfg EpochConfig) *Epoch {
	cfg.fill()
	e := &Epoch{sim: sim, cfg: cfg}
	sim.OnThreadStart(e.threadStart)
	sim.OnThreadExit(e.threadExit)
	return e
}

// NewSlowEpoch creates the paper's Slow Epoch variant: epoch-based
// reclamation with thread 0 busy-waiting delayCycles inside every
// operation.
func NewSlowEpoch(sim *simt.Sim, batch int, delayCycles int64) *Epoch {
	return NewEpoch(sim, EpochConfig{Batch: batch, DelayCycles: delayCycles})
}

func (e *Epoch) threadStart(t *simt.Thread) {
	id := t.ID()
	for len(e.counters) <= id {
		e.counters = append(e.counters, 0)
		e.live = append(e.live, false)
		e.retired = append(e.retired, nil)
		e.opCount = append(e.opCount, 0)
	}
	e.live[id] = true
}

func (e *Epoch) threadExit(t *simt.Thread) {
	id := t.ID()
	e.live[id] = false
	e.orphans = append(e.orphans, e.retired[id]...)
	e.retired[id] = nil
}

// Name implements Scheme.
func (e *Epoch) Name() string {
	if e.cfg.DelayCycles > 0 {
		return "slow-epoch"
	}
	return "epoch"
}

// Discipline implements Scheme: no per-read work.
func (e *Epoch) Discipline() Discipline { return DisciplineNone }

// BeginOp implements Scheme: enter the epoch (counter becomes odd).
func (e *Epoch) BeginOp(t *simt.Thread) {
	id := t.ID()
	e.counters[id]++
	t.Charge(e.sim.Costs().Store)
}

// EndOp implements Scheme: leave the epoch (counter becomes even), then
// reclaim if the batch filled during the operation.  The Slow Epoch
// victim's errant delay sits *before* the counter increment — while the
// thread is still observably mid-operation — which is exactly what
// stalls every concurrent reclaimer's grace period.
func (e *Epoch) EndOp(t *simt.Thread) {
	id := t.ID()
	c := e.sim.Costs()
	due := len(e.retired[id]) >= e.cfg.Batch || len(e.orphans) >= e.cfg.Batch
	if due && e.cfg.DelayCycles > 0 && id == e.cfg.DelayVictim {
		e.opCount[id]++
		if e.opCount[id]%uint64(e.cfg.DelayEvery) == 0 {
			t.Work(e.cfg.DelayCycles) // errant cleanup stall, mid-operation
		}
	}
	e.counters[id]++
	t.Charge(c.Store)
	if due {
		e.reclaim(t)
	}
}

// Protect implements Scheme (no-op; epochs do not track references).
func (e *Epoch) Protect(*simt.Thread, int, int) bool { return false }

// Retire implements Scheme: buffer the node.  Reclamation happens at
// the next EndOp so the grace wait runs outside any operation (a
// reclaimer waiting inside an operation could deadlock with another).
func (e *Epoch) Retire(t *simt.Thread, addr uint64) {
	id := t.ID()
	start := t.Now()
	t.Charge(e.sim.Costs().Store)
	e.stats.Retired++
	e.stats.notePeak()
	e.retired[id] = append(e.retired[id], addr&^7)
	e.cfg.Obs.Observe(t, obs.StageRetire, t.Now()-start)
}

// reclaim waits out one grace period and frees the batch.  Must be
// called from a quiescent point (caller's counter even).
func (e *Epoch) reclaim(t *simt.Thread) {
	c := e.sim.Costs()
	id := t.ID()
	e.stats.ReclaimPasses++
	e.cfg.Obs.Begin(t, obs.StageCollect)
	defer e.cfg.Obs.End(t)

	// Only nodes retired (and orphans deposited) before the snapshot
	// are covered by this grace period.  Steal our own retire list and
	// the orphan list in one atomic step (no safepoint intervenes) so
	// concurrent reclaimers — or a concurrent Flush draining all lists
	// — cannot free either twice, and cannot nil a list out from under
	// us while the grace wait below passes safepoints.
	own := e.retired[id]
	e.retired[id] = nil
	stolen := e.orphans
	e.orphans = nil

	// Snapshot all counters ("read all epoch counters before
	// continuing", §6) and wait for active threads to advance.
	snap := make([]uint64, len(e.counters))
	for i := range e.counters {
		t.Charge(c.Load)
		snap[i] = e.counters[i]
	}
	waitStart := t.Cycles()
	waitFrom := t.Now()
	waited := false
	for i := range snap {
		if i == id || !e.live[i] || snap[i]%2 == 0 {
			continue // quiescent at snapshot (or ourselves, or gone)
		}
		for e.live[i] && e.counters[i] == snap[i] {
			waited = true
			t.Pause() // the errant thread makes this the bottleneck
		}
	}
	if waited {
		e.stats.GraceWaits++
		e.stats.GraceWaitCycles += t.Cycles() - waitStart
		e.cfg.Obs.Window(t, obs.StageGraceWait, waitFrom, t.Now()-waitFrom)
	}

	// Everything retired before the snapshot is now unreachable by
	// anyone: every thread active at the snapshot has since passed a
	// quiescent point.
	for _, addr := range own {
		t.FreeAddr(addr)
		e.stats.Freed++
	}
	for _, addr := range stolen {
		t.FreeAddr(addr)
		e.stats.Freed++
	}
}

// Flush implements Scheme: run a final grace period and free leftovers.
// reclaim alone frees only the caller's own retire list plus orphans;
// retire lists of other still-registered threads — quiescent by
// teardown, but not yet exit-hooked — would survive as phantom garbage.
// Steal every other thread's list into the orphan set first (one atomic
// step, no safepoint intervenes), so the grace period below covers them
// and the flush drains the whole domain.
func (e *Epoch) Flush(t *simt.Thread) int {
	id := t.ID()
	for i := range e.retired {
		if i == id || len(e.retired[i]) == 0 {
			continue
		}
		e.orphans = append(e.orphans, e.retired[i]...)
		e.retired[i] = nil
	}
	e.reclaim(t)
	return int(e.pending())
}

func (e *Epoch) pending() uint64 {
	n := uint64(len(e.orphans))
	for _, r := range e.retired {
		n += uint64(len(r))
	}
	return n
}

// Stats implements Scheme.
func (e *Epoch) Stats() Stats {
	s := e.stats
	s.Pending = e.pending()
	return s
}
