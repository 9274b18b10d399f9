package core

import (
	"threadscan/internal/obs"
	"threadscan/internal/simt"
)

// Per-node retirement routing and node-local reclaimers (Config.PerNode).
//
// The classic collect hashes every retired address into globally shared
// shards and elects a single reclaimer, so on a multi-node machine a
// shard's member addresses span sockets even when its home is clear,
// and the whole collect serializes on whichever socket the reclaimer
// happens to run — the cross-socket bottleneck the paper's scalability
// argument (and Hyaline's per-thread batch locality argument) warns
// about.  Per-node mode restructures the pipeline around the topology:
//
//   - Free tags each retired address with the retiring thread's NUMA
//     node in the ring entry's low three bits (word-aligned addresses
//     leave them free; maxRoutedNodes bounds the node count).  The tag
//     is taken at Free time, so an unpinned thread that migrates
//     attributes each retire exactly.
//   - A full ring is drained by its *owner* — ring → home-node
//     sub-buffer — so the SPSC ring becomes genuinely single-thread
//     and no reclaimer ever reads another thread's ring on the hot
//     path.  nodeBuf[n] therefore holds only node-n-retired addresses:
//     every shard built from it is single-node *by construction*, and
//     its sweep touches zero remote lines.
//   - Each node runs its own collects: the thread whose drain pushes
//     its node's sub-buffer past the trigger becomes that node's
//     reclaimer and collects over that node's shard group only (the
//     pipeline itself is in overlap.go).  The scan barrier handshake
//     (simt.Handshake) is the sole cross-node synchronization — every
//     thread still scans, because any thread on any node may hold a
//     reference to any address.  Config.SerializeCollects changes only
//     admission: one slot shared by every node instead of one each.
//   - Rebalancing under one-node-retires-everything skew: below
//     Config.StealThreshold all sort and sweep work stays node-local;
//     above it remote threads collect for the overloaded node
//     (StolenCollects), help-sort its shards, and sweep its deferred
//     lists (StolenSweeps) — bounded memory beats perfect locality.
//
// With PerNode off (or on a flat machine) none of this code runs and
// the protocol is bit-identical to the classic pipeline — the contract
// the captured-baseline replay test enforces.

// MaxRoutedNodes bounds the topology PerNode supports: the node tag
// rides in the low three bits of a word-aligned ring entry.  Exported
// so front ends (tsbench flag validation) share the single limit.
const MaxRoutedNodes = 8

// freeRouted is Free's per-node path: tag, buffer, and — when the
// owner's ring fills — drain to the home sub-buffers and check the
// collect triggers.  Caller has already charged the buffer store and
// counted the free.
func (ts *ThreadScan) freeRouted(t *simt.Thread, tt *tsThread, addr uint64) {
	tag := tagEntry(addr, t.Node())
	if tt.ring.Push(tag) {
		return
	}
	// Ring full: the owner routes its own buffer (no other thread ever
	// drains it in this mode), then retries the push — the ring is now
	// empty, so it cannot fail.
	ts.routeRing(t, tt)
	tt.ring.Push(tag)
	ts.maybeCollectRouted(t)
}

// routeRing drains tt's ring into the per-node sub-buffers by tag,
// charging the staging copy (one load + one store per entry).  The
// whole routine runs between safepoints, so it is atomic with respect
// to the simulation and needs no lock.
func (ts *ThreadScan) routeRing(t *simt.Thread, tt *tsThread) {
	var n int
	ts.scratch, n = tt.ring.Drain(ts.scratch[:0])
	for _, v := range ts.scratch {
		node := entryNode(v)
		ts.nodeBuf[node] = append(ts.nodeBuf[node], entryAddr(v))
	}
	c := ts.costs()
	t.Charge(int64(n) * (c.Load + c.Store))
}

// routeAllRings routes every registered thread's ring (teardown and
// forced collects; the steady-state path never reads a remote ring).
// Caller holds the reclamation lock.
func (ts *ThreadScan) routeAllRings(t *simt.Thread) {
	for id, tt := range ts.perThread {
		if tt == nil || !ts.registered[id] {
			continue
		}
		ts.routeRing(t, tt)
	}
}

// maybeCollectRouted checks the collect triggers after a routing drain:
// the drainer's own node first (the common case — the thread that
// pushed its node's sub-buffer over the trigger is, by construction of
// the routing, a thread of that node), then any *remote* node whose
// backlog passed the steal threshold.  A remote node gets that far only
// when its own threads are not collecting — retirers that migrated
// away, or exited threads' routed buffers — and unbounded growth there
// is worse than a stolen, remote collect.  The drainer queues
// (interruptibly) on its own node's slot and TryLocks remote ones.
func (ts *ThreadScan) maybeCollectRouted(t *simt.Thread) {
	my := t.Node()
	nc := ts.nc[my]
	if len(ts.nodeBuf[my]) >= ts.nodeTrigger[my] {
		nc.lock.Lock(t)
		if len(ts.nodeBuf[my]) >= ts.nodeTrigger[my] {
			if ts.cfg.CollectWatermark > 0 {
				ts.stats.WatermarkCollects++
				ts.obs.Instant(t, obs.KindWatermark)
			} else {
				ts.obs.Instant(t, obs.KindTrigger)
			}
			ts.collectNode(t, nc)
		} else {
			// This node's reclaimer collected while we waited (§4.2).
			ts.stats.AvoidedCollects++
		}
		nc.lock.Unlock(t)
	}
	for n := 0; n < ts.nodes; n++ {
		if n == my || len(ts.nodeBuf[n]) < ts.stealAt {
			continue
		}
		other := ts.nc[n]
		// TryLock, not Lock: a held slot means a reclaimer (the node's
		// own, an earlier thief, or — on a shared slot — any node's) is
		// already collecting; stealing must target only neglected nodes,
		// and must never stall this thread behind another phase.
		if !other.lock.TryLock(t) {
			continue
		}
		if len(ts.nodeBuf[n]) >= ts.stealAt {
			ts.stats.StolenCollects++
			ts.obs.Instant(t, obs.KindSteal)
			ts.collectNode(t, other)
		} else {
			ts.stats.AvoidedCollects++
		}
		other.lock.Unlock(t)
	}
}
