package core

import (
	"threadscan/internal/obs"
	"threadscan/internal/simt"
)

// The per-node collect pipeline (Config.PerNode).
//
// Each node owns a nodeCollect — an admission slot, a scan-barrier
// handshake, a shard group, and deferred sweep lists — and a node's
// reclaimer runs its whole trigger → aggregate → sort → signal → scan
// → sweep → free pipeline against its own nodeCollect only.  The
// machine-wide reclamation lock is not on this path; it guards only
// thread registration.  With one slot per node (the default) collects
// on different nodes overlap freely: their shard groups, sweep lists
// and freed lines are disjoint by construction, and the only
// cross-node rendezvous left is the scan barrier itself, because any
// thread on any node may hold a reference to any address.  Under
// Config.SerializeCollects every nodeCollect shares one slot, so the
// same pipeline admits one collect at a time machine-wide — the
// paper's one-reclaimer rule (§4.2), and the A9 ablation's control.
//
// Shared scan epochs.  With several collects in flight, one thread can
// be signaled by several reclaimers before it reaches a safepoint; the
// simulator coalesces those sends into a single handler run.  The
// handler therefore snapshots, at entry, every handshake that wants
// its ack (Handshake.ExpectFrom/Wants), scans ONCE — probing each
// wanting node's shard group per stack word, charging the word mask
// and range check a single time — and acks each wanting handshake
// individually.  One scan pass satisfies every collect whose signal it
// observed: overlapping collects share the scan epoch instead of
// re-walking the stack per node.  A collect armed after the snapshot
// is not lost: its send left the signal pending, so a later handler
// run (a distinct epoch, deterministically ordered by the scheduler)
// picks it up.
//
// Steal arbitration.  A thread that sees a remote node's backlog past
// StealThreshold TryLocks that node's slot instead of queueing on it:
// acquisition failure means a reclaimer already holds the slot, so a
// stolen collect never targets a node whose reclaimer is active and
// never blocks an idle node's own collect.
//
// Exit safety.  A thread exits by taking EVERY distinct slot in
// ascending order (after the machine-wide registration lock — the one
// global lock order); the shared slot is taken once, since the mutex
// is not reentrant.  The waits are interruptible, so an in-flight
// phase counting the exiting thread still gets its scan and ack; once
// all slots are held, no handshake wants the thread and it can
// deregister without stranding a barrier.

// nodeCollect is one node's independent collect pipeline.
type nodeCollect struct {
	node int
	lock *simt.Mutex     // admits one in-flight collect for this node
	hs   *simt.Handshake // this node's scan barrier
	// shards is this node's shard group — single-node by construction
	// (routing put only node-homed addresses in nodeBuf[node]).
	shards *shardSet
	// reclaimerID is the thread driving the in-flight collect (-1
	// idle); help-sort attribution for this group compares against it.
	reclaimerID int
	active      bool // collect in flight over this group
	// pending holds sweep lists deferred by the last phase (HelpFree);
	// help holds the lists the current phase's scanners may claim.
	// All lists here are homed on node.
	pending []freeList
	help    []freeList
}

// backlogOf is the node's deferred sweep backlog — the quantity the
// steal threshold compares against for sweep stealing.
func (ts *ThreadScan) backlogOf(nc *nodeCollect) int {
	n := 0
	for _, list := range nc.help {
		n += len(list.addrs)
	}
	for _, list := range nc.pending {
		n += len(list.addrs)
	}
	return n
}

// collectForced is Collect under PerNode: route every live ring (under
// the registration lock), then run one phase per node with backlog,
// taking each node's slot in ascending order.
func (ts *ThreadScan) collectForced(t *simt.Thread) {
	ts.lock.Lock(t)
	ts.routeAllRings(t)
	ts.lock.Unlock(t)
	ran := false
	for _, nc := range ts.nc {
		nc.lock.Lock(t)
		if len(ts.nodeBuf[nc.node])+len(ts.nodeRemark[nc.node]) > 0 {
			ts.collectNode(t, nc)
			ran = true
		}
		nc.lock.Unlock(t)
	}
	if !ran {
		// Nothing routed anywhere: still run one (empty) phase so a
		// forced collect ticks the HelpFree carry-over.
		nc := ts.nc[t.Node()]
		nc.lock.Lock(t)
		ts.collectNode(t, nc)
		nc.lock.Unlock(t)
	}
}

// flushNodes is FlushAll's per-node teardown pass: collect and drain
// every node, steal threshold notwithstanding.  Caller holds the
// registration lock and is marked flushing.
func (ts *ThreadScan) flushNodes(t *simt.Thread) {
	ts.routeAllRings(t)
	for _, nc := range ts.nc {
		nc.lock.Lock(t)
		if len(ts.nodeBuf[nc.node])+len(ts.nodeRemark[nc.node]) > 0 {
			ts.collectNode(t, nc)
		}
		ts.drainNodeLists(t, nc)
		// collectNode defers this phase's unmarked nodes; at teardown,
		// free them immediately.
		for _, list := range nc.pending {
			for _, addr := range list.addrs {
				ts.freeNode(t, addr)
				ts.stats.NodeReclaimed[list.home]++
			}
		}
		nc.pending = nc.pending[:0]
		nc.lock.Unlock(t)
	}
}

// collectNode is the per-node TS-Collect: one phase over nc's shard
// group only.  Aggregation reads just that node's sub-buffer (plus its
// re-buffered marked nodes), every shard is homed on the node without
// an election, and the sweep — local by construction — re-buffers
// marked nodes into the node's remark list so pinned garbage cannot
// re-arm the trigger.  Caller holds nc.lock.
func (ts *ThreadScan) collectNode(t *simt.Thread, nc *nodeCollect) {
	if nc.active {
		panic("core: concurrent collect admitted on one node's collect slot")
	}
	c := ts.costs()
	start := t.Cycles()
	node := nc.node
	ts.stats.Collects++
	ts.stats.NodeCollects[node]++
	for _, other := range ts.nc {
		if other != nc && other.active {
			ts.stats.OverlappedCollects++
			break
		}
	}
	nc.reclaimerID = t.ID()
	nc.active = true
	ts.obs.BeginNode(t, obs.StageCollect, node)
	defer ts.obs.End(t)

	// The previous phase's deferred sweep lists become claimable by
	// this phase's scanners.
	nc.help = append(nc.help, nc.pending...)
	nc.pending = nc.pending[:0]

	// Aggregate the node's sub-buffer into the node's own shard group.
	// Single node by construction: no votes, no election.  Truncate
	// before charging: aggregate-and-truncate must be one atomic step
	// with respect to routeRing's lock-free appends, and that property
	// should not hinge on Charge never passing a safepoint.
	nc.shards.reset()
	n := len(ts.nodeBuf[node]) + len(ts.nodeRemark[node])
	for _, a := range ts.nodeBuf[node] {
		nc.shards.add(a, node)
	}
	for _, a := range ts.nodeRemark[node] {
		nc.shards.add(a, node)
	}
	ts.nodeBuf[node] = ts.nodeBuf[node][:0]
	ts.nodeRemark[node] = ts.nodeRemark[node][:0]
	t.Charge(int64(n) * (c.Load + c.Step))
	nc.shards.setHomes(node)

	if nc.shards.total == 0 {
		// Nothing new on this node, but deferred sweep work must still
		// move (teardown reaches here with empty sub-buffers).
		ts.drainNodeLists(t, nc)
		nc.active = false
		nc.reclaimerID = -1
		ts.stats.CollectCycles += t.Cycles() - start
		return
	}
	if nc.shards.total > ts.stats.MaxMaster {
		ts.stats.MaxMaster = nc.shards.total
	}

	// Same pipeline orders as the classic collect: serial sort-then-
	// signal at K = 1, signal-first with lazy sorting otherwise.
	if nc.shards.k() == 1 {
		ts.prepareShardIn(t, nc.shards, nc.reclaimerID, 0)
		ts.signalPeersIn(t, nc)
	} else {
		ts.signalPeersIn(t, nc)
	}
	// Scan our own roots for this collect only; if another node's
	// collect wants our scan too, its signal is pending and our handler
	// answers it at the next safepoint (the Await below passes many).
	ts.scanThreadMulti(t, []*nodeCollect{nc})

	// The scan barrier — the only cross-node rendezvous of the phase.
	ts.obs.BeginNode(t, obs.StageHandshake, node)
	nc.hs.Await(t)
	ts.obs.End(t)

	if nc.shards.k() > 1 {
		for i := range nc.shards.sub {
			ts.prepareShardIn(t, nc.shards, nc.reclaimerID, i)
		}
	}

	// Sweep.  Every line here is homed on node (routing put it there);
	// after the barrier no handler probes this group (no handshake
	// wants remain), so iterating it across freeNode's safepoints is
	// safe.
	ts.obs.BeginNode(t, obs.StageSweep, node)
	for si := range nc.shards.sub {
		sh := &nc.shards.sub[si]
		var deferred []uint64
		for i, addr := range sh.buf {
			if sh.marks[i] {
				ts.stats.Remarked++
				ts.nodeRemark[node] = append(ts.nodeRemark[node], addr)
				t.Charge(c.Store)
				continue
			}
			if !ts.cfg.HelpFree {
				ts.freeNode(t, addr)
				ts.stats.NodeReclaimed[node]++
				continue
			}
			deferred = append(deferred, addr)
			t.Charge(c.Store)
		}
		if len(deferred) > 0 {
			nc.pending = append(nc.pending, freeList{addrs: deferred, home: node})
		}
	}
	ts.obs.End(t)
	ts.drainNodeLists(t, nc)
	nc.active = false
	nc.reclaimerID = -1
	ts.stats.CollectCycles += t.Cycles() - start
}

// signalPeersIn signals every other registered thread for nc's collect,
// registering a per-thread expectation so the target's handler can
// discover which collects want its scan.  The whole loop runs between
// safepoints (Signal only charges), so expectation registration and
// signal-pending bits are set atomically with respect to every
// target's handler entry — a handler snapshot can never observe the
// signal without the want.
func (ts *ThreadScan) signalPeersIn(t *simt.Thread, nc *nodeCollect) {
	ts.obs.BeginNode(t, obs.StageSignal, nc.node)
	nc.hs.Arm()
	threads := ts.sim.Threads()
	for id := range ts.registered {
		if !ts.registered[id] || id == t.ID() {
			continue
		}
		if t.Signal(threads[id], ts.cfg.Signal) {
			nc.hs.ExpectFrom(threads[id])
		}
	}
	ts.obs.End(t)
}

// scanHandlerNodes is TS-Scan under PerNode: one scan pass per handler
// run, shared by every collect whose signal the run observed.
func (ts *ThreadScan) scanHandlerNodes(t *simt.Thread) {
	h0 := t.HandlerCycles()
	// Snapshot the collects that want this thread's ack BEFORE any
	// safepoint-passing work (helpFree frees, which yields): the
	// snapshot defines this scan epoch.  A collect arming mid-handler
	// keeps its pending signal and gets a later handler run instead.
	var wanting []*nodeCollect
	for _, nc := range ts.nc {
		if nc.active && nc.hs.Wants(t) {
			wanting = append(wanting, nc)
		}
	}
	if len(wanting) == 0 {
		// A coalesced delivery whose every collect was already
		// satisfied by an earlier epoch of ours: nothing to scan.
		ts.stats.HandlerCycles += t.HandlerCycles() - h0
		return
	}
	node := -1
	if len(wanting) == 1 {
		node = wanting[0].node
	}
	ts.obs.BeginNode(t, obs.StageScan, node)
	if ts.cfg.HelpFree {
		ts.helpFreeNodes(t)
	}
	ts.helpSortNodes(t, wanting)
	ts.scanThreadMulti(t, wanting)
	// ACK each wanting collect: one visible flag write per reclaimer.
	c := ts.costs()
	for _, nc := range wanting {
		t.Charge(c.Store + c.Fence)
		nc.hs.AckFrom(t)
	}
	ts.obs.End(t)
	ts.stats.HandlerCycles += t.HandlerCycles() - h0
}

// scanThreadMulti scans t's registers, stack, and registered heap
// blocks once, probing every collect in ncs per word — the shared scan
// epoch.  The word mask and heap range check are charged once per
// word; shard routing and lookup are charged per probed group, exactly
// as the serial pipeline charges them for its single group.
func (ts *ThreadScan) scanThreadMulti(t *simt.Thread, ncs []*nodeCollect) {
	ts.stats.ScannedThreads++
	c := ts.costs()
	words := 0
	scanWord := func(w uint64) {
		words++
		t.Charge(2 * c.Step) // mask + range check
		//tslint:ignore tagptr scanned-word pointer masking per paper §4.2, not a ring-entry tag
		p := w &^ 7
		if p == 0 || !ts.sim.Heap().Contains(p) {
			return
		}
		for _, nc := range ncs {
			ts.probeAddr(t, nc.shards, nc.reclaimerID, p)
		}
	}
	t.ScanRoots(scanWord)
	for _, blk := range ts.perThread[t.ID()].heapBlocks {
		for i := uint64(0); i < blk[1]; i++ {
			scanWord(t.LoadAddr(blk[0] + i*8))
		}
	}
	ts.stats.ScannedWords += uint64(words)
}

// helpSortNodes claims a fair share of each wanting collect's
// unprepared shards, gated on locality: a remote scanner leaves sort
// work to the collecting node unless that node's collect is past the
// steal threshold.  Shard
// groups here are single-home, so the affinity two-pass degenerates to
// index order.
func (ts *ThreadScan) helpSortNodes(t *simt.Thread, wanting []*nodeCollect) {
	my := t.Node()
	for _, nc := range wanting {
		if nc.shards.k() <= 1 {
			continue
		}
		if my != nc.node && nc.shards.total < ts.stealAt {
			continue
		}
		share := len(nc.shards.sub)/(nc.hs.Need()+1) + 1
		for i := range nc.shards.sub {
			if share == 0 {
				break
			}
			sh := &nc.shards.sub[i]
			if !sh.ready && len(sh.buf) > 0 {
				ts.prepareShardIn(t, nc.shards, nc.reclaimerID, i)
				ts.countClaim(t, sh.home)
				share--
			}
		}
	}
}

// helpFreeNodes frees one HelpFreeChunk-bounded unit from the
// per-node claimable sweep lists: the scanner's own node's lists
// first, then — only past the steal threshold — an overloaded remote
// node's, counting the steal.  Claiming pops a whole list before any
// free (FreeAddr passes safepoints), exactly like the classic
// helpFree.
func (ts *ThreadScan) helpFreeNodes(t *simt.Thread) {
	any := false
	for _, nc := range ts.nc {
		if len(nc.help) > 0 {
			any = true
			break
		}
	}
	if !any {
		return
	}
	ts.obs.Begin(t, obs.StageFree)
	defer ts.obs.End(t)
	n := ts.cfg.HelpFreeChunk
	my := t.Node()
	for pass := 0; pass < 2 && n > 0; pass++ {
		for _, nc := range ts.nc {
			if n == 0 {
				break
			}
			local := nc.node == my
			if pass == 0 && !local {
				continue
			}
			if pass == 1 && (local || ts.backlogOf(nc) < ts.stealAt) {
				continue
			}
			n = ts.helpFreeLists(t, nc, n, !local)
		}
	}
}

// helpFreeLists frees up to budget addresses from nc's claimable
// lists, returning the unused budget.  stolen marks first claims as
// cross-node sweep steals.
func (ts *ThreadScan) helpFreeLists(t *simt.Thread, nc *nodeCollect, budget int, stolen bool) int {
	for budget > 0 && len(nc.help) > 0 {
		// Pop the whole list before freeing: FreeAddr passes
		// safepoints, and no other helper — or the phase-end drain —
		// may see these entries.
		pick := len(nc.help) - 1
		list := nc.help[pick]
		nc.help = nc.help[:pick]
		if !list.claimed {
			list.claimed = true
			ts.countClaim(t, list.home)
			if stolen {
				ts.stats.StolenSweeps++
			}
		}
		take := budget
		if take > len(list.addrs) {
			take = len(list.addrs)
		}
		for i := 0; i < take; i++ {
			addr := list.addrs[len(list.addrs)-1]
			list.addrs = list.addrs[:len(list.addrs)-1]
			if ts.nodes > 1 {
				ts.noteSweep(t, addr)
				t.Touch(addr)
			}
			t.FreeAddr(addr)
			ts.stats.HelpFreed++
			ts.stats.NodeReclaimed[list.home]++
		}
		budget -= take
		if len(list.addrs) > 0 {
			nc.help = append(nc.help, list)
		} else {
			ts.stats.HelpSweptShards++
		}
	}
	return budget
}

// drainNodeLists is the phase-end mop-up for nc: a home-node
// reclaimer (or any teardown flush) finishes whatever no scanner
// claimed, bounding deferral to one phase; a remote (stealing)
// reclaimer below the steal threshold re-defers instead, leaving the
// frees to the home node's scanners.
func (ts *ThreadScan) drainNodeLists(t *simt.Thread, nc *nodeCollect) {
	if len(nc.help) == 0 {
		return
	}
	my := t.Node()
	remote := nc.node != my && !ts.flushing(t)
	if remote && ts.backlogOf(nc) < ts.stealAt {
		nc.pending = append(nc.pending, nc.help...)
		nc.help = nc.help[:0]
		return
	}
	// Steal the whole slice before freeing (freeNode passes
	// safepoints, during which scanners' helpFree pops entries).
	lists := nc.help
	nc.help = nil
	ts.obs.BeginNode(t, obs.StageFree, nc.node)
	defer ts.obs.End(t)
	for _, list := range lists {
		if remote {
			ts.stats.StolenSweeps++
		}
		for _, addr := range list.addrs {
			ts.freeNode(t, addr)
			ts.stats.NodeReclaimed[list.home]++
		}
	}
}
