// Package core implements ThreadScan (Alistarh, Leiserson, Matveev,
// Shavit — SPAA'15): automatic concurrent memory reclamation by
// signal-driven stack scanning.
//
// The protocol, exactly as in the paper's Algorithm 1 plus the §4.2
// implementation details:
//
//   - Each thread owns a bounded delete buffer (an SPSC ring).  Free
//     appends the retired node; the node must already be unlinked
//     (Assumption 1.1).
//   - When a thread's buffer is full it becomes the reclaimer: it takes
//     the reclamation lock, aggregates every thread's buffer into a
//     sorted master buffer, and signals all other threads (TS-Collect).
//   - Each signaled thread — in its signal handler, wherever it happens
//     to be, including blocked in a lock or spinning in application
//     code — scans its registers and stack word by word, binary-searches
//     each word in the master buffer, marks hits, and ACKs (TS-Scan).
//   - The reclaimer scans itself, waits for all ACKs, then frees every
//     unmarked node.  Marked nodes may still be referenced and are
//     re-buffered for the next phase.
//
// The §4.3 extension (AddHeapBlock/RemoveHeapBlock) lets a thread
// register private heap regions to be scanned along with its stack.
//
// Beyond the paper, TS-Collect scales out as a sharded, scanner-assisted
// pipeline: Config.Shards splits the master buffer into K address-sharded
// sub-buffers (see shard.go) that are sorted and swept as independently
// claimable units, Config.CollectWatermark adds an adaptive global
// trigger so a collect can start before any single ring fills, and the
// §7 future-work idea — sharing reclamation work with scanners — grows
// from the original HelpFree chunk queue into a general help protocol:
// scanners claim whole shards to sort before scanning, and (under
// HelpFree) claim whole per-shard free lists to sweep.  With Shards <= 1
// and the watermark off, the protocol is bit-identical in virtual-cycle
// charges to the paper's serial collect.
//
// On a multi-node topology, Config.PerNode restructures the pipeline
// once more: retirements are routed to per-node sub-buffers at Free
// time (pernode.go), and each node runs its own reclaimer over its own
// shard group through its own collect slot (overlap.go), with a
// cross-node handshake only at the scan barrier.  Collects on different
// nodes overlap; Config.SerializeCollects shares one slot among all
// nodes, so the same pipeline runs one collect at a time.
package core

import (
	"fmt"

	"threadscan/internal/obs"
	"threadscan/internal/simt"
)

// DefaultBufferSize is the per-thread delete buffer capacity used in the
// paper's evaluation ("configured to store up to 1024 pointers per
// thread", §6).
const DefaultBufferSize = 1024

// LookupKind selects how TS-Scan tests a stack word for membership in
// the master buffer.  The paper sorts and binary-searches (§4.1); the
// alternatives exist for the A3 ablation.
type LookupKind int

const (
	// LookupBinary sorts the master buffer and binary-searches each
	// word (the paper's design).
	LookupBinary LookupKind = iota
	// LookupLinear scans the master buffer linearly per word.
	LookupLinear
	// LookupHash builds a hash set over the master buffer.
	LookupHash
)

func (k LookupKind) String() string {
	switch k {
	case LookupBinary:
		return "binary"
	case LookupLinear:
		return "linear"
	case LookupHash:
		return "hash"
	default:
		return fmt.Sprintf("LookupKind(%d)", int(k))
	}
}

// ParseLookup maps a lookup name to its LookupKind.  The empty string
// is LookupBinary, the paper's design.
func ParseLookup(s string) (LookupKind, error) {
	for _, k := range []LookupKind{LookupBinary, LookupLinear, LookupHash} {
		if s == k.String() {
			return k, nil
		}
	}
	if s == "" {
		return LookupBinary, nil
	}
	return 0, fmt.Errorf("core: unknown lookup %q (want binary, linear, or hash)", s)
}

// ClaimPolicy selects the order in which threads claim shard work
// units — sort claims in the scan handler, sweep-list claims under
// HelpFree — when the simulated machine has more than one NUMA node.
type ClaimPolicy int

const (
	// ClaimAffinity (the default) claims local work first: shards
	// homed on the claiming thread's node, then remote shards as a
	// work-stealing fallback so no unit waits on an idle node and the
	// help protocol keeps its wait-free-ish progress.
	ClaimAffinity ClaimPolicy = iota
	// ClaimRoundRobin ignores topology and claims in index order —
	// the pre-topology behaviour, kept as the A6 ablation's control.
	ClaimRoundRobin
)

func (p ClaimPolicy) String() string {
	switch p {
	case ClaimAffinity:
		return "affinity"
	case ClaimRoundRobin:
		return "rr"
	default:
		return fmt.Sprintf("ClaimPolicy(%d)", int(p))
	}
}

// Config parameterizes a ThreadScan instance.
type Config struct {
	// BufferSize is the per-thread delete buffer capacity.  Defaults to
	// DefaultBufferSize (1024); the paper tunes 4096 for the
	// oversubscribed hash table.
	BufferSize int

	// Signal is the simulated signal number used for scan requests.
	Signal simt.SigNum

	// Lookup selects the scan membership structure (ablation A3).
	Lookup LookupKind

	// Shards is K, the number of address-sharded master sub-buffers the
	// collect pipeline uses (rounded up to a power of two).  1 (the
	// default) reproduces the paper's single serial master buffer
	// exactly; larger K shrinks per-probe search depth and lets
	// scanners claim shards to sort inside their handlers.
	Shards int

	// CollectWatermark, when positive, triggers a collect as soon as
	// the *global* buffered count (all rings plus orphans) reaches the
	// watermark, instead of only when one thread's own ring fills.
	// Under skewed retirement this spreads reclaimer duty across
	// threads; 0 (the default) disables the trigger.
	CollectWatermark int

	// HelpFree enables the paper's §7 future-work extension: unmarked
	// nodes are queued and freed by the *next* phase's scanners instead
	// of all by the reclaimer, trading reclaimer latency for handler
	// work.  With Shards <= 1 scanners drain chunks of one queue; with
	// sharding they claim per-shard lists, chunk-bounded the same way.
	HelpFree bool

	// HelpFreeChunk caps how many queued nodes one scanner frees per
	// TS-Scan when HelpFree is on.  Defaults to 128.
	HelpFreeChunk int

	// Claim is the shard-claim order under a multi-node topology.
	// Irrelevant (and free of any effect on cycle charges) when the
	// simulation has a single node.
	Claim ClaimPolicy

	// PerNode enables per-node retirement routing and node-local
	// reclaimers (see pernode.go).  Free tags each retired address with
	// the retiring thread's NUMA node; a full ring is drained by its
	// *owner* into per-node sub-buffers (ring → home-node sub-buffer),
	// and each node runs its own collects over its own single-node
	// shard group — the only cross-node synchronization is the scan
	// barrier handshake.  Requires a multi-node topology (silently
	// inert when the machine is flat, keeping the flat model
	// bit-identical) and at most 8 nodes (the tag rides in the ring
	// entry's low three bits).
	PerNode bool

	// StealThreshold is the per-node backlog (in buffered addresses) at
	// which other nodes start stealing reclamation work under PerNode —
	// the rebalancing story for one-node-retires-everything skew.
	// Below it, sort and sweep work stays strictly node-local (remote
	// scanners scan but do not claim); above it, remote threads collect
	// for the overloaded node, help-sort its shards, and sweep its
	// deferred lists, trading remote fills for bounded memory.
	// Defaults to 4x the largest per-node collect trigger (which is
	// CollectWatermark/nodes when the watermark is set, else
	// BufferSize x the node's core count).
	StealThreshold int

	// SerializeCollects makes every node's collect slot one shared
	// slot, so at most one PerNode collect is in flight machine-wide —
	// the paper's one-reclaimer-at-a-time rule, kept as the A9
	// ablation's control.  The pipeline is otherwise the same (see
	// overlap.go): each node keeps its own handshake, shard group and
	// sweep lists.  By default (false) each node has its own slot and
	// collects on different nodes overlap.  Irrelevant when PerNode is
	// off.
	SerializeCollects bool

	// Obs, when non-nil, records collect-lifecycle spans (trigger,
	// signal broadcast, scan, handshake wait, shard sort, sweep, free)
	// against the recorder.  Recording never charges virtual cycles, so
	// attaching a recorder cannot change any simulation outcome; nil
	// (the default) makes every recording site a no-op.
	Obs *obs.Recorder
}

func (c *Config) fill() {
	if c.BufferSize <= 0 {
		c.BufferSize = DefaultBufferSize
	}
	if c.HelpFreeChunk <= 0 {
		c.HelpFreeChunk = 128
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
}

// Stats aggregates protocol activity.
type Stats struct {
	Frees           uint64 // nodes handed to Free
	Collects        uint64 // reclamation phases
	AvoidedCollects uint64 // buffer drained while waiting for the lock
	Reclaimed       uint64 // nodes freed to the allocator
	Remarked        uint64 // nodes found referenced, re-buffered
	ScannedWords    uint64 // stack+register+heap-block words examined
	ScannedThreads  uint64 // TS-Scan executions (incl. reclaimer's own)
	HelpFreed       uint64 // nodes freed by scanners (HelpFree mode)
	MaxMaster       int    // largest master buffer seen

	DoubleRetires     uint64 // duplicate retires of one address absorbed by dedup
	WatermarkCollects uint64 // collects triggered by the global watermark
	ShardsSorted      uint64 // shard prepare passes (== Collects when K == 1)
	HelpSortedShards  uint64 // shards prepared by scanners, not the reclaimer
	HelpSweptShards   uint64 // per-shard free lists claimed by scanners

	// Claim locality under a multi-node topology (zero when flat).
	// Every claim of a shard work unit — a prepare (sort) claim or a
	// HelpFree sweep-list claim — counts as local when the claiming
	// thread's node matches the shard's home, else remote.
	LocalShardClaims  uint64
	RemoteShardClaims uint64

	// SweepRemoteFills counts sweep-side frees (reclaimer sweeps, drain
	// mop-ups, and scanner help-frees) that touched a line homed on a
	// *different* node than the freeing thread — the cross-socket
	// traffic per-node routing exists to eliminate.  Zero on the flat
	// machine; with PerNode on and an affinity claim order it is zero
	// by construction on pinned workloads.  Teardown drains (FlushAll)
	// are excluded: flushing every node from one thread is a one-time
	// cross-node sweep by design, not a steady-state cost.
	SweepRemoteFills uint64

	// Per-node reclaimer accounting (PerNode mode only; nil otherwise).
	// NodeCollects[n] counts collect phases run over node n's shard
	// group; NodeReclaimed[n] counts nodes freed out of node-n-homed
	// work units (by any thread).
	NodeCollects  []uint64
	NodeReclaimed []uint64

	// Steal accounting under PerNode: collects run for a node by a
	// thread of another node, and sweep lists drained cross-node, both
	// gated by Config.StealThreshold.  A steal also requires the target
	// node's collect slot to be free (TryLock), so a stolen collect never
	// waits for, or runs beside, that node's own reclaimer.  Under
	// SerializeCollects the slot is shared, so a steal happens only
	// while no collect is in flight anywhere.
	StolenCollects uint64
	StolenSweeps   uint64

	// OverlappedCollects counts collect phases that began while at
	// least one other node's collect was already in flight — the
	// concurrency the per-node collect slots exist to admit.  Always
	// zero under SerializeCollects (one shared slot) and in classic mode.
	OverlappedCollects uint64

	HandlerCycles int64 // virtual cycles spent inside scan handlers
	CollectCycles int64 // virtual cycles spent inside TS-Collect
}

// ThreadScan is one reclamation domain shared by all threads of a
// simulation.  Create it with New before Sim.Run; it hooks thread
// start/exit and installs the scan signal handler.
type ThreadScan struct {
	sim *simt.Sim
	cfg Config
	obs *obs.Recorder // == cfg.Obs; nil-safe on every call

	lock *simt.Mutex // at most one reclaimer (paper §4.2)

	perThread  []*tsThread
	registered []bool

	// Collect state (valid while lock is held).
	shards      *shardSet
	scratch     []uint64        // ring-drain staging
	hs          *simt.Handshake // the scan barrier (ACK handshake)
	reclaimerID int             // thread driving the current collect (help attribution)

	// Per-node reclamation state (PerNode mode; see pernode.go).
	// nodeBuf[n] is node n's home sub-buffer — addresses routed there
	// at Free time, single-node by construction.  nodeRemark[n] holds
	// node n's re-buffered marked (still-referenced) nodes; like the
	// classic path's ringCount exclusion, they do not count toward the
	// collect trigger, or pinned garbage would arm it permanently.
	perNode     bool
	nodeBuf     [][]uint64
	nodeRemark  [][]uint64
	nodeTrigger []int // per-node sub-buffer size that triggers a collect
	stealAt     int   // per-node backlog at which remote stealing engages

	// Per-node collect pipelines (see overlap.go).  nc[n] is node n's
	// admission slot, scan handshake, shard group, and sweep lists; the
	// machine-wide lock above then guards only thread registration.
	// slots lists each distinct admission mutex once, in node order:
	// one per node, or the single shared one under SerializeCollects.
	nc    []*nodeCollect
	slots []*simt.Mutex

	// ringCount approximates the number of nodes buffered since the
	// last collect began (fresh retirement pressure) for the watermark
	// trigger; a real implementation would keep it in a relaxed atomic.
	// Remarked re-buffers deliberately do not count: nodes pinned by
	// live references would otherwise hold the count above the
	// watermark and turn every subsequent Free into a futile collect.
	ringCount int

	// nodes caches sim.Nodes(); 1 disables every topology code path.
	nodes int

	orphans []uint64 // buffered nodes of exited threads
	// orphanHome attributes each orphan to the NUMA node of the thread
	// that parked it, in lockstep with orphans.  Nil when flat.
	orphanHome []int8

	// HelpFree state.  pendingFree/helpQueue is the classic single
	// chunked queue (Shards <= 1); pendingShards/helpShards hold whole
	// per-shard free lists — each tagged with its shard's home node —
	// that scanners claim under the sharded pipeline.
	pendingFree   []uint64
	helpQueue     []uint64
	pendingShards []freeList
	helpShards    []freeList

	stats Stats
}

// freeList is one claimable sweep unit: the unmarked nodes of one
// shard, tagged with the shard's home node so claimers can prefer
// sweeping locally-homed lines.  claimed marks that the unit has been
// counted in the claim-locality stats, so a chunk-bounded remainder
// re-appended for the next helper is not counted again.
type freeList struct {
	addrs   []uint64
	home    int
	claimed bool
}

// tsThread is the per-thread state.
type tsThread struct {
	ring       *Ring
	heapBlocks [][2]uint64 // {startAddr, words} private regions (§4.3)
	inFlush    bool        // inside FlushAll (this thread's teardown sweeps skip steal/fill stats)
}

// New creates a ThreadScan domain bound to sim and installs its hooks.
// Call before sim.Run.
func New(sim *simt.Sim, cfg Config) *ThreadScan {
	cfg.fill()
	ts := &ThreadScan{
		sim:    sim,
		cfg:    cfg,
		obs:    cfg.Obs,
		lock:   sim.NewMutex("threadscan.reclaim"),
		shards: newShardSet(cfg.Shards, sim.Nodes()),
		hs:     sim.NewHandshake("threadscan.scan"),
		nodes:  sim.Nodes(),
	}
	if cfg.PerNode && ts.nodes > 1 {
		if ts.nodes > MaxRoutedNodes {
			panic(fmt.Sprintf("core: PerNode routing supports at most %d nodes (node tag rides in the ring entry's low bits), got %d",
				MaxRoutedNodes, ts.nodes))
		}
		ts.perNode = true
		ts.nodeBuf = make([][]uint64, ts.nodes)
		ts.nodeRemark = make([][]uint64, ts.nodes)
		// One reclaimer per node needs one trigger per node.  With the
		// watermark set, the global threshold splits evenly across
		// nodes; otherwise the default matches the classic cadence —
		// a node collects once its threads (approximated by its cores)
		// have each buffered about one ring's worth.
		ts.nodeTrigger = make([]int, ts.nodes)
		maxTrigger := 1
		for n := range ts.nodeTrigger {
			tr := cfg.CollectWatermark / ts.nodes
			if cfg.CollectWatermark <= 0 {
				lo, hi := sim.NodeCores(n)
				tr = cfg.BufferSize * (hi - lo)
			}
			if tr < 1 {
				tr = 1
			}
			ts.nodeTrigger[n] = tr
			if tr > maxTrigger {
				maxTrigger = tr
			}
		}
		ts.stealAt = cfg.StealThreshold
		if ts.stealAt <= 0 {
			ts.stealAt = 4 * maxTrigger
		}
		ts.stats.NodeCollects = make([]uint64, ts.nodes)
		ts.stats.NodeReclaimed = make([]uint64, ts.nodes)
		var shared *simt.Mutex
		if cfg.SerializeCollects {
			shared = sim.NewMutex("threadscan.reclaim.nodes")
			ts.slots = []*simt.Mutex{shared}
		}
		ts.nc = make([]*nodeCollect, ts.nodes)
		for n := range ts.nc {
			lock := shared
			if lock == nil {
				lock = sim.NewMutex(fmt.Sprintf("threadscan.reclaim.n%d", n))
				ts.slots = append(ts.slots, lock)
			}
			ts.nc[n] = &nodeCollect{
				node:        n,
				lock:        lock,
				hs:          sim.NewHandshake(fmt.Sprintf("threadscan.scan.n%d", n)),
				shards:      newShardSet(cfg.Shards, ts.nodes),
				reclaimerID: -1,
			}
		}
	}
	sim.SetSignalHandler(cfg.Signal, ts.scanHandler)
	sim.OnThreadStart(ts.threadStart)
	sim.OnThreadExit(ts.threadExit)
	return ts
}

// Stats returns a snapshot of protocol counters.  The per-node slices
// are copied so the snapshot stays stable while collects continue.
func (ts *ThreadScan) Stats() Stats {
	st := ts.stats
	st.NodeCollects = append([]uint64(nil), ts.stats.NodeCollects...)
	st.NodeReclaimed = append([]uint64(nil), ts.stats.NodeReclaimed...)
	return st
}

// Unreclaimed returns how many retired nodes are not yet resolved:
// frees minus nodes reclaimed, help-freed, or absorbed as double
// retires.  It reads the counters in place, unlike Stats, so per-retire
// callers pay no copy.
func (ts *ThreadScan) Unreclaimed() uint64 {
	st := &ts.stats
	return st.Frees - (st.Reclaimed + st.HelpFreed + st.DoubleRetires)
}

// PerNode reports whether per-node retirement routing is active (the
// config asked for it and the machine has more than one node).
func (ts *ThreadScan) PerNode() bool { return ts.perNode }

// BufferSize returns the per-thread delete buffer capacity.
func (ts *ThreadScan) BufferSize() int { return ts.cfg.BufferSize }

// Shards returns the collect pipeline's shard count K.
func (ts *ThreadScan) Shards() int { return ts.shards.k() }

// threadStart registers a thread with the domain (the analog of the
// paper's pthread_create hook).
func (ts *ThreadScan) threadStart(t *simt.Thread) {
	ts.lock.Lock(t)
	id := t.ID()
	for len(ts.perThread) <= id {
		ts.perThread = append(ts.perThread, nil)
		ts.registered = append(ts.registered, false)
	}
	ts.perThread[id] = &tsThread{ring: NewRing(ts.cfg.BufferSize)}
	ts.registered[id] = true
	ts.lock.Unlock(t)
}

// threadExit deregisters a thread, moving its unprocessed buffer to the
// orphan list so its nodes are still reclaimed by future collects.
// ringCount is unchanged: orphans stay part of the global buffered
// count.
func (ts *ThreadScan) threadExit(t *simt.Thread) {
	ts.lock.Lock(t)
	// Under PerNode an in-flight collect's scan barrier may count this
	// thread.  Hold every collect slot (each distinct mutex once, since
	// none is reentrant; ascending — the one global lock order) so no
	// phase is mid-handshake when we vanish; the waits are
	// interruptible, so pending scan requests are still answered — and
	// acked — from right here, and by the time all slots are held no
	// handshake wants us.  Classic mode has no slots.
	for _, slot := range ts.slots {
		slot.Lock(t)
	}
	id := t.ID()
	ts.registered[id] = false
	if ts.perNode {
		// Routed mode has no orphan list: the exiting thread's buffered
		// entries carry their node tags, so they drain straight into the
		// per-node sub-buffers they were destined for (routeRing charges
		// the copy).
		ts.routeRing(t, ts.perThread[id])
		for i := len(ts.slots) - 1; i >= 0; i-- {
			ts.slots[i].Unlock(t)
		}
		ts.lock.Unlock(t)
		return
	}
	var n int
	ts.orphans, n = ts.perThread[id].ring.Drain(ts.orphans)
	if ts.nodes > 1 {
		node := int8(t.Node())
		for i := 0; i < n; i++ {
			ts.orphanHome = append(ts.orphanHome, node)
		}
	}
	t.Charge(int64(n) * ts.costs().Load)
	ts.lock.Unlock(t)
}

// Free is the paper's free(): hand an *unlinked* node to the
// reclamation domain.  The node must be unreachable from shared memory
// (Assumption 1.1); ThreadScan decides when it is safe to deallocate.
// When the calling thread's buffer is full — or, with the watermark
// trigger enabled, when the global buffered count crosses the
// watermark — Free triggers TS-Collect and does not return until the
// phase completes.
func (ts *ThreadScan) Free(t *simt.Thread, addr uint64) {
	addr &^= 7 // tolerate mark bits; the buffer stores node bases
	c := ts.costs()
	t.Charge(c.Store + c.Step)
	ts.stats.Frees++
	tt := ts.perThread[t.ID()]
	if ts.perNode {
		ts.freeRouted(t, tt, addr)
		return
	}
	if tt.ring.Push(addr) {
		ts.ringCount++
		if ts.cfg.CollectWatermark > 0 {
			t.Charge(c.Load) // read the shared buffered-count estimate
			if ts.ringCount >= ts.cfg.CollectWatermark {
				ts.lock.Lock(t)
				if ts.ringCount >= ts.cfg.CollectWatermark {
					ts.stats.WatermarkCollects++
					ts.obs.Instant(t, obs.KindWatermark)
					ts.collect(t)
				} else {
					// Another reclaimer collected while we waited.
					ts.stats.AvoidedCollects++
				}
				ts.lock.Unlock(t)
			}
		}
		return
	}
	// Buffer full: become the reclaimer (or discover someone else just
	// drained us while we waited for the lock — paper §4.2: "a thread
	// waiting to become a reclaimer will probably discover that its
	// buffer has been drained ... and that it can go back to work").
	ts.lock.Lock(t)
	if tt.ring.Push(addr) {
		ts.ringCount++
		ts.stats.AvoidedCollects++
		ts.lock.Unlock(t)
		return
	}
	ts.obs.Instant(t, obs.KindTrigger)
	ts.collect(t)
	ts.ringCount++
	if !tt.ring.Push(addr) {
		// The collect re-buffered more marked (still-referenced) nodes
		// than the ring holds; park the newcomer with the orphans, the
		// next master buffer includes both.
		ts.parkOrphan(t, addr)
	}
	ts.lock.Unlock(t)
}

// parkOrphan appends addr to the orphan list, attributed to the NUMA
// node of the parking thread for shard-home election.
func (ts *ThreadScan) parkOrphan(t *simt.Thread, addr uint64) {
	ts.orphans = append(ts.orphans, addr)
	if ts.nodes > 1 {
		ts.orphanHome = append(ts.orphanHome, int8(t.Node()))
	}
}

// Collect forces a reclamation phase from thread t, regardless of
// buffer occupancy.  Used by tests, teardown, and the harness.  Under
// per-node routing it routes every live ring and collects each node
// with backlog (ascending node order, for determinism).
func (ts *ThreadScan) Collect(t *simt.Thread) {
	if ts.perNode {
		ts.collectForced(t)
		return
	}
	ts.lock.Lock(t)
	ts.collect(t)
	ts.lock.Unlock(t)
}

// AddHeapBlock registers a thread-private heap region to be scanned
// along with t's stack and registers (§4.3 extension).  startAddr must
// be word-aligned; length is in bytes.
func (ts *ThreadScan) AddHeapBlock(t *simt.Thread, startAddr uint64, length int) {
	if startAddr%8 != 0 {
		panic("core: AddHeapBlock start not word-aligned")
	}
	tt := ts.perThread[t.ID()]
	tt.heapBlocks = append(tt.heapBlocks, [2]uint64{startAddr, uint64((length + 7) / 8)})
	t.Charge(ts.costs().Store)
}

// RemoveHeapBlock unregisters a region previously added by AddHeapBlock.
func (ts *ThreadScan) RemoveHeapBlock(t *simt.Thread, startAddr uint64, length int) {
	tt := ts.perThread[t.ID()]
	want := [2]uint64{startAddr, uint64((length + 7) / 8)}
	for i, b := range tt.heapBlocks {
		if b == want {
			tt.heapBlocks = append(tt.heapBlocks[:i], tt.heapBlocks[i+1:]...)
			t.Charge(ts.costs().Store)
			return
		}
	}
	panic("core: RemoveHeapBlock of unregistered block")
}

// RegisteredThreads returns the number of threads currently registered
// with the domain (start-hooked but not yet exit-hooked).  After a
// simulation completes it must be zero: a nonzero count means a thread
// exited without deregistering — the leak thread-churn tests hunt for.
func (ts *ThreadScan) RegisteredThreads() int {
	n := 0
	for _, r := range ts.registered {
		if r {
			n++
		}
	}
	return n
}

// Buffered returns the number of retired-but-unreclaimed nodes across
// all buffers (diagnostics and leak accounting).
func (ts *ThreadScan) Buffered() int {
	n := len(ts.orphans) + len(ts.pendingFree) + len(ts.helpQueue)
	for _, list := range ts.pendingShards {
		n += len(list.addrs)
	}
	for _, list := range ts.helpShards {
		n += len(list.addrs)
	}
	for _, tt := range ts.perThread {
		if tt != nil {
			n += tt.ring.Len()
		}
	}
	for i := range ts.nodeBuf {
		n += len(ts.nodeBuf[i]) + len(ts.nodeRemark[i])
	}
	for _, nc := range ts.nc {
		for _, list := range nc.pending {
			n += len(list.addrs)
		}
		for _, list := range nc.help {
			n += len(list.addrs)
		}
	}
	return n
}

// FlushAll runs collect phases from thread t until no buffered nodes
// remain or progress stops (nodes still referenced by live threads).
// It returns the number of nodes still buffered.  Intended for
// teardown, after application threads have dropped their references.
func (ts *ThreadScan) FlushAll(t *simt.Thread) int {
	// Mark this thread (not the domain) as flushing: its teardown
	// sweeps are excluded from the steady-state locality stats, while
	// other threads' concurrent genuine collects keep counting.
	if tt := ts.perThread[t.ID()]; tt != nil {
		tt.inFlush = true
		defer func() { tt.inFlush = false }()
	}
	for i := 0; i < 4; i++ {
		if ts.Buffered() == 0 {
			return 0
		}
		before := ts.stats.Reclaimed + ts.stats.HelpFreed
		ts.lock.Lock(t)
		if ts.perNode {
			ts.flushNodes(t)
		} else {
			ts.collect(t)
			// collect defers this phase's unmarked nodes under HelpFree;
			// at teardown, free them immediately.
			for _, addr := range ts.pendingFree {
				ts.freeNode(t, addr)
			}
			ts.pendingFree = ts.pendingFree[:0]
			for _, list := range ts.pendingShards {
				for _, addr := range list.addrs {
					ts.freeNode(t, addr)
				}
			}
			ts.pendingShards = ts.pendingShards[:0]
		}
		ts.lock.Unlock(t)
		if ts.stats.Reclaimed+ts.stats.HelpFreed == before {
			break
		}
	}
	return ts.Buffered()
}

func (ts *ThreadScan) costs() *simt.CostModel { return ts.sim.Costs() }

// collect is TS-Collect (Algorithm 1, lines 1–16), run as a sharded
// pipeline: aggregate into K address-sharded sub-buffers, prepare
// (sort+dedup) each shard as an independently claimable unit, scan,
// sweep shard by shard.  Caller holds the reclamation lock.
func (ts *ThreadScan) collect(t *simt.Thread) {
	c := ts.costs()
	start := t.Cycles()
	ts.stats.Collects++
	ts.reclaimerID = t.ID()
	ts.obs.Begin(t, obs.StageCollect)
	defer ts.obs.End(t)

	// HelpFree: the previous phase's unmarked nodes become this phase's
	// help queue — scanners free them inside their handlers (§7:
	// "TS-Scan would then check to see whether there are any pending
	// nodes to free (from a previous iteration)").
	ts.helpQueue = append(ts.helpQueue, ts.pendingFree...)
	ts.pendingFree = ts.pendingFree[:0]
	ts.helpShards = append(ts.helpShards, ts.pendingShards...)
	ts.pendingShards = ts.pendingShards[:0]

	// Aggregate all delete buffers into the sharded master buffer
	// (§4.2's distributed-buffer design).  K=1 drains straight into
	// the single shard — no routing, no staging copy on the hot path.
	// Each drained address votes for the NUMA node of the thread that
	// buffered it (the ring owner's node at drain time — exact for
	// pinned threads, the retirer's last node otherwise), electing
	// every shard's home for the affinity-first claim order.
	ts.shards.reset()
	k1 := ts.shards.k() == 1
	multiNode := ts.nodes > 1
	threads := ts.sim.Threads()
	for id, tt := range ts.perThread {
		if tt == nil || !ts.registered[id] {
			continue
		}
		node := 0
		if multiNode {
			node = threads[id].Node()
		}
		var n int
		if k1 {
			sh := &ts.shards.sub[0]
			sh.buf, n = tt.ring.Drain(sh.buf)
			ts.shards.total += n
			if multiNode {
				sh.votes[node] += uint32(n)
			}
		} else {
			ts.scratch, n = tt.ring.Drain(ts.scratch[:0])
			for _, a := range ts.scratch {
				ts.shards.add(a, node)
			}
		}
		t.Charge(int64(n) * (c.Load + c.Step))
	}
	if len(ts.orphans) > 0 {
		if k1 {
			sh := &ts.shards.sub[0]
			sh.buf = append(sh.buf, ts.orphans...)
			ts.shards.total += len(ts.orphans)
			if multiNode {
				for _, h := range ts.orphanHome {
					sh.votes[h]++
				}
			}
		} else {
			for i, a := range ts.orphans {
				node := 0
				if multiNode {
					node = int(ts.orphanHome[i])
				}
				ts.shards.add(a, node)
			}
		}
		t.Charge(int64(len(ts.orphans)) * (c.Load + c.Step))
		ts.orphans = ts.orphans[:0]
		ts.orphanHome = ts.orphanHome[:0]
	}
	ts.shards.computeHomes()
	ts.ringCount = 0
	if ts.shards.total == 0 {
		// Nothing new to scan, but outstanding HelpFree work deferred
		// by the previous phase must still be finished — teardown
		// reaches here with empty rings and a populated help queue,
		// which would otherwise leak permanently.
		ts.drainHelpQueue(t)
		ts.stats.CollectCycles += t.Cycles() - start
		return
	}
	if ts.shards.total > ts.stats.MaxMaster {
		ts.stats.MaxMaster = ts.shards.total
	}

	if ts.shards.k() == 1 {
		// The paper's serial order: sort (Algorithm 1 line 2), then
		// signal (lines 3–5).
		ts.prepareShard(t, 0)
		ts.signalPeers(t)
	} else {
		// Pipelined order: signal first, sort lazily.  Every probe
		// (ours and the scanners') prepares its target shard on demand,
		// and each handler additionally claims a fair share of shards
		// to sort, so the sort work the paper serializes on the
		// reclaimer overlaps the scan phase across all signaled
		// threads.
		ts.signalPeers(t)
	}

	// Scan our own stack and registers (line 7).
	ts.scanThread(t)

	// Wait for all ACKs (line 9) — the scan barrier.  The wait burns
	// reclaimer cycles: the cost Figure 4 charges to oversubscription.
	ts.obs.Begin(t, obs.StageHandshake)
	ts.hs.Await(t)
	ts.obs.End(t)

	// Prepare whatever shards no probe touched and no scanner claimed
	// (their nodes are unmarked by definition — nothing probed them —
	// but the sweep still needs them sorted, deduped, and mark-sized).
	if ts.shards.k() > 1 {
		for i := range ts.shards.sub {
			ts.prepareShard(t, i)
		}
	}

	// Sweep (lines 11–15): free unmarked nodes, re-buffer marked ones.
	// Under HelpFree, unmarked nodes are deferred to the next phase's
	// scanners instead of being freed here — as one chunked queue when
	// unsharded, as whole claimable per-shard lists when sharded.
	tt := ts.perThread[t.ID()]
	ts.obs.Begin(t, obs.StageSweep)
	for si := range ts.shards.sub {
		sh := &ts.shards.sub[si]
		var deferred []uint64
		for i, addr := range sh.buf {
			if sh.marks[i] {
				ts.stats.Remarked++
				if !tt.ring.Push(addr) {
					ts.parkOrphan(t, addr)
				}
				t.Charge(c.Store)
				continue
			}
			if !ts.cfg.HelpFree {
				ts.freeNode(t, addr)
				continue
			}
			if ts.shards.k() == 1 {
				ts.pendingFree = append(ts.pendingFree, addr)
			} else {
				deferred = append(deferred, addr)
			}
			t.Charge(c.Store)
		}
		if len(deferred) > 0 {
			ts.pendingShards = append(ts.pendingShards, freeList{addrs: deferred, home: sh.home})
		}
	}
	ts.obs.End(t)
	// Whatever this phase's scanners did not help-free, the reclaimer
	// finishes, bounding deferral to one phase.
	ts.drainHelpQueue(t)
	ts.stats.CollectCycles += t.Cycles() - start
}

// signalPeers signals every other registered thread (Algorithm 1 lines
// 3–5).  Exited threads deregister under the lock, so everyone signaled
// will ACK.
func (ts *ThreadScan) signalPeers(t *simt.Thread) {
	ts.obs.Begin(t, obs.StageSignal)
	ts.hs.Arm()
	threads := ts.sim.Threads()
	for id := range ts.registered {
		if !ts.registered[id] || id == t.ID() {
			continue
		}
		if t.Signal(threads[id], ts.cfg.Signal) {
			ts.hs.Expect(1)
		}
	}
	ts.obs.End(t)
}

// prepareShard makes shard i probe-ready — sort+dedup (binary/linear)
// or hash-set build (hash), plus the mark bitmap — charging the paper's
// cost model to the preparing thread, which under sharding may be a
// scanner inside its handler rather than the reclaimer.  The prepare is
// atomic between safepoints, so a shard is claimed and prepared by
// exactly one thread.  Reports whether this call did the work.
func (ts *ThreadScan) prepareShard(t *simt.Thread, i int) bool {
	return ts.prepareShardIn(t, ts.shards, ts.reclaimerID, i)
}

// prepareShardIn is prepareShard over an explicit shard group: under
// concurrent collects each node's group prepares independently, and
// help attribution compares against that group's own reclaimer.
func (ts *ThreadScan) prepareShardIn(t *simt.Thread, ss *shardSet, reclaimerID, i int) bool {
	sh := &ss.sub[i]
	if sh.ready {
		return false
	}
	if len(sh.buf) == 0 {
		// Drop last collect's membership state: a stale hash entry (or
		// mark slot) must not let a probe "hit" in a now-empty shard.
		if sh.hash != nil {
			clear(sh.hash)
		}
		sh.marks = sh.marks[:0]
		sh.ready = true
		return false
	}
	ts.obs.Begin(t, obs.StageSort)
	c := ts.costs()
	n := len(sh.buf)
	switch ts.cfg.Lookup {
	case LookupBinary, LookupLinear:
		var dups int
		sh.buf, dups = sortDedup(sh.buf)
		t.Charge(int64(n) * int64(log2ceil(n)) * 2 * c.Step)
		if dups > 0 {
			ts.stats.DoubleRetires += uint64(dups)
			t.Charge(int64(dups) * c.Step)
		}
	case LookupHash:
		if sh.hash == nil {
			sh.hash = make(map[uint64]int, n)
		} else {
			clear(sh.hash)
		}
		kept := sh.buf[:0]
		for _, a := range sh.buf {
			if _, dup := sh.hash[a]; dup {
				ts.stats.DoubleRetires++
				t.Charge(c.Step)
				continue
			}
			sh.hash[a] = len(kept)
			kept = append(kept, a)
		}
		sh.buf = kept
		t.Charge(int64(n) * (c.Store + 2*c.Step))
	}
	if cap(sh.marks) < len(sh.buf) {
		sh.marks = make([]bool, len(sh.buf))
	} else {
		sh.marks = sh.marks[:len(sh.buf)]
		for j := range sh.marks {
			sh.marks[j] = false
		}
	}
	sh.ready = true
	ts.stats.ShardsSorted++
	if t.ID() != reclaimerID {
		ts.stats.HelpSortedShards++
	}
	ts.obs.End(t)
	return true
}

// countClaim records the locality of one *voluntary* help-protocol
// claim — a helpSort prepare or a helpFree sweep-list claim — against
// the claiming thread's node.  Forced prepares (probe-on-demand, the
// reclaimer's post-ACK mop-up) are not counted: the counters measure
// what the claim policy chose, not what the protocol compelled.  Pure
// bookkeeping — no cycle charge, and a no-op on the flat machine.
func (ts *ThreadScan) countClaim(t *simt.Thread, home int) {
	if ts.nodes <= 1 {
		return
	}
	if t.Node() == home {
		ts.stats.LocalShardClaims++
	} else {
		ts.stats.RemoteShardClaims++
	}
}

// freeNode returns a proven-unreferenced node to the allocator.  On a
// multi-node machine the free touches the block's line (poisoning and
// free-list relinking are stores), so sweeping a remotely-owned node
// pays the interconnect hop — the traffic the affinity-first claim
// order exists to avoid.
func (ts *ThreadScan) freeNode(t *simt.Thread, addr uint64) {
	if ts.nodes > 1 {
		ts.noteSweep(t, addr)
		t.Touch(addr)
	}
	t.FreeAddr(addr)
	ts.stats.Reclaimed++
}

// noteSweep records whether a sweep-side touch of addr will cross the
// interconnect: the line's current home is a different node than the
// freeing thread's.  Checked *before* the Touch, which migrates
// ownership.  Pure bookkeeping — no cycle charge.
func (ts *ThreadScan) noteSweep(t *simt.Thread, addr uint64) {
	if ts.flushing(t) {
		return
	}
	if h := ts.sim.LineHome(addr); h >= 0 && h != t.Node() {
		ts.stats.SweepRemoteFills++
	}
}

// flushing reports whether t is inside its own FlushAll — the teardown
// window whose deliberately cross-node sweeps stay out of the
// steady-state steal and fill statistics.
func (ts *ThreadScan) flushing(t *simt.Thread) bool {
	id := t.ID()
	return id < len(ts.perThread) && ts.perThread[id] != nil && ts.perThread[id].inFlush
}

// drainHelpQueue frees every remaining help-queue node — the chunked
// queue and any unclaimed per-shard lists.  Each is stolen in one step
// (atomic between safepoints) because freeNode passes safepoints,
// during which scanners' helpFree could otherwise pop — and double-free
// — the same entries.
func (ts *ThreadScan) drainHelpQueue(t *simt.Thread) {
	if len(ts.helpQueue) == 0 && len(ts.helpShards) == 0 {
		return
	}
	ts.obs.Begin(t, obs.StageFree)
	q := ts.helpQueue
	ts.helpQueue = nil
	for _, addr := range q {
		ts.freeNode(t, addr)
	}
	lists := ts.helpShards
	ts.helpShards = nil
	for _, list := range lists {
		for _, addr := range list.addrs {
			ts.freeNode(t, addr)
		}
	}
	ts.obs.End(t)
}

// scanHandler is TS-Scan (Algorithm 1, lines 18–26), run in the signal
// handler of every signaled thread.  Under the sharded pipeline the
// handler is also where the help protocol runs: free a unit of the
// previous phase's queue, claim an unprepared shard to sort, then scan.
func (ts *ThreadScan) scanHandler(t *simt.Thread) {
	if ts.perNode {
		ts.scanHandlerNodes(t)
		return
	}
	h0 := t.HandlerCycles()
	ts.obs.Begin(t, obs.StageScan)
	if ts.cfg.HelpFree {
		ts.helpFree(t)
	}
	if ts.shards.k() > 1 {
		ts.helpSort(t)
	}
	ts.scanThread(t)
	// ACK (line 25): a store visible to the reclaimer.
	c := ts.costs()
	t.Charge(c.Store + c.Fence)
	ts.hs.Ack(t)
	ts.obs.End(t)
	ts.stats.HandlerCycles += t.HandlerCycles() - h0
}

// helpSort claims a fair share of the unprepared shards — K divided by
// the number of scanning threads — and sorts them, sharing the sort
// work the paper serializes on the reclaimer.  Probing prepares further
// shards on demand; bounding the claim keeps one early scanner from
// hogging the whole pipeline inside a single quantum.
//
// Under ClaimAffinity on a multi-node machine the share is claimed
// local-first: shards homed on the scanner's node before remote ones,
// so sort work lands on the socket whose threads retired the
// addresses.  The remote pass is the work-stealing fallback — a
// scanner with no local work left still helps, so the protocol's
// progress guarantee is untouched; only the claim *order* changes.
func (ts *ThreadScan) helpSort(t *simt.Thread) {
	share := len(ts.shards.sub)/(ts.hs.Need()+1) + 1
	if ts.nodes > 1 && ts.cfg.Claim == ClaimAffinity {
		my := t.Node()
		for pass := 0; pass < 2; pass++ {
			local := pass == 0
			for i := range ts.shards.sub {
				if share == 0 {
					return
				}
				sh := &ts.shards.sub[i]
				if (sh.home == my) == local && !sh.ready && len(sh.buf) > 0 {
					ts.prepareShard(t, i)
					ts.countClaim(t, sh.home)
					share--
				}
			}
		}
		return
	}
	for i := range ts.shards.sub {
		if share == 0 {
			return
		}
		sh := &ts.shards.sub[i]
		if !sh.ready && len(sh.buf) > 0 {
			ts.prepareShard(t, i)
			ts.countClaim(t, sh.home)
			share--
		}
	}
}

// helpFree frees one HelpFreeChunk-bounded unit of the previous
// phase's unmarked nodes (§7 future work): from a claimed per-shard
// list under the sharded pipeline, else from the chunked queue.  Safe
// for any thread: queued nodes are already proven unreferenced.
//
// Under ClaimAffinity a scanner only claims sweep lists homed on its
// own node: freeing a node touches its line (the allocator poisons
// and relinks it), so sweeping a remote list would drag every freed
// line across the interconnect — strictly worse than leaving the list
// to a home-node scanner or to the reclaimer's end-of-phase drain,
// which finishes whatever no scanner claimed, on the same phase.
// That drain is the progress fallback; the claim policy only decides
// who sweeps sooner, never whether the memory is reclaimed.
func (ts *ThreadScan) helpFree(t *simt.Thread) {
	if len(ts.helpShards) == 0 && len(ts.helpQueue) == 0 {
		return
	}
	ts.obs.Begin(t, obs.StageFree)
	defer ts.obs.End(t)
	n := ts.cfg.HelpFreeChunk
	affinity := ts.nodes > 1 && ts.cfg.Claim == ClaimAffinity
	for n > 0 && len(ts.helpShards) > 0 {
		// Claim a whole list before freeing (FreeAddr passes
		// safepoints, and no other helper — or the reclaimer's drain —
		// may see these entries), but cap the handler's total work at
		// one chunk: an oversized remainder goes back for the next
		// helper, preserving the bounded-handler-latency trade
		// HelpFreeChunk exists for.
		pick := len(ts.helpShards) - 1
		if affinity {
			my := t.Node()
			pick = -1
			for i := len(ts.helpShards) - 1; i >= 0; i-- {
				if ts.helpShards[i].home == my {
					pick = i
					break
				}
			}
			if pick < 0 {
				break // no local list; leave remote ones to their node
			}
		}
		list := ts.helpShards[pick]
		ts.helpShards = append(ts.helpShards[:pick], ts.helpShards[pick+1:]...)
		if !list.claimed {
			list.claimed = true
			ts.countClaim(t, list.home) // once per work unit, at first claim
		}
		take := n
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
		}
		n -= take
		if len(list.addrs) > 0 {
			ts.helpShards = append(ts.helpShards, list)
		} else {
			ts.stats.HelpSweptShards++
		}
	}
	if n > len(ts.helpQueue) {
		n = len(ts.helpQueue)
	}
	for i := 0; i < n; i++ {
		// Pop before freeing: FreeAddr passes a safepoint, and another
		// scanner (or the reclaimer's drain) must not see this entry.
		addr := ts.helpQueue[len(ts.helpQueue)-1]
		ts.helpQueue = ts.helpQueue[:len(ts.helpQueue)-1]
		if ts.nodes > 1 {
			ts.noteSweep(t, addr)
			t.Touch(addr)
		}
		t.FreeAddr(addr)
		ts.stats.HelpFreed++
	}
}

// scanThread scans t's registers, stack, and registered heap blocks
// against the master buffer, marking hits.
func (ts *ThreadScan) scanThread(t *simt.Thread) {
	ts.stats.ScannedThreads++
	words := 0
	t.ScanRoots(func(w uint64) {
		words++
		ts.probe(t, w)
	})
	for _, blk := range ts.perThread[t.ID()].heapBlocks {
		for i := uint64(0); i < blk[1]; i++ {
			w := t.LoadAddr(blk[0] + i*8)
			words++
			ts.probe(t, w)
		}
	}
	ts.stats.ScannedWords += uint64(words)
}

// probe masks the word's low-order bits (§4.2 "Pointer Operations"),
// routes it to its shard, and looks it up there, marking on a hit.  If
// the shard has not been prepared yet (sharded pipeline only), the
// probing thread claims and prepares it on the spot — scan-side help.
// The three lookup structures are semantically identical; they differ
// only in cost.
func (ts *ThreadScan) probe(t *simt.Thread, w uint64) {
	c := ts.costs()
	t.Charge(2 * c.Step) // mask + range check
	//tslint:ignore tagptr scanned-word pointer masking per paper §4.2, not a ring-entry tag
	p := w &^ 7
	if p == 0 || !ts.sim.Heap().Contains(p) {
		return
	}
	ts.probeAddr(t, ts.shards, ts.reclaimerID, p)
}

// probeAddr routes an in-heap, mask-cleaned address to its shard in ss
// and looks it up there, marking on a hit.  Split from probe so a
// single scan pass can probe several nodes' shard groups per word
// (shared scan epoch under concurrent collects) while charging the
// mask + range check only once.
func (ts *ThreadScan) probeAddr(t *simt.Thread, ss *shardSet, reclaimerID int, p uint64) {
	c := ts.costs()
	si := 0
	if ss.k() > 1 {
		t.Charge(c.Step) // shard routing: multiply + shift
		si = ss.route(p)
		if !ss.sub[si].ready {
			ts.prepareShardIn(t, ss, reclaimerID, si)
		}
	}
	sh := &ss.sub[si]
	idx := -1
	switch ts.cfg.Lookup {
	case LookupBinary:
		lo, hi := 0, len(sh.buf)
		for lo < hi {
			mid := (lo + hi) / 2
			t.Charge(c.Load + c.Step)
			if sh.buf[mid] < p {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(sh.buf) && sh.buf[lo] == p {
			idx = lo
		}
	case LookupLinear:
		for i, a := range sh.buf {
			t.Charge(c.Load)
			if a == p {
				idx = i
				break
			}
		}
	case LookupHash:
		t.Charge(c.Load + 3*c.Step)
		if i, ok := sh.hash[p]; ok {
			idx = i
		}
	}
	if idx >= 0 && !sh.marks[idx] {
		sh.marks[idx] = true
		t.Charge(c.Store)
	}
}

// log2ceil returns ceil(log2(n)) for n >= 1.
func log2ceil(n int) int {
	k, v := 0, 1
	for v < n {
		v <<= 1
		k++
	}
	return k
}
