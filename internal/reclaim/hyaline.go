package reclaim

import (
	"threadscan/internal/obs"
	"threadscan/internal/simt"
)

// Hyaline implements a *robust* reclamation scheme in the spirit of
// Hyaline (Nikolaev & Ravindran, arXiv:1905.07903) and Crystalline
// (arXiv:2108.02763): retirement is wait-free, and the garbage a
// stalled thread can pin is bounded, independent of how long it stalls.
//
// Retired nodes accumulate in fixed-size batches.  Sealing a batch
// advances a global era and hands one reference to every thread whose
// operation could still reach a batch node; each such thread drops its
// reference in an O(batches-entered) adjustment pass at EndOp, and the
// batch frees the moment its count hits zero.  No thread ever waits
// for another: there is no grace period, no scan barrier, no handshake.
//
// Whether a reader "could still reach" a batch node is decided with
// interval-based era reservations (IBR, Wen et al., PPoPP'18 — the
// mechanism Crystalline layers over Hyaline's batch refcounts).  Every
// node is stamped with its allocation era (the BirthStamper hook); a
// thread publishes a reservation [lo, hi] at BeginOp and refreshes hi
// to the current era at every Protect.  A sealed batch skips any
// active reader whose hi is below the batch's minimum birth era: none
// of the batch's nodes existed at the reader's last refresh, and the
// validation step (Protect returns true) guarantees a reader only
// trusts pointers to nodes that existed before that refresh.  A
// preempted reader therefore pins only batches containing nodes born
// before it stalled — a set bounded by the live set at stall onset —
// while batches of newer garbage free underneath it.  That is the
// robustness contrast with Epoch (one odd counter stalls every grace
// period) and ThreadScan (one deaf thread stalls the scan barrier).
//
// A node never stamped — e.g. a host-allocated sentinel later retired
// through the scheme — defaults to birth era 0, the conservative "as
// old as anything" choice: its batch references every active reader.
type Hyaline struct {
	sim *simt.Sim
	cfg HyalineConfig

	era uint64 // global era; advances at every batch seal

	active  []bool       // [threadID] inside an operation
	lo      []uint64     // [threadID] reservation lower bound (BeginOp)
	hi      []uint64     // [threadID] reservation upper bound (Protect)
	cur     [][]uint64   // [threadID] partial (unsealed) batch
	entered [][]*hyBatch // [threadID] sealed batches holding our ref

	birth map[uint64]uint64 // addr -> allocation era (stamped nodes)

	stats Stats
}

// hyBatch is one sealed batch: its nodes, the minimum birth era across
// them, and the number of active readers still holding a reference.
type hyBatch struct {
	nodes    []uint64
	minBirth uint64
	refs     int
}

// HyalineConfig parameterizes the scheme.
type HyalineConfig struct {
	// Batch is the batch size sealed per reference-distribution pass.
	// Smaller batches bound pinned garbage tighter but distribute
	// references more often.  Defaults to 1024, matching the other
	// schemes' reclamation granularity.
	Batch int

	// Obs, when non-nil, records retire latency, seal passes, EndOp
	// adjustment spans, and batch-free spans.  Never charges virtual
	// cycles.
	Obs *obs.Recorder
}

func (c *HyalineConfig) fill() {
	if c.Batch <= 0 {
		c.Batch = 1024
	}
}

// NewHyaline creates a Hyaline-style robust reclamation domain bound
// to sim.
func NewHyaline(sim *simt.Sim, cfg HyalineConfig) *Hyaline {
	cfg.fill()
	h := &Hyaline{sim: sim, cfg: cfg, birth: make(map[uint64]uint64)}
	sim.OnThreadStart(h.threadStart)
	sim.OnThreadExit(h.threadExit)
	return h
}

func (h *Hyaline) threadStart(t *simt.Thread) {
	id := t.ID()
	for len(h.active) <= id {
		h.active = append(h.active, false)
		h.lo = append(h.lo, 0)
		h.hi = append(h.hi, 0)
		h.cur = append(h.cur, nil)
		h.entered = append(h.entered, nil)
	}
}

func (h *Hyaline) threadExit(t *simt.Thread) {
	id := t.ID()
	// A churned thread exits between operations; drain defensively all
	// the same.  Drop its references first (so nothing it pinned leaks),
	// then seal its partial batch so the reference distribution decides
	// that batch's fate now rather than at a teardown flush.
	h.active[id] = false
	h.adjust(t, id)
	h.seal(t, id)
}

// Name implements Scheme.
func (h *Hyaline) Name() string { return "hyaline" }

// Discipline implements Scheme: era reservations with link validation.
func (h *Hyaline) Discipline() Discipline { return DisciplineEra }

// BeginOp implements Scheme: publish the reservation [era, era].
func (h *Hyaline) BeginOp(t *simt.Thread) {
	id := t.ID()
	c := h.sim.Costs()
	h.active[id] = true
	h.lo[id] = h.era
	h.hi[id] = h.era
	t.Charge(c.Load + c.Store) // read the global era, publish the interval
}

// EndOp implements Scheme: retract the reservation, then run the
// reference-adjustment pass over every batch this operation entered.
// The retraction comes first so batches sealed during the pass's frees
// do not hand us references we would never drop.
func (h *Hyaline) EndOp(t *simt.Thread) {
	id := t.ID()
	h.active[id] = false
	t.Charge(h.sim.Costs().Store)
	h.adjust(t, id)
}

// Protect implements Scheme: refresh the reservation's upper bound to
// the current era.  Returns true — like hazard pointers the caller
// must re-validate the link before trusting the pointer, but unlike
// hazard pointers the refresh is a plain store, no fence.  Validation
// is what makes the reservation sound: a link that re-reads unchanged
// proves the node existed before the refresh, hence birth <= hi, hence
// any batch it later joins must hand this thread a reference.
func (h *Hyaline) Protect(t *simt.Thread, _ int, _ int) bool {
	id := t.ID()
	c := h.sim.Costs()
	h.stats.Protects++
	t.Charge(c.Load) // read the global era
	if h.hi[id] != h.era {
		h.hi[id] = h.era
		t.Charge(c.Store) // publish the refreshed upper bound
	}
	return true
}

// NoteAlloc implements BirthStamper: stamp the node's birth era.  The
// stamp would live in the node's header on real hardware — one store.
func (h *Hyaline) NoteAlloc(t *simt.Thread, addr uint64) {
	t.Charge(h.sim.Costs().Store)
	h.birth[addr&^7] = h.era
}

// Retire implements Scheme: append to the thread's partial batch and
// seal when full.  Wait-free — sealing distributes references and may
// free, but never blocks on another thread's progress.
func (h *Hyaline) Retire(t *simt.Thread, addr uint64) {
	id := t.ID()
	start := t.Now()
	t.Charge(h.sim.Costs().Store)
	h.stats.Retired++
	h.stats.notePeak()
	h.cur[id] = append(h.cur[id], addr&^7)
	if len(h.cur[id]) >= h.cfg.Batch {
		h.seal(t, id)
	}
	h.cfg.Obs.Observe(t, obs.StageRetire, t.Now()-start)
}

// seal closes thread owner's partial batch: advance the global era and
// hand one reference to every active reader whose reservation could
// cover a batch node.  When no reader qualifies the batch frees on the
// spot.  The steal, era bump, and reference distribution all run
// between safepoints (register/Charge work only), so the count and the
// entered-lists are consistent by construction; only the trailing
// frees pass safepoints, and by then the batch is fully published.
func (h *Hyaline) seal(t *simt.Thread, owner int) {
	nodes := h.cur[owner]
	if len(nodes) == 0 {
		return
	}
	h.cur[owner] = nil
	c := h.sim.Costs()
	h.cfg.Obs.Begin(t, obs.StageCollect)
	defer h.cfg.Obs.End(t)
	h.stats.ReclaimPasses++

	// The batch's minimum birth era; consume the stamps (the nodes are
	// dying, and their addresses may be re-stamped after reuse).
	var minBirth uint64
	for i, a := range nodes {
		t.Charge(c.Load) // read the node-header stamp
		b := h.birth[a]  // zero when never stamped: conservatively ancient
		delete(h.birth, a)
		if i == 0 || b < minBirth {
			minBirth = b
		}
	}

	h.era++
	t.Charge(c.CAS) // era advance (one shared atomic)

	b := &hyBatch{nodes: nodes, minBirth: minBirth}
	for i := range h.active {
		t.Charge(c.Load) // read the reader's published reservation
		if h.active[i] && h.hi[i] >= minBirth {
			h.entered[i] = append(h.entered[i], b)
			b.refs++
			t.Charge(c.Store) // link the batch into the reader's list
		}
	}
	if b.refs == 0 {
		h.freeBatch(t, b)
	}
}

// adjust is the EndOp/exit reference-adjustment pass: drop one
// reference from every batch the finishing operation entered, freeing
// each batch whose count reaches zero.  O(batches entered), no waits.
func (h *Hyaline) adjust(t *simt.Thread, id int) {
	batches := h.entered[id]
	if len(batches) == 0 {
		return
	}
	h.entered[id] = nil
	c := h.sim.Costs()
	start := t.Now()
	for _, b := range batches {
		t.Charge(c.CAS) // remote decrement (fetch-and-add)
		b.refs--
		if b.refs == 0 {
			h.freeBatch(t, b)
		}
	}
	h.cfg.Obs.Window(t, obs.StageAdjust, start, t.Now()-start)
}

// freeBatch returns a zero-reference batch's nodes to the allocator.
func (h *Hyaline) freeBatch(t *simt.Thread, b *hyBatch) {
	start := t.Now()
	for _, addr := range b.nodes {
		t.FreeAddr(addr)
		h.stats.Freed++
	}
	h.cfg.Obs.Window(t, obs.StageFree, start, t.Now()-start)
}

// Flush implements Scheme: seal every thread's partial batch so the
// reference distribution decides their fate now.  Batches entered by a
// still-active operation stay pending (their readers free them at
// EndOp); at teardown quiescence everything drains and a second call
// returns 0.
func (h *Hyaline) Flush(t *simt.Thread) int {
	for i := range h.cur {
		h.seal(t, i)
	}
	return int(h.pending())
}

func (h *Hyaline) pending() uint64 {
	return h.stats.Retired - h.stats.Freed
}

// Stats implements Scheme.  GraceWaits stays zero by construction —
// the scheme never blocks on another thread.
func (h *Hyaline) Stats() Stats {
	s := h.stats
	s.Pending = h.pending()
	return s
}
