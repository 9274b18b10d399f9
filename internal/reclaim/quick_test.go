package reclaim

import (
	"testing"
	"testing/quick"

	"threadscan/internal/simmem"
	"threadscan/internal/simt"
)

// TestQuickAllSchemesSoundUnderChaos is the cross-scheme soundness
// battery: random seeds, chaos scheduling, every reclaiming scheme, on
// the checked heap.  Any premature free panics the run; any leak fails
// the final accounting.  This is the schedule-fuzzing analog of running
// the paper's stress on many machines.
func TestQuickAllSchemesSoundUnderChaos(t *testing.T) {
	f := func(seedRaw uint8, schemeRaw uint8) bool {
		seed := int64(seedRaw) + 1
		name := reclaimingSchemes[int(schemeRaw)%len(reclaimingSchemes)]
		s := simt.New(simt.Config{
			Cores: 2, Quantum: 3_000, Seed: seed, Chaos: true,
			MaxCycles: 4_000_000_000,
			Heap:      simmem.Config{Words: 1 << 19, Check: true, Poison: true},
		})
		sc := makeScheme(name, s)
		disc := sc.Discipline()
		nWorkers := 3
		flushLeft := -1
		workers := make([]*simt.Thread, nWorkers)
		for w := 0; w < nWorkers; w++ {
			workers[w] = s.Spawn("worker", func(th *simt.Thread) {
				for j := 0; j < 25; j++ {
					sc.BeginOp(th)
					allocNode(th, 2, uint64(j))
					held := th.Reg(2)
					if disc != DisciplineNone {
						sc.Protect(th, 0, 2)
					}
					for k := 0; k < 2; k++ {
						allocNode(th, 14, 7)
						junk := th.Reg(14)
						th.SetReg(14, 0)
						sc.Retire(th, junk)
					}
					th.Load(3, 2, 0)
					if th.Reg(3) != uint64(j) {
						t.Errorf("%s seed %d: held node corrupted", name, seed)
					}
					th.SetReg(2, 0)
					th.SetReg(3, 0)
					sc.EndOp(th)
					sc.BeginOp(th)
					sc.Retire(th, held)
					sc.EndOp(th)
				}
			})
		}
		// A dedicated closer waits until every worker has fully exited
		// (exit hooks orphan their retire lists), then flushes — the
		// deterministic teardown an application would run.
		s.Spawn("closer", func(th *simt.Thread) {
			for {
				done := true
				for _, w := range workers {
					if !w.Exited() {
						done = false
					}
				}
				if done {
					break
				}
				th.Pause()
			}
			flushLeft = sc.Flush(th)
		})
		if err := s.Run(); err != nil {
			t.Logf("%s seed %d: %v", name, seed, err)
			return false
		}
		if flushLeft != 0 {
			t.Logf("%s seed %d: flush left %d", name, seed, flushLeft)
			return false
		}
		if live := s.Heap().Stats().LiveBlocks; live != 0 {
			t.Logf("%s seed %d: leaked %d", name, seed, live)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestDoubleRetireIsAbsorbed: retiring the same node twice is an
// application bug (the paper requires each node be unlinked and freed
// once), but it must not corrupt the heap: the collect's sort+dedup
// absorbs the duplicate, frees the address exactly once, and reports
// the bug through the DoubleRetires counter instead of a double free.
func TestDoubleRetireIsAbsorbed(t *testing.T) {
	s := testSim(1, 31)
	ts := makeScheme("threadscan", s)
	s.Spawn("bug", func(th *simt.Thread) {
		node := allocNode(th, 0, 1)
		th.SetReg(0, 0)
		ts.Retire(th, node)
		ts.Retire(th, node) // double retire
		churn(ts, th, 64)   // force collects
		ts.Flush(th)
	})
	if err := s.Run(); err != nil {
		t.Fatalf("double retire corrupted the heap: %v", err)
	}
	st := ts.Stats()
	cst := ts.(*ThreadScan).Core().Stats()
	if cst.DoubleRetires != 1 {
		t.Fatalf("DoubleRetires = %d, want 1", cst.DoubleRetires)
	}
	// The absorbed duplicate counts as freed, so the footprint metric
	// does not report it as phantom garbage forever.
	if st.Retired != st.Freed {
		t.Fatalf("accounting: retired %d freed %d double %d",
			st.Retired, st.Freed, cst.DoubleRetires)
	}
	if live := s.Heap().Stats().LiveBlocks; live != 0 {
		t.Fatalf("leaked %d blocks", live)
	}
}

// TestHiddenPointerViolatesAssumption demonstrates why the paper's
// Assumption 1.3 (no pointer obfuscation) is necessary: a reference
// hidden by XOR is invisible to the scan, the node is reclaimed, and
// the subsequent dereference is caught as use-after-free by the checked
// heap.  This is documented behaviour, not a bug — conservative GCs
// make the same assumption.
func TestHiddenPointerViolatesAssumption(t *testing.T) {
	s := testSim(2, 33)
	ts := makeScheme("threadscan", s)
	const mask = 0xABCDEF
	hidden := false
	var obfuscated uint64
	s.Spawn("hider", func(th *simt.Thread) {
		node := allocNode(th, 0, 9)
		obfuscated = node ^ mask // hide the only reference
		th.SetReg(0, 0)
		ts.Retire(th, node)
		hidden = true
		th.Work(2_000_000) // let the churner reclaim
		th.SetReg(0, obfuscated^mask)
		th.Load(1, 0, 0) // use-after-free: the scan could not see us
	})
	s.Spawn("churner", func(th *simt.Thread) {
		for !hidden {
			th.Pause()
		}
		churn(ts, th, 64)
	})
	err := s.Run()
	var v *simmem.Violation
	if !asViolation(err, &v) || v.Kind != simmem.VUseAfterFree {
		t.Fatalf("expected the hidden pointer to cause a detected UAF, got %v", err)
	}
}

// asViolation unwraps err looking for a *simmem.Violation.
func asViolation(err error, out **simmem.Violation) bool {
	for err != nil {
		if v, ok := err.(*simmem.Violation); ok {
			*out = v
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// TestEpochIdleThreadDoesNotBlockReclaim: a thread that never runs
// operations is quiescent and must not stall grace periods (only
// *mid-operation* threads do).
func TestEpochIdleThreadDoesNotBlockReclaim(t *testing.T) {
	s := testSim(2, 35)
	e := NewEpoch(s, EpochConfig{Batch: 8})
	s.Spawn("idle", func(th *simt.Thread) {
		th.Work(3_000_000) // never calls BeginOp
	})
	s.Spawn("worker", func(th *simt.Thread) {
		churn(e, th, 40)
		if left := e.Flush(th); left != 0 {
			t.Errorf("flush left %d", left)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Stats().Freed != 40 {
		t.Fatalf("stats: %+v", e.Stats())
	}
	// The idle thread cannot have forced waits longer than the run.
	if e.Stats().GraceWaitCycles > 3_000_000 {
		t.Fatalf("grace waits absurdly long: %d", e.Stats().GraceWaitCycles)
	}
}

// TestStackTrackSegmentLengthTradeoff: shorter segments publish more
// often (higher Protect overhead), which is the knob the real
// StackTrack turns; both settings must stay sound.
func TestStackTrackSegmentLengthTradeoff(t *testing.T) {
	run := func(segment int) (uint64, int64) {
		s := testSim(2, 37)
		st := NewStackTrack(s, StackTrackConfig{SegmentLen: segment, Batch: 16})
		var cycles int64
		s.Spawn("w", func(th *simt.Thread) {
			for j := 0; j < 60; j++ {
				st.BeginOp(th)
				allocNode(th, 2, uint64(j))
				for k := 0; k < 8; k++ {
					st.Protect(th, 0, 2) // traversal steps
				}
				held := th.Reg(2)
				th.SetReg(2, 0)
				st.Retire(th, held)
				st.EndOp(th)
			}
			st.Flush(th)
			cycles = th.Cycles()
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return st.Stats().Freed, cycles
	}
	freedShort, cyclesShort := run(2)
	freedLong, cyclesLong := run(32)
	if freedShort != 60 || freedLong != 60 {
		t.Fatalf("freed: %d / %d", freedShort, freedLong)
	}
	if cyclesShort <= cyclesLong {
		t.Fatalf("short segments should cost more: %d vs %d", cyclesShort, cyclesLong)
	}
}
