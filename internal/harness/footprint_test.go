package harness

import (
	"testing"

	"threadscan/internal/reclaim"
	"threadscan/internal/simmem"
	"threadscan/internal/simt"
)

// skewScheme is a stub whose accounting is broken in the way the
// sampler must survive: it reports more nodes freed than retired.
type skewScheme struct {
	retired, freed uint64
}

func (s *skewScheme) Name() string                        { return "skew-stub" }
func (s *skewScheme) Discipline() reclaim.Discipline      { return reclaim.DisciplineNone }
func (s *skewScheme) BeginOp(*simt.Thread)                {}
func (s *skewScheme) EndOp(*simt.Thread)                  {}
func (s *skewScheme) Protect(*simt.Thread, int, int) bool { return false }
func (s *skewScheme) Retire(_ *simt.Thread, _ uint64)     { s.retired++ }
func (s *skewScheme) Flush(*simt.Thread) int              { return 0 }
func (s *skewScheme) Stats() reclaim.Stats {
	return reclaim.Stats{Retired: s.retired, Freed: s.freed}
}

// TestFootprintGarbageClampsUnderflow: a scheme whose Freed outruns its
// Retired must read as zero garbage, not wrap the uint64 subtraction to
// ~1.8e19 and poison PeakRetiredNodes; the skew is recorded instead.
func TestFootprintGarbageClampsUnderflow(t *testing.T) {
	stub := &skewScheme{retired: 10, freed: 17}
	f := &footprintSampler{scheme: stub, fp: Footprint{SampleEvery: 1000, NodeWords: 8}}
	if g := f.garbage(); g != 0 {
		t.Fatalf("garbage = %d, want 0 (clamped)", g)
	}
	if f.fp.AccountingSkew != 7 {
		t.Fatalf("AccountingSkew = %d, want 7", f.fp.AccountingSkew)
	}
	// The skew high-water mark tracks the worst observation.
	stub.freed = 13
	if f.garbage() != 0 || f.fp.AccountingSkew != 7 {
		t.Fatalf("skew high-water mark regressed: %+v", f.fp)
	}
	stub.freed = 9
	if g := f.garbage(); g != 1 {
		t.Fatalf("garbage = %d, want 1 once accounting recovers", g)
	}
}

// TestFootprintSamplerSurvivesSkewedScheme runs the sampler thread
// against the skewed stub end to end: peaks stay sane and the final
// sample reports zero, not an absurd phantom graveyard.
func TestFootprintSamplerSurvivesSkewedScheme(t *testing.T) {
	sim := simt.New(simt.Config{
		Cores: 1, Quantum: 10_000, Seed: 1,
		MaxCycles: 1_000_000_000,
		Heap:      simmem.Config{Words: 1 << 16},
	})
	stub := &skewScheme{retired: 3, freed: 5}
	f := &footprintSampler{sim: sim, scheme: stub, fp: Footprint{SampleEvery: 10_000, NodeWords: 8}}
	sim.Spawn("sampler", f.run)
	sim.Spawn("closer", func(th *simt.Thread) {
		th.Work(100_000)
		f.stop = true
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if f.fp.PeakRetiredNodes != 0 || f.fp.FinalRetiredNodes != 0 {
		t.Fatalf("skew leaked into peaks: %+v", f.fp)
	}
	if f.fp.AccountingSkew != 2 {
		t.Fatalf("AccountingSkew = %d, want 2", f.fp.AccountingSkew)
	}
}
