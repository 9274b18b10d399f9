package harness

import (
	"threadscan/internal/reclaim"
	"threadscan/internal/simt"
)

// Memory-footprint telemetry: the Hyaline-style robustness metric.
// Throughput says how fast a scheme runs; the footprint says how much retired-but-unreclaimed garbage it lets accumulate
// while running — the axis on which the related work (Hyaline,
// Crystalline) argues reclamation schemes must actually be compared.
// A scheme with great throughput and unbounded peak garbage (Leaky is
// the limit case) fails workloads a bounded scheme survives.

// Footprint is the sampled peaks of live memory and garbage.  The
// timelines themselves are the metrics engine's garbage_nodes and
// live_words series (Scenario.MetricsEvery).
type Footprint struct {
	SampleEvery int64 `json:"sample_every_cycles"`
	NodeWords   int   `json:"node_words"` // allocator words per structure node

	// Live words are every live allocation in the arena: structure
	// nodes, retired-but-unreclaimed nodes, and infrastructure words.
	// Retired nodes are nodes handed to Retire and not yet returned to
	// the allocator — the scheme's garbage (delete buffers, retire
	// lists, orphans, leaked nodes).
	PeakLiveWords    uint64 `json:"peak_live_words"`
	PeakRetiredNodes uint64 `json:"peak_retired_nodes"`
	PeakRetiredWords uint64 `json:"peak_retired_words"` // peak unreclaimed garbage

	// ExactPeakRetiredNodes/Words are the scheme-maintained running
	// peak (reclaim.Stats.PeakRetired), updated at every Retire and
	// free rather than on the sampling cadence — the headline
	// robustness metric.  The sampled peaks above can only undercount
	// it: a retire burst fully reclaimed within one SampleEvery window
	// never reaches them.  Zero for Leaky, whose graveyard is counted
	// in Leaked (and in the sampled peaks) instead.
	ExactPeakRetiredNodes uint64 `json:"exact_peak_retired_nodes"`
	ExactPeakRetiredWords uint64 `json:"exact_peak_retired_words"`

	// PeakUndercountNodes reconciles the two: how far the sampled peak
	// fell short of the exact one (exact - sampled, clamped at zero) —
	// the aliasing error the sampling cadence introduced on this run.
	PeakUndercountNodes uint64 `json:"peak_undercount_nodes,omitempty"`

	// FinalRetiredNodes is the garbage still held after teardown flush:
	// 0 for every sound reclaiming scheme, the whole graveyard for
	// Leaky.
	FinalRetiredNodes uint64 `json:"final_retired_nodes"`

	// AccountingSkew is the largest Freed-minus-Retired excess any
	// sample observed.  A sound scheme never frees more than was
	// retired, so nonzero skew flags broken scheme accounting; the
	// sampler clamps the garbage estimate at zero instead of letting
	// the uint64 subtraction wrap to ~1.8e19 and poison the peaks.
	AccountingSkew uint64 `json:"accounting_skew,omitempty"`
}

// footprintSampler runs inside a dedicated simulated thread, sampling
// scheme and heap counters on a virtual-time cadence.  Reading the
// counters is host-side work (the discrete-event scheduler serializes
// all threads, so a quiescent read is always consistent); the sampler
// charges a token cost per sample so it occupies a core slot like a
// real monitoring thread would.  Its schedule — spawn slot, 200-cycle
// charge, cadence — is part of every captured baseline; it keeps only
// the peaks.
type footprintSampler struct {
	sim    *simt.Sim
	scheme reclaim.Scheme
	fp     Footprint
	stop   bool
}

// run is the sampler thread body: sample every SampleEvery cycles until
// stopped, then take one final post-flush sample.
func (f *footprintSampler) run(th *simt.Thread) {
	for !f.stop {
		f.sample(th)
		next := th.Now() + f.fp.SampleEvery
		for th.Now() < next && !f.stop {
			th.Sleep(next - th.Now()) // re-sleep across EINTR (scan signals)
		}
	}
	f.sample(th)
	f.fp.FinalRetiredNodes = f.garbage()
	if f.fp.ExactPeakRetiredNodes > f.fp.PeakRetiredNodes {
		f.fp.PeakUndercountNodes = f.fp.ExactPeakRetiredNodes - f.fp.PeakRetiredNodes
	}
}

// garbage reads the scheme's garbage, recording the exact peak and any
// accounting skew (the run surfaces skew as an error).
func (f *footprintSampler) garbage() uint64 {
	st := f.scheme.Stats()
	if st.PeakRetired > f.fp.ExactPeakRetiredNodes {
		f.fp.ExactPeakRetiredNodes = st.PeakRetired
		f.fp.ExactPeakRetiredWords = st.PeakRetired * uint64(f.fp.NodeWords)
	}
	garbage, skew := garbageNodes(st)
	if skew > f.fp.AccountingSkew {
		f.fp.AccountingSkew = skew
	}
	return garbage
}

func (f *footprintSampler) sample(th *simt.Thread) {
	th.Charge(200) // counter reads + stores
	retired := f.garbage()
	live := f.sim.Heap().Stats().LiveBytes / 8
	if live > f.fp.PeakLiveWords {
		f.fp.PeakLiveWords = live
	}
	if retired > f.fp.PeakRetiredNodes {
		f.fp.PeakRetiredNodes = retired
		f.fp.PeakRetiredWords = retired * uint64(f.fp.NodeWords)
	}
}
