package harness

import (
	"threadscan/internal/core"
	"threadscan/internal/obs"
	"threadscan/internal/reclaim"
	"threadscan/internal/simt"
)

// Metrics wiring: registers the run's counter surface — every entry of
// the counter catalogue, the op total and its throughput rate, and the
// latency histograms — as named timelines on the metrics engine.
// Registration is cold-path (before sim.Run); the closures built here
// are only *read* by the engine's ticker, never charge virtual cycles,
// and therefore cannot perturb the schedule
// (TestMetricsOffIsBitIdentical holds the receipt).
//
// Series names are part of the exported-metrics contract: CI's smoke
// test and the metrics-diff baselines key on them.
func registerScenarioMetrics(m *obs.Metrics, sim *simt.Sim, sc reclaim.Scheme, tsCore *core.ThreadScan, rec *obs.Recorder) {
	// Progress: the cumulative op total across every thread spawned so
	// far, plus its windowed view (ops per window = throughput shape).
	opsNow := func() uint64 {
		var n uint64
		for _, th := range sim.Threads() {
			n += th.Ops()
		}
		return n
	}
	m.Counter("ops", opsNow)
	m.Rate("throughput", opsNow)

	// Every catalogue entry, read off a fresh snapshot of the sources.
	now := func() RunStats {
		s := RunStats{SchemeStats: sc.Stats(), Sim: sim.Stats(), Heap: sim.Heap().Stats()}
		if tsCore != nil {
			st := tsCore.Stats()
			s.Core = &st
		}
		return s
	}
	for _, c := range counters {
		if c.core && tsCore == nil {
			continue // the ThreadScan pipeline is absent
		}
		read := func() uint64 { return c.of(now()) }
		if c.gauge {
			m.Gauge(c.name, func() float64 { return float64(read()) })
		} else {
			m.Counter(c.name, read)
		}
	}

	// Windowed latency quantiles from the recorder's cumulative per-op
	// histogram: each point digests only that window's observations.
	if rec.Enabled() {
		m.Quantile("op_p50", 0.50, func(h *obs.Hist) { rec.MergeStageInto(obs.StageOp, h) })
		m.Quantile("op_p99", 0.99, func(h *obs.Hist) { rec.MergeStageInto(obs.StageOp, h) })
	}
}
