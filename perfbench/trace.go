package main

import (
	"math"
	"math/bits"
	"sort"
	_ "unsafe" // for go:linkname

	"threadscan/internal/core"
	"threadscan/internal/reclaim"
	"threadscan/internal/simt"
)

// hist is a log-linear histogram of positive values in units of 1/16:
// 64 buckets per octave, so a quantile is within about 1.6% of the
// sample it stands for.  Quantiles interpolate linearly inside a bucket.
type hist struct {
	counts []uint64
	n      uint64
	max    float64
}

const histSub = 64

func histIndex(v float64) int {
	x := uint64(v * 16)
	if x < histSub {
		return int(x) // exact below 4 ns
	}
	e := bits.Len64(x) - 1 // x in [2^e, 2^(e+1))
	return e*histSub + int((x>>(e-6))&(histSub-1))
}

func histBounds(i int) (lo, hi float64) {
	if i < histSub {
		return float64(i) / 16, float64(i+1) / 16
	}
	e, sub := float64(i/histSub), float64(i%histSub)
	return math.Exp2(e) * (1 + sub/histSub) / 16, math.Exp2(e) * (1 + (sub+1)/histSub) / 16
}

func (h *hist) add(v float64) {
	i := histIndex(v)
	if i >= len(h.counts) {
		h.counts = append(h.counts, make([]uint64, i+1-len(h.counts))...)
	}
	h.counts[i]++
	h.n++
	h.max = max(h.max, v)
}

// quantile returns the value below which a share q of the samples lie.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := histBounds(i)
			return min(lo+(hi-lo)*(rank-cum)/float64(c), h.max)
		}
		cum += float64(c)
	}
	return h.max
}

// tail returns the highest of p90, p99, p99.9, ... that has at least
// ten samples beyond it, falling back to p50 and then the maximum for
// small counts, with its label.
func (h *hist) tail() (float64, string) {
	label, q := "max", 1.0
	for _, c := range []struct {
		label string
		q     float64
	}{{"p50", 0.5}, {"p90", 0.9}, {"p99", 0.99}, {"p99.9", 0.999}, {"p99.99", 0.9999}, {"p99.999", 0.99999}} {
		if float64(h.n)*(1-c.q) >= 10 {
			label, q = c.label, c.q
		}
	}
	if q == 1 {
		return h.max, label
	}
	return h.quantile(q), label
}

// nanotime is the runtime's monotonic clock: one clock read per call,
// where time.Now makes two.  Spans are the tracer's overhead, so they
// use it.
//
//go:linkname nanotime runtime.nanotime
func nanotime() int64

// tracer records host-time spans around the calls the driver makes
// into each layer.  Spans are kept as histograms per metric.  A span
// during which the scheduler dispatched a thread or a signal handler
// ran also timed other work than its own; it is counted apart
// (trace.handoff_span_frac) and left out of every timing except
// core.collect, whose signal round trip is part of the collect.
type tracer struct {
	sim  *simt.Sim
	core *core.ThreadScan

	hists          map[string]*hist
	spans, crossed uint64
	threads        []threadSpans // by simulated thread id
	runNs          float64       // Sim.Run, summed over cells
	collectNs      float64       // host time inside any collect span, summed over cells
	collectSpans   [][2]int64    // this cell's collect spans, start and end

	// The span histograms, looked up once.
	bracket, protect, retire, collect *hist
}

// threadSpans is one simulated thread's open spans.
type threadSpans struct {
	inOp      bool  // inside an op root span
	child     int64 // scheme-call ns inside the open op span
	begin     int64 // the open BeginOp's ns
	beginSkip bool  // the open BeginOp crossed a hand-off
}

func newTracer() *tracer {
	tr := &tracer{hists: map[string]*hist{}}
	tr.bracket = tr.hist("reclaim.bracket_ns")
	tr.protect = tr.hist("reclaim.protect_ns")
	tr.retire = tr.hist("reclaim.retire_ns")
	tr.collect = tr.hist("core.collect_ns")
	return tr
}

// attach points the tracer at a new cell's simulation.
func (tr *tracer) attach(sim *simt.Sim, tsCore *core.ThreadScan) {
	tr.sim, tr.core = sim, tsCore
	tr.threads = tr.threads[:0]
	tr.collectSpans = tr.collectSpans[:0]
}

// detach ends the cell: collect spans of several threads overlap, so
// their union is what counts toward core.collect_share.
func (tr *tracer) detach() {
	sort.Slice(tr.collectSpans, func(i, j int) bool { return tr.collectSpans[i][0] < tr.collectSpans[j][0] })
	var end int64
	for _, c := range tr.collectSpans {
		if c[0] > end {
			end = c[0]
		}
		if c[1] > end {
			tr.collectNs += float64(c[1] - end)
			end = c[1]
		}
	}
}

// hist returns the named histogram, creating it empty.
func (tr *tracer) hist(name string) *hist {
	h := tr.hists[name]
	if h == nil {
		h = &hist{}
		tr.hists[name] = h
	}
	return h
}

func (tr *tracer) record(name string, v float64) { tr.hist(name).add(v) }

func (tr *tracer) thread(th *simt.Thread) *threadSpans {
	for len(tr.threads) <= th.ID() {
		tr.threads = append(tr.threads, threadSpans{})
	}
	return &tr.threads[th.ID()]
}

// span is an open span's start state.
type span struct {
	at               int64
	dispatches, sigs uint64
}

// begin opens an op root span.
func (tr *tracer) begin(th *simt.Thread) span {
	tr.thread(th).inOp = true
	return tr.start()
}

// end closes a span and reports its duration and whether it crossed a
// hand-off or a handler.
func (tr *tracer) end(sp span) (int64, bool) {
	d := nanotime() - sp.at
	st := tr.sim.Stats()
	crossed := st.Dispatches != sp.dispatches || st.SignalsDelivered != sp.sigs
	tr.spans++
	if crossed {
		tr.crossed++
	}
	return d, crossed
}

// endOp closes an op root span and records its self time: the span
// minus the scheme calls made inside it.
func (tr *tracer) endOp(th *simt.Thread, sp span, h *hist) {
	d, crossed := tr.end(sp)
	ts := tr.thread(th)
	ts.inOp = false
	if !crossed {
		h.add(float64(d - ts.child))
	}
	ts.child = 0
}

// start opens a scheme-call span.
func (tr *tracer) start() span {
	st := tr.sim.Stats()
	return span{at: nanotime(), dispatches: st.Dispatches, sigs: st.SignalsDelivered}
}

// stop closes a scheme-call span and charges it to the enclosing op.
func (tr *tracer) stop(th *simt.Thread, sp span) (int64, bool) {
	d, crossed := tr.end(sp)
	if ts := tr.thread(th); ts.inOp {
		ts.child += d
	}
	return d, crossed
}

// wrap returns sc with every call timed.  The wrapper forwards the
// optional BirthStamper extension exactly when sc has it, so the
// structures stamp nodes the same way traced or not.
func (tr *tracer) wrap(sc reclaim.Scheme) reclaim.Scheme {
	w := &tracedScheme{Scheme: sc, tr: tr}
	if bs, ok := sc.(reclaim.BirthStamper); ok {
		return tracedStamper{w, bs}
	}
	return w
}

type tracedScheme struct {
	reclaim.Scheme // Name, Discipline and Stats pass through untimed
	tr             *tracer
}

type tracedStamper struct {
	*tracedScheme
	bs reclaim.BirthStamper
}

func (s tracedStamper) NoteAlloc(t *simt.Thread, addr uint64) { s.bs.NoteAlloc(t, addr) }

// BeginOp and EndOp together are one bracket sample.
func (s *tracedScheme) BeginOp(t *simt.Thread) {
	sp := s.tr.start()
	s.Scheme.BeginOp(t)
	d, crossed := s.tr.stop(t, sp)
	ts := s.tr.thread(t)
	ts.begin, ts.beginSkip = d, crossed
}

func (s *tracedScheme) EndOp(t *simt.Thread) {
	sp := s.tr.start()
	s.Scheme.EndOp(t)
	d, crossed := s.tr.stop(t, sp)
	ts := s.tr.thread(t)
	if !crossed && !ts.beginSkip {
		s.tr.bracket.add(float64(ts.begin + d))
	}
	ts.begin, ts.beginSkip = 0, false
}

func (s *tracedScheme) Protect(t *simt.Thread, slot, reg int) bool {
	sp := s.tr.start()
	ok := s.Scheme.Protect(t, slot, reg)
	d, crossed := s.tr.stop(t, sp)
	if !crossed {
		s.tr.protect.add(float64(d))
	}
	return ok
}

// Retire is tagged core.collect when it advanced the ThreadScan core's
// collect count.
func (s *tracedScheme) Retire(t *simt.Thread, addr uint64) {
	before := s.tr.collects()
	sp := s.tr.start()
	s.Scheme.Retire(t, addr)
	d, crossed := s.tr.stop(t, sp)
	if !s.tr.collected(sp, d, before) && !crossed {
		s.tr.retire.add(float64(d))
	}
}

// Flush is timed only as a collect, when it ran one.
func (s *tracedScheme) Flush(t *simt.Thread) int {
	before := s.tr.collects()
	sp := s.tr.start()
	n := s.Scheme.Flush(t)
	d, _ := s.tr.stop(t, sp)
	s.tr.collected(sp, d, before)
	return n
}

// collects reads the ThreadScan core's collect count (0 for the other
// schemes).
func (tr *tracer) collects() uint64 {
	if tr.core == nil {
		return 0
	}
	return tr.core.Stats().Collects
}

// collected records a span that advanced the collect count as a
// core.collect span and reports whether it did.
func (tr *tracer) collected(sp span, d int64, before uint64) bool {
	if tr.collects() == before {
		return false
	}
	tr.collect.add(float64(d))
	tr.collectSpans = append(tr.collectSpans, [2]int64{sp.at, sp.at + d})
	return true
}
