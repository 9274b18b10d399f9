package main

import (
	"fmt"
	"io"
	"maps"
	"runtime"
	"strings"
	"time"
)

// timings are the per-layer host timings, each printed as .p50, .tail
// and .n; the unit is the _ns or _ms in the name.
var timings = []string{
	"simt.load_ns", "simt.load_nocache_ns", "simt.store_ns", "simt.cas_ns",
	"simt.handoff_ns", "simt.signal_ns",
	"simmem.alloc_free_ns", "simmem.heap_new_ms", "harness.cell_setup_ms",
	"core.collect_ns",
	"reclaim.retire_ns", "reclaim.bracket_ns", "reclaim.protect_ns",
	"ds.op_ns.list", "ds.op_ns.hash", "ds.op_ns.stack", "ds.op_ns.queue",
}

// countNames are the per-layer counts, summed over cells from each
// layer's own stats in the untraced driver run.
var countNames = []string{
	"ds.ops",
	"simt.dispatches", "simt.context_switches", "simt.signals_delivered", "simt.remote_line_fills",
	"simmem.allocs", "simmem.frees", "simmem.cache_misses", "simmem.pages_carved",
	"core.collects", "core.scanned_words", "core.reclaimed",
	"reclaim.retired", "reclaim.freed", "reclaim.protects", "reclaim.grace_waits",
}

// runTraced drives every cell untraced and then traced, pass after pass
// until the time is up, checks that each pair is virtually identical,
// runs the microloop ledger, and reports the per-layer metrics.
func runTraced(cfg runConfig, log io.Writer) report {
	var rep report
	cells := cfg.wl.cells(cfg.seed, cfg.size)
	tr := newTracer()
	var counts map[string]uint64
	var baseWall, tracedWall time.Duration
	passes := 0
	start := time.Now()
	for ; passes == 0 || time.Since(start) < cfg.seconds; passes++ {
		passCounts := map[string]uint64{}
		for _, c := range cells {
			rep.Attempted++
			runtime.GC()
			u := drive(c, nil)
			runtime.GC()
			t := drive(c, tr)
			baseWall += u.setup + u.run
			tracedWall += t.setup + t.run
			problems := append(u.problems, t.problems...)
			if len(problems) == 0 {
				for _, d := range t.out.diff(u.out) {
					problems = append(problems, "traced run differs: "+d)
				}
			}
			if len(problems) > 0 {
				rep.fail(log, c.name, problems)
			}
			for k, v := range u.counts {
				passCounts[k] += v
			}
		}
		if counts == nil {
			counts = passCounts
		} else if !maps.Equal(counts, passCounts) {
			rep.fail(log, fmt.Sprintf("pass %d", passes), []string{"per-layer counts did not repeat"})
		}
	}

	// Structures the cells never drive, and Protect when no cell calls
	// it, get their samples from the fallback cells.
	used := map[string]bool{}
	for _, c := range cells {
		used[c.ds()] = true
	}
	fb := newTracer()
	for _, ds := range []string{"list", "hash", "stack", "queue"} {
		if used[ds] && tr.protect.n > 0 {
			continue
		}
		c := fallbackCell(ds, cfg.seed, cfg.size)
		rep.Attempted++
		if d := drive(c, fb); len(d.problems) > 0 {
			rep.fail(log, c.name, d.problems)
		}
		if !used[ds] {
			tr.hists["ds.op_ns."+ds] = fb.hists["ds.op_ns."+ds]
			rep.notes = append(rep.notes, "ds.op_ns."+ds+" from "+c.name)
		}
	}
	if tr.protect.n == 0 {
		tr.hists["reclaim.protect_ns"] = fb.protect
		rep.notes = append(rep.notes, "reclaim.protect_ns from the fallback hazard cells")
	}
	if err := runLedger(tr, cfg.wl, cfg.size); err != nil {
		rep.Attempted++
		rep.fail(log, "ledger", []string{err.Error()})
	}

	for _, name := range timings {
		unit := "ns"
		if strings.Contains(name, "_ms") {
			unit = "ms"
		}
		h := tr.hist(name)
		tail, label := h.tail()
		rep.set(name+".p50", h.quantile(0.5), unit)
		rep.set(name+".tail", tail, unit)
		rep.set(name+".n", float64(h.n), "count")
		rep.notes = append(rep.notes, fmt.Sprintf("%s tail is %s", name, label))
	}
	for _, name := range countNames {
		rep.set(name, float64(counts[name]), "count")
	}
	rep.set("core.collect_share", tr.collectNs/tr.runNs, "ratio")
	rep.set("trace.handoff_span_frac", float64(tr.crossed)/float64(max(tr.spans, 1)), "ratio")
	rep.set("trace.overhead_frac", float64(tracedWall-baseWall)/float64(baseWall), "ratio")
	rep.notes = append(rep.notes, fmt.Sprintf("%d passes of %d cells, untraced driver %.3fs, traced %.3fs",
		passes, len(cells), baseWall.Seconds(), tracedWall.Seconds()))
	return rep
}
