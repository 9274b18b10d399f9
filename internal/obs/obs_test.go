package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"threadscan/internal/simmem"
	"threadscan/internal/simt"
)

func testSim() *simt.Sim {
	return simt.New(simt.Config{
		Cores:     2,
		Quantum:   10_000,
		Seed:      1,
		MaxCycles: 1_000_000_000,
		Heap:      simmem.Config{Words: 1 << 16},
	})
}

// A disabled recorder — nil or the zero value — must cost nothing on
// the hot path: no allocations from any recording method.  The thread
// argument is never touched on the disabled path, so nil stands in.
func TestDisabledRecorderAllocatesNothing(t *testing.T) {
	var nilRec *Recorder
	for name, r := range map[string]*Recorder{"nil": nilRec, "zero": new(Recorder)} {
		if r.Enabled() || r.Tracing() {
			t.Fatalf("%s recorder reports enabled", name)
		}
		allocs := testing.AllocsPerRun(100, func() {
			r.Begin(nil, StageCollect)
			r.End(nil)
			r.Observe(nil, StageOp, 7)
			r.Window(nil, StageGraceWait, 0, 7)
			r.Instant(nil, KindTrigger)
			r.Alloc(nil, 3, true)
			r.Free(nil, 3, true)
			r.RemoteLineFill(nil)
			r.SignalSent(nil, nil)
			r.RemoteFlush(0, 8)
			r.InboxDrain(0, 8)
		})
		if allocs != 0 {
			t.Errorf("%s recorder: %v allocs per run on the disabled path", name, allocs)
		}
		if r.InstantCount(KindTrigger) != 0 || r.MaxPause() != 0 || r.StageCount(StageOp) != 0 {
			t.Errorf("%s recorder accumulated state while disabled", name)
		}
		if s := r.Summary(); s == nil || s.Op.Count != 0 || len(s.Stages) != 0 {
			t.Errorf("%s recorder summary not all-zero: %+v", name, s)
		}
	}
}

func TestRecorderSpansHistogramsInstants(t *testing.T) {
	r := NewTraceRecorder()
	sim := testSim()
	sim.Spawn("w0", func(th *simt.Thread) {
		r.Begin(th, StageCollect)
		th.Charge(100)
		r.Begin(th, StageHandshake) // nested
		th.Charge(40)
		r.End(th) // handshake: 40
		th.Charge(10)
		r.End(th) // collect: 150
		r.Observe(th, StageOp, 9)
		r.Instant(th, KindTrigger)
		r.Window(th, StageGraceWait, th.Now()-25, 25)
	})
	sim.Spawn("w1", func(th *simt.Thread) {
		r.Begin(th, StageScan)
		th.Charge(70)
		r.End(th)
		r.End(th) // unmatched End: tolerated no-op
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		stage      Stage
		count, tot int64
	}{
		{StageCollect, 1, 150},
		{StageHandshake, 1, 40},
		{StageScan, 1, 70},
		{StageOp, 1, 9},
		{StageGraceWait, 1, 25},
	} {
		if got := r.StageCount(tc.stage); got != tc.count {
			t.Errorf("StageCount(%s) = %d, want %d", tc.stage, got, tc.count)
		}
		if got := r.StageTotal(tc.stage); got != tc.tot {
			t.Errorf("StageTotal(%s) = %d, want %d", tc.stage, got, tc.tot)
		}
	}
	// Max pause spans scan, handshake, and grace waits.
	if got := r.MaxPause(); got != 70 {
		t.Errorf("MaxPause = %d, want 70 (the scan)", got)
	}
	if got := r.InstantCount(KindTrigger); got != 1 {
		t.Errorf("InstantCount(trigger) = %d, want 1", got)
	}

	sum := r.Summary()
	if sum.Op.Count != 1 || sum.Op.Max != 9 {
		t.Errorf("Summary.Op = %+v", sum.Op)
	}
	if sum.MaxPauseCycles != 70 {
		t.Errorf("Summary.MaxPauseCycles = %d", sum.MaxPauseCycles)
	}
	// Stage rows appear in declaration order and skip empty stages.
	var names []string
	for _, st := range sum.Stages {
		names = append(names, st.Stage)
	}
	want := []string{"collect", "scan", "handshake-wait", "grace-wait"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("Summary stage order = %v, want %v", names, want)
	}
}

// Every thread observes into one histogram per stage, so a recorder
// fed by 64 threads allocates no more histogram memory than one fed by
// 2.  The thread records are created first, outside the measurement:
// what is measured is only what the observations allocate.  Not
// parallel: it reads the process-wide TotalAlloc.
func TestRecorderHistBytesIndependentOfThreads(t *testing.T) {
	sim := testSim()
	threads := make([]*simt.Thread, 64)
	for i := range threads {
		threads[i] = sim.Spawn(fmt.Sprintf("w%d", i), func(*simt.Thread) {})
	}
	stages := Stages()
	histBytes := func(n int) (uint64, *Recorder) {
		r := NewRecorder()
		for _, th := range threads[:n] {
			r.rec(th)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, th := range threads[:n] {
			for _, s := range stages {
				r.Observe(th, s, 100)
			}
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, r
	}
	few, _ := histBytes(2)
	many, r := histBytes(64)
	if many > few {
		t.Errorf("histogram bytes grew with threads: %d B for 64 threads, %d B for 2", many, few)
	}
	for _, s := range stages {
		if got := r.StageHist(s).Count(); got != 64 || r.StageCount(s) != 64 {
			t.Errorf("stage %v: histogram holds %d, count %d; want 64 each", s, got, r.StageCount(s))
		}
	}
}

// A histogram-only recorder must keep quantiles but store no spans.
func TestHistogramOnlyRecorderStoresNoSpans(t *testing.T) {
	r := NewRecorder()
	sim := testSim()
	sim.Spawn("w0", func(th *simt.Thread) {
		r.Begin(th, StageCollect)
		th.Charge(100)
		r.End(th)
		r.Instant(th, KindWatermark)
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if r.StageCount(StageCollect) != 1 {
		t.Fatal("histogram missing")
	}
	if r.InstantCount(KindWatermark) != 1 {
		t.Fatal("instant count missing")
	}
	for _, tr := range r.threads {
		if tr != nil && (len(tr.spans) > 0 || len(tr.instants) > 0) {
			t.Fatal("histogram-only recorder stored spans/instants")
		}
	}
}

func TestProbeAndObserverCounters(t *testing.T) {
	r := NewRecorder()
	sim := testSim()
	sim.Spawn("w0", func(th *simt.Thread) {
		r.Alloc(th, 12, true)
		r.Alloc(th, 12, false)
		r.Free(th, 5, true)
		r.RemoteLineFill(th)
		r.SignalSent(th, th)
		r.RemoteFlush(1, 32)
		r.InboxDrain(1, 32)
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if r.StageCount(StageAlloc) != 2 {
		t.Errorf("alloc count = %d", r.StageCount(StageAlloc))
	}
	if r.allocRemoteFills != 1 || r.remoteLineFills != 1 {
		t.Errorf("remote counters = %d/%d", r.allocRemoteFills, r.remoteLineFills)
	}
	if r.InstantCount(KindRemoteFlush) != 1 || r.InstantCount(KindSignal) != 1 {
		t.Errorf("instants = %d/%d", r.InstantCount(KindRemoteFlush), r.InstantCount(KindSignal))
	}
	if r.remoteFlushBatches != 1 || r.remoteFlushBlocks != 32 ||
		r.inboxDrains != 1 || r.inboxBlocks != 32 {
		t.Errorf("batch counters wrong")
	}
}

func TestStageAndKindStrings(t *testing.T) {
	seen := map[string]bool{}
	for _, st := range Stages() {
		name := st.String()
		if name == "" || name == "unknown" || seen[name] {
			t.Errorf("stage %d has bad name %q", st, name)
		}
		seen[name] = true
	}
	if Stage(numStages).String() != "unknown" || Kind(numKinds).String() != "unknown" {
		t.Error("out-of-range Stage/Kind must stringify as unknown")
	}
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == "unknown" {
			t.Errorf("kind %d unnamed", k)
		}
	}
}

func TestWriteChromeTraceShape(t *testing.T) {
	r := NewTraceRecorder()
	sim := testSim()
	sim.Spawn("worker", func(th *simt.Thread) {
		r.Begin(th, StageCollect)
		th.Charge(1000)
		r.End(th)
		r.Instant(th, KindTrigger)
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	runs := []TraceRun{{
		Label:   "demo run",
		Rec:     r,
		Windows: []Window{{Name: "steady", Start: 0, End: 2000}},
	}}
	if err := WriteChromeTrace(&buf, runs); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
			S    string  `json:"s"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var haveProc, havePhase, haveSpan, haveInstant bool
	for _, e := range doc.TraceEvents {
		switch {
		case e.Ph == "M" && e.Name == "process_name" && e.Pid == 1:
			haveProc = true
		case e.Ph == "X" && e.Name == "steady" && e.Tid == phasesTid:
			havePhase = true
			if e.Dur != 2.0 { // 2000 cycles = 2 µs
				t.Errorf("phase dur = %v µs, want 2", e.Dur)
			}
		case e.Ph == "X" && e.Name == "collect":
			haveSpan = true
			if e.Dur != 1.0 {
				t.Errorf("collect dur = %v µs, want 1", e.Dur)
			}
		case e.Ph == "i" && e.Name == "trigger":
			haveInstant = true
			if e.S != "t" {
				t.Errorf("instant scope = %q, want t", e.S)
			}
		}
	}
	if !haveProc || !havePhase || !haveSpan || !haveInstant {
		t.Fatalf("trace missing events: proc=%v phase=%v span=%v instant=%v",
			haveProc, havePhase, haveSpan, haveInstant)
	}
	// A disabled run still renders its metadata without panicking.
	buf.Reset()
	if err := WriteChromeTrace(&buf, []TraceRun{{Label: "off", Rec: nil}}); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("disabled-run trace is not valid JSON")
	}
}

func TestWriteProfileTable(t *testing.T) {
	r := NewRecorder()
	sim := testSim()
	sim.Spawn("w0", func(th *simt.Thread) {
		r.Observe(th, StageOp, 100)
		r.Observe(th, StageRetire, 25)
		r.Instant(th, KindSteal)
		r.RemoteLineFill(th)
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteProfile(&buf, "cell", r); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"profile: cell", "op", "retire", "25.00%", // 25/100 op cycles
		"max pause: 0 cycles", "steal events: 1", "remote line fills: 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("profile output missing %q:\n%s", want, out)
		}
	}
}
