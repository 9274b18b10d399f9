package harness

import (
	"bytes"
	"strings"
	"testing"

	"threadscan/internal/core"
)

func quickCfg(dsName, scheme string, threads int) Config {
	return Config{
		DS: dsName, Scheme: scheme, Threads: threads, Cores: 4,
		Duration: 2_000_000, // 2 virtual ms: fast unit runs
		Seed:     1,
		KeyRange: 512, Prefill: 256, Buckets: 16,
		BufferSize: 128, Batch: 128,
	}
}

func TestRunProducesOps(t *testing.T) {
	r, err := Run(quickCfg("list", "threadscan", 2))
	if err != nil {
		t.Fatal(err)
	}
	if r.Ops == 0 || r.Throughput <= 0 {
		t.Fatalf("empty result: %+v", r)
	}
	if r.Core == nil {
		t.Fatal("missing ThreadScan core stats")
	}
	if r.ElapsedCycles < 2_000_000 {
		t.Fatalf("elapsed %d shorter than per-thread budget", r.ElapsedCycles)
	}
}

func TestRunAllCombinations(t *testing.T) {
	for _, dsName := range []string{"list", "hash", "skiplist"} {
		for _, scheme := range []string{"leaky", "hazard", "epoch", "slow-epoch", "threadscan", "stacktrack"} {
			cfg := quickCfg(dsName, scheme, 2)
			cfg.SlowDelay = 200_000 // scaled-down errant delay
			r, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", dsName, scheme, err)
			}
			if r.Ops == 0 {
				t.Fatalf("%s/%s: no ops", dsName, scheme)
			}
			// Reclamation accounting: every scheme but leaky must have
			// freed what it retired once flushed.
			if scheme != "leaky" && r.Scheme.Retired != r.Scheme.Freed {
				t.Fatalf("%s/%s: retired %d != freed %d",
					dsName, scheme, r.Scheme.Retired, r.Scheme.Freed)
			}
			if scheme == "leaky" && r.Scheme.Retired > 0 && r.Scheme.Leaked != r.Scheme.Retired {
				t.Fatalf("leaky accounting: %+v", r.Scheme)
			}
		}
	}
}

func TestRunRejectsUnknownNames(t *testing.T) {
	if _, err := Run(quickCfg("btree", "leaky", 1)); err == nil {
		t.Error("unknown ds accepted")
	}
	if _, err := Run(quickCfg("list", "magic", 1)); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestDeterministicResults(t *testing.T) {
	a, err := Run(quickCfg("list", "threadscan", 3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(quickCfg("list", "threadscan", 3))
	if err != nil {
		t.Fatal(err)
	}
	if a.Ops != b.Ops || a.ElapsedCycles != b.ElapsedCycles {
		t.Fatalf("non-deterministic: %d/%d vs %d/%d ops/cycles",
			a.Ops, a.ElapsedCycles, b.Ops, b.ElapsedCycles)
	}
}

func TestOversubscriptionDividesPerThreadWork(t *testing.T) {
	// Duration is a wall-clock window (the paper's methodology): 8
	// threads on 2 cores run for the same elapsed window as 2 threads
	// on 2 cores, but each gets ~1/4 of the CPU, so per-thread ops
	// drop ~4x.
	base := quickCfg("list", "leaky", 2)
	base.Cores = 2
	over := quickCfg("list", "leaky", 8)
	over.Cores = 2
	rb, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := Run(over)
	if err != nil {
		t.Fatal(err)
	}
	elapsedRatio := float64(ro.ElapsedCycles) / float64(rb.ElapsedCycles)
	if elapsedRatio > 1.5 || elapsedRatio < 0.67 {
		t.Fatalf("elapsed should be a fixed window: ratio %.2f", elapsedRatio)
	}
	perBase := float64(rb.Ops) / 2
	perOver := float64(ro.Ops) / 8
	if r := perBase / perOver; r < 2.5 || r > 6.5 {
		t.Fatalf("per-thread ops ratio %.2f, want ~4 (base %d over %d)", r, rb.Ops, ro.Ops)
	}
}

func TestFigureSweepAndRendering(t *testing.T) {
	p := SweepParams{
		Scale:        ScaleQuick,
		ThreadCounts: []int{1, 2},
		Cores:        2,
		Duration:     1_000_000,
		Seed:         7,
	}
	fig, err := RunFig3("list", p)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != len(Fig3Schemes) {
		t.Fatalf("series: %d", len(fig.Series))
	}
	var tbl, csvBuf bytes.Buffer
	if err := WriteTable(&tbl, fig); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&csvBuf, fig); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.String(), "threadscan") {
		t.Fatalf("table missing scheme column:\n%s", tbl.String())
	}
	lines := strings.Count(csvBuf.String(), "\n")
	if lines != 1+len(Fig3Schemes)*2 {
		t.Fatalf("csv rows = %d:\n%s", lines, csvBuf.String())
	}
}

func TestFig4AddsTunedHashVariant(t *testing.T) {
	p := SweepParams{
		Scale:        ScaleQuick,
		ThreadCounts: []int{4},
		Cores:        2,
		Duration:     1_000_000,
		Seed:         3,
	}
	fig, err := RunFig4("hash", p)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range fig.Series {
		if s.Name == "threadscan-tuned" {
			found = true
			base := 128 // quick-scale buffer
			if s.Results[0].Config.BufferSize != 4*base {
				t.Fatalf("tuned variant buffer = %d, want %d", s.Results[0].Config.BufferSize, 4*base)
			}
		}
	}
	if !found {
		t.Fatal("tuned hash variant missing from Figure 4")
	}
}

func TestAblationBuffer(t *testing.T) {
	p := SweepParams{Scale: ScaleQuick, Cores: 2, Duration: 1_000_000, Seed: 5}
	a := withAxes(ablation(t, "buffer"),
		intAxis("buffer", setBuffer, 64, 256), intAxis("threads", setThreads, 4))
	rows, err := a.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows: %d", len(rows))
	}
	// Larger buffers mean fewer collects.
	if rows[1].Result.Core.Collects > rows[0].Result.Core.Collects {
		t.Fatalf("collects did not drop with buffer size: %d -> %d",
			rows[0].Result.Core.Collects, rows[1].Result.Core.Collects)
	}
	var buf bytes.Buffer
	if err := a.WriteTable(&buf, rows); err != nil {
		t.Fatal(err)
	}
}

func TestAblationLookupAgree(t *testing.T) {
	p := SweepParams{Scale: ScaleQuick, Cores: 2, Duration: 1_000_000, Seed: 9}
	a := ablation(t, "lookup") // threads = cores = 2
	rows, err := a.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows: %d", len(rows))
	}
	if rows[0].Point["lookup"] != core.LookupBinary.String() {
		t.Fatal("first row should be the paper's binary search")
	}
	var buf bytes.Buffer
	if err := a.WriteTable(&buf, rows); err != nil {
		t.Fatal(err)
	}
}

func TestAblationStallShowsContrast(t *testing.T) {
	p := SweepParams{Scale: ScaleQuick, Cores: 2, Duration: 8_000_000, Seed: 11}
	a := withAxes(ablation(t, "stall"), intAxis("threads", setThreads, 3),
		intAxis("stall_every", setStallEvery, 50), intAxis("stall_cycles", setStallCycles, 1_000_000))
	rows, err := a.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	var epochWait, tsWait int64
	for _, r := range rows {
		switch r.Result.Scheme {
		case "epoch":
			epochWait = r.Result.SchemeStats.GraceWaitCycles
		case "threadscan":
			tsWait = r.Result.SchemeStats.GraceWaitCycles
		}
	}
	if tsWait != 0 {
		t.Fatalf("threadscan reported grace waits: %d", tsWait)
	}
	if epochWait == 0 {
		t.Fatal("epoch reclaimers never waited despite the stalled thread")
	}
	var buf bytes.Buffer
	if err := a.WriteTable(&buf, rows); err != nil {
		t.Fatal(err)
	}
}
