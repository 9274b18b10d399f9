package harness

import (
	"reflect"
	"runtime"
	"testing"
)

// The tests in this file must not run in parallel: they depend on
// which arena the simulator's arena cache holds between two runs, and
// on the process-wide allocation counter.

// TestArenaReuseIsInvisible runs a cell, then a second cell of the same
// arena size that carves far more of it, then the first cell again on
// the arena the second released: both runs of the first cell must be
// identical field for field.
func TestArenaReuseIsInvisible(t *testing.T) {
	a := tinyScenario("list", "threadscan")
	a.HeapWords = 1 << 20
	b := tinyScenario("stack", "leaky")
	b.HeapWords = a.HeapWords
	b.Seed = 7

	first, err := RunScenario(a)
	if err != nil {
		t.Fatal(err)
	}
	dirty, err := RunScenario(b)
	if err != nil {
		t.Fatal(err)
	}
	if dirty.Heap.PagesCarved <= first.Heap.PagesCarved {
		t.Fatalf("the dirtying cell carved %d pages, no more than the first cell's %d",
			dirty.Heap.PagesCarved, first.Heap.PagesCarved)
	}
	again, err := RunScenario(a)
	if err != nil {
		t.Fatal(err)
	}
	first.WallTime, again.WallTime = 0, 0
	if !reflect.DeepEqual(first, again) {
		t.Fatalf("a cell on a recycled arena diverged from its first run:\n%+v\nvs\n%+v", first, again)
	}
}

// TestArenaRecycledAcrossRuns guards the recycling itself: back to
// back, the second run of a cell with a 2^22-word checked arena (48 MiB
// of words and liveness state) must allocate far less than one fresh
// arena, because it reuses the one the first run released.
func TestArenaRecycledAcrossRuns(t *testing.T) {
	spec := tinyScenario("stack", "epoch")
	spec.HeapWords = 1 << 22
	const arenaBytes = (1 << 22) * 12
	if _, err := RunScenario(spec); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := RunScenario(spec); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > arenaBytes/8 {
		t.Fatalf("second run allocated %d bytes; a recycled arena keeps it far below one fresh arena (%d bytes)",
			got, arenaBytes)
	} else {
		t.Logf("second run allocated %d bytes (one fresh arena: %d)", got, arenaBytes)
	}
}
