package simmem

import "testing"

// heapLoadSink keeps BenchmarkHeapLoad's loads live.
var heapLoadSink uint64

// BenchmarkHeapLoad times Heap.Load alone, the heap layer under the
// simt.load_ns ledger entry (see internal/simt's BenchmarkLoad), over a
// working set of 512 list-sized blocks, with per-word liveness checking
// on and off.
//
//	go test -run '^$' -bench HeapLoad -benchtime 20000000x ./internal/simmem
func BenchmarkHeapLoad(b *testing.B) {
	for _, c := range []struct {
		name  string
		check bool
	}{{"checked", true}, {"unchecked", false}} {
		b.Run(c.name, func(b *testing.B) {
			h := New(Config{Words: 1 << 21, Check: c.check, Poison: true})
			blocks := make([]uint64, 512)
			for i := range blocks {
				blocks[i] = h.Alloc(ClassSizeBytes(172))
			}
			var sum uint64
			b.ResetTimer()
			for i, j := 0, 0; i < b.N; i++ {
				sum += h.Load(blocks[j])
				if j++; j == len(blocks) {
					j = 0
				}
			}
			heapLoadSink = sum
		})
	}
}

// BenchmarkAllocFree times one alloc+free pair of a list-sized block on
// the central lists of a checked two-node localalloc heap, a batch of
// allocations then their frees, as perfbench's simmem.alloc_free_ns
// ledger entry does one layer up.  local frees from the block's own
// node; remote frees from the other node (FreeToNode), so each block
// goes through the home pool's remote-free inbox and is drained back on
// the next refill.
//
//	go test -run '^$' -bench AllocFree -benchtime 2000000x ./internal/simmem
func BenchmarkAllocFree(b *testing.B) {
	for _, c := range []struct {
		name string
		from int
	}{{"local", 0}, {"remote", 1}} {
		b.Run(c.name, func(b *testing.B) {
			h := New(Config{Words: 1 << 21, Check: true, Poison: true, Nodes: 2, Policy: PolicyLocal})
			size := ClassSizeBytes(172)
			blocks := make([]uint64, 128)
			b.ResetTimer()
			for i := 0; i < b.N; i += len(blocks) {
				for k := range blocks {
					blocks[k] = h.AllocOn(0, size)
				}
				for _, a := range blocks {
					h.FreeToNode(c.from, a)
				}
			}
		})
	}
}

// BenchmarkHeapNew times the life of a scenario cell's checked heap at
// the scenario engine's common arena size: build it, carve a few pages,
// release it.  fresh builds every heap on a new arena, as perfbench's
// simmem.heap_new_ms ledger entry does; reuse builds it with NewIn on
// the arena the previous heap released, which clears only the carved
// pages.
//
//	go test -run '^$' -bench HeapNew -benchtime 20x ./internal/simmem
func BenchmarkHeapNew(b *testing.B) {
	cfg := Config{Words: 1 << 22, Check: true, Poison: true}
	for _, reuse := range []bool{false, true} {
		name := "fresh"
		if reuse {
			name = "reuse"
		}
		b.Run(name, func(b *testing.B) {
			var a *Arena
			if reuse {
				a = New(cfg).Release()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h := NewIn(cfg, a)
				for k := 0; k < 1024; k++ {
					h.Alloc(ClassSizeBytes(172))
				}
				a = h.Release()
				if !reuse {
					a = nil
				}
			}
		})
	}
}
