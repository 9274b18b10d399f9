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
