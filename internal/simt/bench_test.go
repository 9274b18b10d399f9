package simt

import (
	"testing"

	"threadscan/internal/simmem"
)

// Layer microbenchmarks for the simulated memory primitives.  Each one
// mirrors a perfbench ledger microloop (perfbench/ledger.go), so host ns
// per simulated primitive is reproducible with plain go test:
//
//	BenchmarkLoad/cache    simt.load_ns
//	BenchmarkLoad/nocache  simt.load_nocache_ns
//	BenchmarkStore         simt.store_ns
//	BenchmarkCAS           simt.cas_ns
//
// The loop is the ledger's: 8 cores, quantum 125k, the checked and
// poisoned heap, and a working set of 512 list-sized blocks whose
// address is set into register 1 before each call.  The reported ns/op
// is therefore the primitive plus one SetReg, as in the ledger.
//
//	go test -run '^$' -bench . -benchtime 5000000x ./internal/simt

// benchBlocks is the working set: list-sized blocks (ds.DefaultNodeBytes
// is 172 bytes), the shape of the Figure 3 list's traversal.
const benchBlocks = 512

func benchSim(cacheSim bool) *Sim {
	return New(Config{
		Cores: 8, Quantum: 125_000, Seed: 1, CacheSim: cacheSim, StackWords: 256,
		Heap: simmem.Config{Words: 1 << 21, Check: true, Poison: true},
	})
}

// benchMem runs op b.N times inside one simulated thread, cycling the
// working set's block addresses through register 1 (register 0 holds
// zero, the value Store and CAS write).
func benchMem(b *testing.B, cacheSim bool, op func(*Thread)) {
	sim := benchSim(cacheSim)
	nodeBytes := simmem.ClassSizeBytes(172)
	sim.Spawn("bench", func(th *Thread) {
		blocks := make([]uint64, benchBlocks)
		for i := range blocks {
			th.Alloc(1, nodeBytes)
			blocks[i] = th.Reg(1)
		}
		th.SetReg(0, 0)
		b.ResetTimer()
		for i, j := 0, 0; i < b.N; i++ {
			th.SetReg(1, blocks[j])
			op(th)
			if j++; j == len(blocks) {
				j = 0
			}
		}
		b.StopTimer()
	})
	if err := sim.Run(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkLoad(b *testing.B) {
	b.Run("cache", func(b *testing.B) {
		benchMem(b, true, func(th *Thread) { th.Load(2, 1, 0) })
	})
	b.Run("nocache", func(b *testing.B) {
		benchMem(b, false, func(th *Thread) { th.Load(2, 1, 0) })
	})
}

func BenchmarkStore(b *testing.B) {
	benchMem(b, true, func(th *Thread) { th.Store(1, 1, 0) })
}

func BenchmarkCAS(b *testing.B) {
	benchMem(b, true, func(th *Thread) { th.CAS(1, 1, 0, 0) })
}

// regSink keeps BenchmarkReg's reads live.
var regSink uint64

// BenchmarkReg times the register file alone: a read and a write per
// iteration over all sixteen registers.
func BenchmarkReg(b *testing.B) {
	sim := benchSim(false)
	sim.Spawn("bench", func(th *Thread) {
		var sum uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := i & (NumRegs - 1)
			sum += th.Reg(r)
			th.SetReg(r, uint64(i))
		}
		b.StopTimer()
		regSink = sum
	})
	if err := sim.Run(); err != nil {
		b.Fatal(err)
	}
}
