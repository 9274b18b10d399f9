package simt

import (
	"sync"
	"testing"

	"threadscan/internal/simmem"
)

// churnSim builds a two-thread simulation whose threads allocate, store
// into, read back and free heap blocks, runs it, and returns a digest of
// everything it observed: the values read, the clock, and the heap and
// scheduler counters.
func churnSim(heap simmem.Config, seed int64) (*Sim, [4]uint64, error) {
	s := New(Config{Cores: 2, Quantum: 5_000, Seed: seed, Heap: heap})
	var sum uint64
	for w := 0; w < 2; w++ {
		s.Spawn("w", func(th *Thread) {
			var live []uint64
			for i := 0; i < 300; i++ {
				if len(live) > 0 && th.RNG().Intn(3) == 0 {
					k := th.RNG().Intn(len(live))
					sum = sum*31 + th.LoadAddr(live[k])
					th.FreeAddr(live[k])
					live[k] = live[len(live)-1]
					live = live[:len(live)-1]
					continue
				}
				th.Alloc(1, 8+th.RNG().Intn(400))
				a := th.Reg(1)
				sum = sum*31 + th.LoadAddr(a)
				th.StoreAddr(a, th.RNG().Uint64()|1)
				live = append(live, a)
			}
		})
	}
	if err := s.Run(); err != nil {
		return nil, [4]uint64{}, err
	}
	hs, ss := s.Heap().Stats(), s.Stats()
	return s, [4]uint64{sum, uint64(s.Clock()), hs.Allocs ^ hs.LiveBytes<<20 ^ hs.PagesCarved<<40, ss.Dispatches}, nil
}

func mustChurn(t *testing.T, heap simmem.Config, seed int64) (*Sim, [4]uint64) {
	t.Helper()
	s, d, err := churnSim(heap, seed)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return s, d
}

// TestReleaseCachesArena checks the arena cache's bookkeeping: a
// released checked heap fills its size's slot, the next New of that
// size takes it and runs exactly as on a fresh arena, and unchecked or
// non-power-of-two heaps never enter the cache.  Not parallel: it reads
// the process-wide cache.
func TestReleaseCachesArena(t *testing.T) {
	const words = 1 << 17
	slot := arenaSlot(words)
	checked := simmem.Config{Words: words, Check: true, Poison: true}

	s, fresh := mustChurn(t, checked, 3)
	s.Release()
	if a := arenas.slot[slot]; a == nil || a.Words() != words {
		t.Fatalf("released checked heap not cached: slot %d holds %v", slot, a)
	}
	s, reused := mustChurn(t, checked, 3)
	if arenas.slot[slot] != nil {
		t.Fatal("New left a matching cached arena in its slot")
	}
	if reused != fresh {
		t.Fatalf("run on a recycled arena observed %v, on a fresh one %v", reused, fresh)
	}
	s.Release()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a released Sim's heap served a load")
			}
		}()
		s.Heap().Load(s.Heap().Base())
	}()

	arenas.slot[slot] = nil
	for _, heap := range []simmem.Config{
		{Words: words, Poison: true},                // unchecked
		{Words: 3 << 15, Check: true, Poison: true}, // not a power of two
	} {
		s, _ := mustChurn(t, heap, 3)
		s.Release()
		for i, a := range arenas.slot {
			if a != nil && (i == slot || a.Words() == heap.Words) {
				t.Errorf("heap %+v entered the arena cache in slot %d", heap, i)
			}
		}
	}
}

func TestReleaseNeedsSuccessfulRun(t *testing.T) {
	for _, c := range []struct {
		name string
		body func(*Thread)
	}{
		{"never run", nil},
		{"panicked", func(th *Thread) { th.LoadAddr(0) }},
	} {
		s := New(Config{Heap: simmem.Config{Words: 1 << 14, Check: true}})
		if c.body != nil {
			s.Spawn("t", c.body)
			if s.Run() == nil {
				t.Fatalf("%s: Run succeeded", c.name)
			}
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Release did not panic", c.name)
				}
			}()
			s.Release()
		}()
	}
}

// TestArenaCacheConcurrent runs simulations of one arena size from
// several goroutines at once, each releasing its arena for the others:
// every run of a seed must observe the same thing, whichever arena it
// got.  Run it under -race.
func TestArenaCacheConcurrent(t *testing.T) {
	heap := simmem.Config{Words: 1 << 15, Check: true, Poison: true}
	_, want := mustChurn(t, heap, 5)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				s, got, err := churnSim(heap, 5)
				if err != nil {
					t.Errorf("Run: %v", err)
					return
				}
				s.Release()
				if got != want {
					t.Errorf("concurrent run observed %v, want %v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
