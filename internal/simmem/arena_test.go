package simmem

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// churnHeap drives a seeded mix of allocations (small classes and
// multi-page spans, through the central lists and through per-node
// caches), frees (home and cross-node), stores and CASes over h, and
// leaves a share of the blocks live.  It returns a digest of every
// value it read back, so two heaps driven with one seed can be
// compared.
func churnHeap(h *Heap, seed int64, ops int) uint64 {
	rng := rand.New(rand.NewSource(seed))
	nodes := h.cfg.Nodes
	caches := make([]*Cache, nodes)
	for n := range caches {
		caches[n] = h.NewCacheOn(n)
	}
	type block struct {
		addr  uint64
		words int
		cache *Cache // nil: allocated from the central lists
	}
	var live []block
	var digest uint64
	for i := 0; i < ops; i++ {
		switch r := rng.Intn(10); {
		case r < 5 || len(live) == 0:
			size := 1 + rng.Intn(600)
			if rng.Intn(40) == 0 {
				size = (1 + rng.Intn(3*PageWords)) * WordSize // a span
			}
			var b block
			if rng.Intn(2) == 0 {
				b.cache = caches[rng.Intn(nodes)]
				b.addr = b.cache.Alloc(size)
			} else {
				b.addr = h.AllocOn(rng.Intn(nodes), size)
			}
			b.words = h.SizeOf(b.addr) / WordSize
			for w := 0; w < b.words; w += 1 + rng.Intn(4) {
				h.Store(b.addr+uint64(w)*WordSize, rng.Uint64()|1)
			}
			live = append(live, b)
		case r < 8:
			k := rng.Intn(len(live))
			b := live[k]
			digest = digest*31 + h.Load(b.addr)
			switch {
			case b.cache != nil:
				b.cache.Free(b.addr)
			default:
				h.FreeToNode(rng.Intn(nodes), b.addr)
			}
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		default:
			b := live[rng.Intn(len(live))]
			a := b.addr + uint64(rng.Intn(b.words))*WordSize
			old := h.Load(a)
			h.CompareAndSwap(a, old, old^rng.Uint64())
			digest = digest*31 + old
		}
	}
	for _, c := range caches {
		c.Flush()
	}
	return digest
}

// arenaPolicies covers the single pool and every per-node pool layout,
// including a node count that does not divide the page count.
var arenaPolicies = []struct {
	policy Policy
	nodes  int
}{
	{PolicyGlobal, 1},
	{PolicyGlobal, 2},
	{PolicyLocal, 2},
	{PolicyMembind, 2},
	{PolicyInterleave, 3},
}

// TestReleaseClearsArena checks the claim Release rests on: clearing
// only the carved pages leaves the whole arena zero, whatever the pool
// layout, with spans and blocks still live at release.  It then checks
// that a heap on the recycled arena behaves exactly like a fresh one.
func TestReleaseClearsArena(t *testing.T) {
	for _, pc := range arenaPolicies {
		for _, poison := range []bool{false, true} {
			name := fmt.Sprintf("%v/nodes=%d/poison=%v", pc.policy, pc.nodes, poison)
			t.Run(name, func(t *testing.T) {
				cfg := Config{Words: 1 << 18, Check: true, Poison: poison, Nodes: pc.nodes, Policy: pc.policy}
				for seed := int64(1); seed <= 4; seed++ {
					h := New(cfg)
					churnHeap(h, seed, 1500)
					if h.Stats().LiveBlocks == 0 || h.Stats().PagesCarved == 0 {
						t.Fatalf("seed %d: churn left no live blocks or carved no pages: %+v", seed, h.Stats())
					}
					a := h.Release()
					for i, w := range a.words {
						if w != 0 || a.state[i] != 0 {
							t.Fatalf("seed %d: word %d not cleared: value %#x, state %d", seed, i, w, a.state[i])
						}
					}
					reused := NewIn(cfg, a)
					if &reused.words[0] != &a.words[0] {
						t.Fatal("NewIn did not reuse a matching arena")
					}
					fresh := New(cfg)
					if got, want := churnHeap(reused, seed+100, 1500), churnHeap(fresh, seed+100, 1500); got != want {
						t.Fatalf("seed %d: recycled arena read digest %#x, fresh %#x", seed, got, want)
					}
					if reused.Stats() != fresh.Stats() {
						t.Fatalf("seed %d: recycled stats %+v, fresh %+v", seed, reused.Stats(), fresh.Stats())
					}
				}
			})
		}
	}
}

func TestNewInFallsBackOnMismatch(t *testing.T) {
	cfg := Config{Words: 1 << 14, Check: true}
	released := func() *Arena {
		h := New(cfg)
		h.Alloc(64)
		return h.Release()
	}
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"larger", Config{Words: 1 << 15, Check: true}},
		{"smaller", Config{Words: 1 << 13, Check: true}},
		{"unchecked", Config{Words: 1 << 14}},
	} {
		a := released()
		h := NewIn(c.cfg, a)
		if &h.words[0] == &a.words[0] {
			t.Errorf("%s: NewIn reused a mismatched arena", c.name)
		}
		if len(h.words) != c.cfg.Words || (h.state != nil) != c.cfg.Check {
			t.Errorf("%s: fallback arena has %d words, checked %v", c.name, len(h.words), h.state != nil)
		}
	}
	if h := NewIn(cfg, nil); len(h.words) != cfg.Words || h.state == nil {
		t.Error("NewIn(cfg, nil) did not allocate a fresh checked arena")
	}
	if a := New(Config{Words: 1 << 14}).Release(); a != nil {
		t.Error("an unchecked heap released its arena for reuse")
	}
}

// expectPanic runs f and returns the message of the panic it raised.
func expectPanic(t *testing.T, what string, f func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("%s: no panic", what)
		}
		msg = fmt.Sprint(r)
	}()
	f()
	return ""
}

func TestReleasedHeapPanics(t *testing.T) {
	for _, pc := range arenaPolicies {
		t.Run(fmt.Sprintf("%v/nodes=%d", pc.policy, pc.nodes), func(t *testing.T) {
			h := New(Config{Words: 1 << 14, Check: true, Poison: true, Nodes: pc.nodes, Policy: pc.policy})
			addr := h.Alloc(64)
			c := h.NewCache()
			h.Release()
			for _, op := range []struct {
				name string
				f    func()
			}{
				{"load", func() { h.Load(addr) }},
				{"store", func() { h.Store(addr, 1) }},
				{"cas", func() { h.CompareAndSwap(addr, 0, 1) }},
			} {
				if v := expectViolation(t, VWildAccess, op.f); v.Op != op.name {
					t.Errorf("%s on a released heap reported op %q", op.name, v.Op)
				}
			}
			for _, op := range []struct {
				name string
				f    func()
			}{
				{"alloc", func() { h.Alloc(64) }},
				{"alloc span", func() { h.Alloc(4 * PageWords * WordSize) }},
				{"cache alloc", func() { c.Alloc(64) }},
			} {
				if msg := expectPanic(t, op.name, op.f); !strings.Contains(msg, "released heap") {
					t.Errorf("%s on a released heap: %q", op.name, msg)
				}
			}
			expectViolation(t, VWildAccess, func() { h.Free(addr) })
			if msg := expectPanic(t, "second Release", func() { h.Release() }); !strings.Contains(msg, "released heap") {
				t.Errorf("second Release: %q", msg)
			}
		})
	}
}
