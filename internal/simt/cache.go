package simt

// coreCache is a per-core 4-way set-associative cache model over
// 64-byte lines.  It exists to reproduce the locality structure the
// paper's results depend on: the 1024-node linked list is
// cache-resident (so hazard fences dominate its per-step cost), while
// the 131k-node hash table misses on nearly every step (so fences are
// comparatively cheap there).
//
// Associativity matters: a direct-mapped model charges the Leaky
// baseline spurious conflict misses as its leaked footprint grows,
// inverting the paper's leaky-is-the-ceiling ordering.  Four ways with
// round-robin replacement tracks real L2 behaviour closely enough.
//
// A tag entry is the line number with the valid bit set, so a zeroed
// way never matches.
type coreCache struct {
	tags    []uint64 // sets x ways
	victim  []uint8  // per-set round-robin replacement cursor
	setMask uint64
}

const (
	lineShift  = 6 // 64-byte lines
	cacheWays  = 4
	entryValid = 1 << 63
)

// newCoreCache builds a cache with the given total line count (rounded
// up to a power-of-two set count by the caller's config fill).
func newCoreCache(lines int) coreCache {
	sets := lines / cacheWays
	if sets < 1 {
		sets = 1
	}
	return coreCache{
		tags:    make([]uint64, sets*cacheWays),
		victim:  make([]uint8, sets),
		setMask: uint64(sets - 1),
	}
}

// access touches addr and reports whether it hit.
func (c *coreCache) access(addr uint64) bool {
	line := addr >> lineShift
	set := line & c.setMask
	base := int(set) * cacheWays
	entry := entryValid | line
	for w := 0; w < cacheWays; w++ {
		if c.tags[base+w] == entry {
			return true
		}
	}
	v := c.victim[set]
	c.tags[base+int(v)] = entry
	c.victim[set] = (v + 1) % cacheWays
	return false
}
