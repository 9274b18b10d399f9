package core

// Ring is the per-thread delete buffer: a bounded single-producer,
// single-consumer circular array (paper §4.2, "Reclamation").  The
// owning thread pushes retired node addresses; the current reclaimer —
// unique, because classic collects are serialized by a lock — drains it
// into the master buffer.  Under PerNode the owner drains it when it
// fills (pernode.go); only forced collects and teardown drain another
// thread's ring.  Head and tail are monotone counters; the paper's
// "single-reader, single-writer, so concurrent accesses are simple and
// inexpensive" property maps here to push/drain being safepoint-atomic.
type Ring struct {
	buf  []uint64
	head uint64 // next index to read (reclaimer)
	tail uint64 // next index to write (owner)
}

// NewRing creates a ring with the given capacity (minimum 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]uint64, capacity)}
}

// Push appends v, reporting false when the ring is full.
func (r *Ring) Push(v uint64) bool {
	if r.tail-r.head == uint64(len(r.buf)) {
		return false
	}
	r.buf[r.tail%uint64(len(r.buf))] = v
	r.tail++
	return true
}

// Drain appends every buffered value to out and empties the ring,
// returning the extended slice and the number of values drained.
func (r *Ring) Drain(out []uint64) ([]uint64, int) {
	n := 0
	for r.head < r.tail {
		out = append(out, r.buf[r.head%uint64(len(r.buf))])
		r.head++
		n++
	}
	return out, n
}

// Len returns the number of buffered values.
func (r *Ring) Len() int { return int(r.tail - r.head) }

// Cap returns the ring's capacity.
func (r *Ring) Cap() int { return len(r.buf) }

// Full reports whether a Push would fail.
func (r *Ring) Full() bool { return r.tail-r.head == uint64(len(r.buf)) }
