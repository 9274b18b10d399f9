package workload

// Op-trace hashing: every worker folds each (op, key, result) it
// executes into an FNV-1a accumulator, and the engine folds the
// per-worker sums (in spawn order) into one run digest.  Two runs of
// the same scenario with the same seed must produce identical digests —
// the determinism contract the scenario tests assert — and any change
// to scheduling, distributions, or structure behavior shows up as a
// digest change long before it shows up as a statistics change.

const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

// Trace accumulates one worker's op stream.
type Trace struct {
	sum uint64
	n   uint64
}

// NewTrace returns an empty accumulator.
func NewTrace() Trace { return Trace{sum: fnvOffset} }

// Record folds one executed operation into the trace.
func (t *Trace) Record(op Op, key uint64, ok bool) {
	h := t.sum
	h = fnvWord(h, uint64(op))
	h = fnvWord(h, key)
	if ok {
		h = fnvWord(h, 1)
	} else {
		h = fnvWord(h, 2)
	}
	t.sum = h
	t.n++
}

// Ops returns the number of recorded operations.
func (t *Trace) Ops() uint64 { return t.n }

// Sum returns the digest so far.
func (t *Trace) Sum() uint64 { return t.sum }

// CombineTraces folds per-worker digests (in a fixed order) into one
// run digest.
func CombineTraces(sums []uint64) uint64 {
	h := uint64(fnvOffset)
	for _, s := range sums {
		h = fnvWord(h, s)
	}
	return h
}

// fnvZeroPow[n] is fnvPrime^n: FNV-1a over a zero byte is a bare
// multiply by the prime, so n zero bytes fold as one multiply by
// fnvZeroPow[n].
var fnvZeroPow = func() (p [9]uint64) {
	p[0] = 1
	for i := 1; i < len(p); i++ {
		p[i] = p[i-1] * fnvPrime
	}
	return p
}()

// fnvWord folds one 64-bit word into an FNV-1a state byte by byte,
// low byte first.  It folds bytes only up to the word's last non-zero
// one and then applies the remaining zero bytes with one multiply, so
// small words (ops, results, keys) cost a few multiplies instead of
// eight, with the digest unchanged.
func fnvWord(h, w uint64) uint64 {
	n := 8
	for ; w != 0; w >>= 8 {
		h ^= w & 0xFF
		h *= fnvPrime
		n--
	}
	return h * fnvZeroPow[n]
}
