package obs

import (
	"math"
	"math/bits"
)

// Hist is an HDR-style log-linear histogram of non-negative
// virtual-cycle values.  The bucket layout is 64 power-of-two rows of 32
// linear sub-buckets: values below 32 land in their own bucket (exact),
// and every larger bucket spans 1/32 of its row's range, so quantile
// recovery is within 1/16 (6.25%) relative error across the full int64
// range.  Observing and merging never allocate, and Merge is an
// element-wise sum — deterministic and commutative.  A Recorder keeps
// one Hist per stage that every thread observes into.  Hist is a plain
// value with no pointers, so the metrics engine's window snapshots are
// array copies.
const (
	histSubBits    = 5
	histSubBuckets = 1 << histSubBits
	histRows       = 64
	histBuckets    = histRows * histSubBuckets
)

// Hist is safe to use from simulated threads without synchronization:
// the scheduler serializes them.  The zero value is ready to use.
type Hist struct {
	counts [histBuckets]int64
	n      int64
	sum    int64
	max    int64
}

// NewHist returns an empty histogram.
func NewHist() *Hist { return &Hist{} }

// bucketOf maps a value to its bucket index.  Negative values clamp to
// bucket 0 (durations are never negative; the clamp keeps a buggy
// caller from indexing out of range).
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	e := bits.Len64(uint64(v)) - histSubBits
	if e <= 0 {
		return int(v)
	}
	return e*histSubBuckets + int(uint64(v)>>uint(e))
}

// bucketValue returns the largest value that maps to bucket idx — the
// conservative (upper-bound) representative quantile recovery reports.
func bucketValue(idx int) int64 {
	e := idx / histSubBuckets
	m := int64(idx % histSubBuckets)
	if e == 0 {
		return m
	}
	return (m+1)<<uint(e) - 1
}

// Observe records one value.
func (h *Hist) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(v)]++
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Reset empties the histogram in place without allocating, so the
// metrics engine can reuse one Hist per quantile source per window.
func (h *Hist) Reset() {
	h.counts = [histBuckets]int64{}
	h.n = 0
	h.sum = 0
	h.max = 0
}

// Count returns the number of observations.
func (h *Hist) Count() int64 { return h.n }

// Sum returns the sum of all observed values.
func (h *Hist) Sum() int64 { return h.sum }

// Max returns the exact maximum observed value (not bucketized).
func (h *Hist) Max() int64 { return h.max }

// Merge adds o's observations into h.
func (h *Hist) Merge(o *Hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// Quantile returns an upper-bound estimate of the q-quantile (q in
// [0, 1]): the representative of the first bucket whose cumulative
// count reaches ceil(q*n), clamped to the exact observed maximum.  For
// values below 32 the estimate is exact.  An empty histogram reports 0.
func (h *Hist) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var cum int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += c
		if cum >= rank {
			v := bucketValue(i)
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}
