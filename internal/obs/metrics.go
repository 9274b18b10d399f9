// Virtual-time metrics engine: a typed registry of named series —
// counters, gauges, windowed rates, windowed histogram quantiles —
// sampled on virtual-clock boundaries at a configurable interval.
//
// The engine shares the recorder's zero-cost contract, twice over.  A
// nil or disabled *Metrics makes every call (registration, Tick,
// Series) a guarded no-op that allocates nothing.  And an *enabled* engine never
// charges virtual cycles: sampling is host-side reading driven by the
// scheduler's clock-advance hook (simt.Sim.OnClockAdvance), so
// attaching one cannot perturb a simulation's schedule, clock, or op
// trace — TestMetricsOffIsBitIdentical in internal/harness locks the
// invariant against the captured baseline.
//
// Sources are registered once at setup (closures are allocated there,
// on the cold path) and only *read* on the sampling path.  Sample
// times are quantized to interval boundaries, so two runs whose clocks
// advance through the same virtual times produce identical timelines
// regardless of event granularity.
//
// Post-run, Series() exports every timeline for JSON/CSV, the
// sparkline report, and the cross-run regression differ (DiffMetrics).
package obs

// SeriesKind types a metric series.
type SeriesKind uint8

const (
	// SeriesCounter is a cumulative, monotone total (retired nodes,
	// collects, steals).  Points store the running total; windowed
	// deltas and slopes are derived views (Series.Deltas, Steady).
	SeriesCounter SeriesKind = iota
	// SeriesGauge is an instantaneous level re-read every window
	// (retired-but-unreclaimed garbage, live heap words).
	SeriesGauge
	// SeriesRate is a pre-windowed delta: each point is the change of
	// an underlying total across one sampling window (ops per window =
	// throughput).
	SeriesRate
	// SeriesQuantile is a windowed histogram quantile: each point
	// digests only the observations that landed in that window, so tail
	// latency is resolved over time instead of averaged over the run.
	SeriesQuantile

	numSeriesKinds
)

var seriesKindNames = [numSeriesKinds]string{
	"counter", "gauge", "rate", "quantile",
}

// String returns the kind's JSON/report name.
func (k SeriesKind) String() string {
	if k < numSeriesKinds {
		return seriesKindNames[k]
	}
	return "unknown"
}

// Point is one sample: a virtual time and a value.
type Point struct {
	At int64   `json:"at"` // virtual cycles
	V  float64 `json:"v"`
}

// Series is one exported timeline.  SteadyMean and SteadySlope digest
// the steady-state window (see Steady) so consumers — the regression
// differ above all — can compare runs without re-deriving them.
type Series struct {
	Name   string  `json:"name"`
	Kind   string  `json:"kind"`
	Points []Point `json:"points"`

	// SteadyMean is the mean level over the steady-state window
	// (windowed deltas for counters, raw values otherwise).
	SteadyMean float64 `json:"steady_mean"`
	// SteadySlope is the least-squares slope of the same window, in
	// value per million virtual cycles.
	SteadySlope float64 `json:"steady_slope"`
}

// source is one polled series: each sample stores read()'s value for
// the window just closed.
type source struct {
	name string
	kind SeriesKind
	read func() float64
	pts  []Point
}

// Metrics is the engine: a registry of sources sampled at Every-cycle
// virtual-time boundaries.  The zero value (and a nil pointer) is a
// disabled engine; construct enabled ones with NewMetrics.
//
// Like the Recorder, a Metrics needs no synchronization: the simt
// scheduler is single-threaded on the host side, and Tick runs from
// its dispatch loop between thread quanta.
type Metrics struct {
	enabled bool
	every   int64
	nextAt  int64
	sources []*source
}

// NewMetrics returns an enabled engine sampling every `every` virtual
// cycles.  every <= 0 disables the ticker (Tick becomes a no-op).
func NewMetrics(every int64) *Metrics {
	return &Metrics{enabled: true, every: every, nextAt: every}
}

// ---------------------------------------------------------------------
// Registration (cold path — runs once at setup, before Sim.Run).

func (m *Metrics) add(name string, kind SeriesKind, read func() float64) {
	if m == nil || !m.enabled {
		return
	}
	m.sources = append(m.sources, &source{name: name, kind: kind, read: read})
}

// Counter registers a cumulative total; read must be monotone
// non-decreasing for the derived deltas to mean anything.
func (m *Metrics) Counter(name string, read func() uint64) {
	if m == nil || !m.enabled {
		return
	}
	m.add(name, SeriesCounter, func() float64 { return float64(read()) })
}

// Gauge registers an instantaneous level.
func (m *Metrics) Gauge(name string, read func() float64) {
	m.add(name, SeriesGauge, read)
}

// Rate registers a windowed delta over a cumulative total: each sample
// stores read() minus the previous window's reading.  The baseline is
// read at registration time, so the first window's delta is relative
// to setup, not to zero.
func (m *Metrics) Rate(name string, read func() uint64) {
	if m == nil || !m.enabled {
		return
	}
	prev := read()
	m.add(name, SeriesRate, func() float64 {
		v := read()
		d := v - prev
		prev = v
		return float64(d)
	})
}

// Quantile registers a windowed histogram quantile.  read must *fill*
// the passed histogram with the cumulative distribution so far (it is
// Reset before every call); each sample digests only the window's
// delta against the previous snapshot.  The two snapshots are values,
// not pointers, so taking one is an array copy, never an allocation.
func (m *Metrics) Quantile(name string, q float64, read func(*Hist)) {
	if m == nil || !m.enabled {
		return
	}
	var cur, prev Hist
	m.add(name, SeriesQuantile, func() float64 {
		cur.Reset()
		read(&cur)
		v := deltaQuantile(&cur, &prev, q)
		prev = cur
		return float64(v)
	})
}

// ---------------------------------------------------------------------
// Sampling (hot path — called from the scheduler's clock-advance hook;
// reads state, never charges virtual cycles).

// Tick advances the engine to virtual time now, taking one sample row
// per crossed interval boundary.  Samples are stamped with the
// boundary time, not now, so timelines from runs with different event
// granularity line up point for point.  Install with
// sim.OnClockAdvance(m.Tick).
func (m *Metrics) Tick(now int64) {
	if m == nil || !m.enabled || m.every <= 0 {
		return
	}
	for now >= m.nextAt {
		m.sample(m.nextAt)
		m.nextAt += m.every
	}
}

// sample takes one row across every source.
func (m *Metrics) sample(at int64) {
	if m == nil || !m.enabled {
		return
	}
	for _, src := range m.sources {
		src.pts = append(src.pts, Point{at, src.read()})
	}
}

// deltaQuantile recovers quantile q of the observations in cur that
// are not in prev (cur must be a superset snapshot taken later).  The
// window's exact max is unknown, so the estimate clamps to cur's
// cumulative max — still an upper bound.
func deltaQuantile(cur, prev *Hist, q float64) int64 {
	n := cur.n - prev.n
	if n <= 0 {
		return 0
	}
	rank := int64(float64(n)*q + 0.999999)
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	var cum int64
	for i := range cur.counts {
		c := cur.counts[i] - prev.counts[i]
		if c == 0 {
			continue
		}
		cum += c
		if cum >= rank {
			v := bucketValue(i)
			if v > cur.max {
				v = cur.max
			}
			return v
		}
	}
	return cur.max
}

// Series exports every timeline in deterministic order: counters,
// gauges, rates, then quantiles, each group in registration order.
// Steady-window digests are computed here, on the cold path.
func (m *Metrics) Series() []Series {
	if m == nil || !m.enabled {
		return nil
	}
	var out []Series
	for kind := SeriesKind(0); kind < numSeriesKinds; kind++ {
		for _, src := range m.sources {
			if src.kind == kind {
				out = append(out, finishSeries(src.name, kind, src.pts))
			}
		}
	}
	return out
}

func finishSeries(name string, kind SeriesKind, pts []Point) Series {
	s := Series{Name: name, Kind: kind.String(), Points: pts}
	st := s.Steady()
	s.SteadyMean, s.SteadySlope = st.Mean, st.Slope
	return s
}
