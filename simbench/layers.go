package main

import (
	"time"

	"pmsb/internal/ecn"
	"pmsb/internal/pkt"
	"pmsb/internal/sched"
	"pmsb/internal/sim"
	"pmsb/internal/topo"
)

// Per-layer probes of the traced run. Every probe wraps a call into a
// layer from the outside — a decorator on a factory the topology
// builders already take — so the simulator itself is unchanged. Per
// packet calls are counted exactly; the clock is read only on every
// (sampleMask+1)-th call, because a marker decision (~4 ns) is cheaper
// than the clock read that would time it.

// sampleMask selects the timed calls: call n is timed iff n&sampleMask == 0.
const sampleMask = 63

// opStats is one probe's tally. A probe belongs to one port, and a port
// to one shard engine, so a probe is only touched by one goroutine.
type opStats struct {
	calls int64         // every call
	timed int64         // calls whose duration was measured
	busy  time.Duration // summed duration of the timed calls
	hits  int64         // marker probes: decisions that marked
}

// timeIt runs fn, timing it when the call falls on the sample.
func (st *opStats) timeIt(fn func()) {
	st.calls++
	if st.calls&sampleMask != 0 {
		fn()
		return
	}
	t0 := time.Now()
	fn()
	st.busy += time.Since(t0)
	st.timed++
}

// busySeconds extrapolates the sampled busy time to every call, after
// removing the clock-read cost each timed call carried.
func (st *opStats) busySeconds(clockCost time.Duration) float64 {
	if st.timed == 0 {
		return 0
	}
	net := st.busy - time.Duration(st.timed)*clockCost
	if net < 0 {
		net = 0
	}
	return net.Seconds() * float64(st.calls) / float64(st.timed)
}

// measureClockCost returns the median duration a timed region reports
// around no work: the part of every sample that is the clock, not the
// layer.
func measureClockCost() time.Duration {
	const n = 4001
	d := make([]float64, n)
	for i := range d {
		t0 := time.Now()
		d[i] = float64(time.Since(t0))
	}
	return time.Duration(median(d))
}

// probeSet owns every probe of one sample, keyed by the layer kind
// ("dwrr", "wfq", "pmsb", ...). Probes are registered while the
// topology is built (one goroutine) and read after the run.
type probeSet struct {
	sched   map[string][]*opStats
	markers map[string][]*opStats
	depth   []*depthHist // one per shard
}

func newProbeSet() *probeSet {
	return &probeSet{sched: map[string][]*opStats{}, markers: map[string][]*opStats{}}
}

// total sums the probes registered under one key: one scheduler
// discipline or one marking scheme, over every port.
func total(m map[string][]*opStats, key string) opStats {
	var t opStats
	for _, st := range m[key] {
		t.calls += st.calls
		t.timed += st.timed
		t.hits += st.hits
		t.busy += st.busy
	}
	return t
}

// wrapSched decorates a scheduler factory: every scheduler it builds is
// returned behind a counting probe registered under kind. A nil
// probeSet returns the factory unchanged.
func (ps *probeSet) wrapSched(kind string, f topo.SchedFactory) topo.SchedFactory {
	if ps == nil {
		return f
	}
	return func(weights []float64) sched.Scheduler { return ps.schedProbe(kind, f(weights)) }
}

// wrapSchedBlock is wrapSched for the slab-backed factory.
func (ps *probeSet) wrapSchedBlock(kind string, f topo.SchedBlockFactory) topo.SchedBlockFactory {
	if ps == nil {
		return f
	}
	return func(eng *sim.Engine, weights []float64, n int) func() sched.Scheduler {
		next := f(eng, weights, n)
		return func() sched.Scheduler { return ps.schedProbe(kind, next()) }
	}
}

func (ps *probeSet) schedProbe(kind string, s sched.Scheduler) sched.Scheduler {
	st := &opStats{}
	ps.sched[kind] = append(ps.sched[kind], st)
	return decorateSched(s, st)
}

// wrapMarker decorates a marker factory the same way.
func (ps *probeSet) wrapMarker(kind string, f topo.MarkerFactory) topo.MarkerFactory {
	if ps == nil {
		return f
	}
	return func() ecn.Marker {
		st := &opStats{}
		ps.markers[kind] = append(ps.markers[kind], st)
		return &markerProbe{inner: f(), st: st}
	}
}

// idleObserver mirrors the optional interface netsim.Port calls on
// enqueue after an idle gap (DWRR resets its round time there).
type idleObserver interface {
	ObserveIdle(now time.Duration)
}

// schedProbe counts and samples Enqueue and Dequeue; every other method
// forwards untimed. It forwards ObserveIdle when the wrapped scheduler
// has it (a no-op otherwise, exactly as an unwrapped port would do).
type schedProbe struct {
	inner sched.Scheduler
	st    *opStats
}

// roundSchedProbe additionally exposes sched.RoundInfo. A port reads
// round state through a type assertion, so a probe hiding it would turn
// MQ-ECN's dynamic threshold off and change the simulation.
type roundSchedProbe struct {
	schedProbe
	round sched.RoundInfo
}

// decorateSched returns s behind a probe that implements exactly the
// optional interfaces s implements.
func decorateSched(s sched.Scheduler, st *opStats) sched.Scheduler {
	p := schedProbe{inner: s, st: st}
	if ri, ok := s.(sched.RoundInfo); ok {
		return &roundSchedProbe{schedProbe: p, round: ri}
	}
	return &p
}

func (s *schedProbe) Name() string                  { return s.inner.Name() }
func (s *schedProbe) NumQueues() int                { return s.inner.NumQueues() }
func (s *schedProbe) QueueBytes(q int) int          { return s.inner.QueueBytes(q) }
func (s *schedProbe) QueuePackets(q int) int        { return s.inner.QueuePackets(q) }
func (s *schedProbe) TotalBytes() int               { return s.inner.TotalBytes() }
func (s *schedProbe) TotalPackets() int             { return s.inner.TotalPackets() }
func (s *schedProbe) Weight(q int) float64          { return s.inner.Weight(q) }
func (s *schedProbe) WeightSum() float64            { return s.inner.WeightSum() }
func (s *roundSchedProbe) RoundTime() time.Duration { return s.round.RoundTime() }
func (s *roundSchedProbe) QuantumBytes(q int) int   { return s.round.QuantumBytes(q) }

func (s *schedProbe) ObserveIdle(now time.Duration) {
	if io, ok := s.inner.(idleObserver); ok {
		io.ObserveIdle(now)
	}
}

func (s *schedProbe) Enqueue(q int, p *pkt.Packet) {
	s.st.timeIt(func() { s.inner.Enqueue(q, p) })
}

func (s *schedProbe) Dequeue() (p *pkt.Packet, q int, ok bool) {
	s.st.timeIt(func() { p, q, ok = s.inner.Dequeue() })
	return p, q, ok
}

// markerProbe counts and samples ShouldMark decisions and their marks.
type markerProbe struct {
	inner ecn.Marker
	st    *opStats
}

func (m *markerProbe) Name() string     { return m.inner.Name() }
func (m *markerProbe) Point() ecn.Point { return m.inner.Point() }

func (m *markerProbe) ShouldMark(pv ecn.PortView, q int, p *pkt.Packet) (mark bool) {
	m.st.timeIt(func() { mark = m.inner.ShouldMark(pv, q, p) })
	if mark {
		m.st.hits++
	}
	return mark
}

// depthHist counts port occupancy, in packets, seen after each enqueue.
type depthHist struct {
	counts []int64
}

func (h *depthHist) add(pkts int) {
	for pkts >= len(h.counts) {
		h.counts = append(h.counts, make([]int64, len(h.counts)+64)...)
	}
	h.counts[pkts]++
}

// depthQuantile returns the smallest depth at or below which a share q
// of all samples across hs lies (0 when there are none).
func depthQuantile(hs []*depthHist, q float64) float64 {
	var merged []int64
	var n int64
	for _, h := range hs {
		for len(merged) < len(h.counts) {
			merged = append(merged, 0)
		}
		for i, c := range h.counts {
			merged[i] += c
			n += c
		}
	}
	if n == 0 {
		return 0
	}
	need := int64(q * float64(n))
	var seen int64
	for i, c := range merged {
		seen += c
		if seen > need || seen == n {
			return float64(i)
		}
	}
	return float64(len(merged) - 1)
}
