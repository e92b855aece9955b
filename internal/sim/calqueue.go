package sim

import (
	"math/bits"
	"time"
)

// calQueue is a lazy calendar queue: the engine's default scheduler.
//
// Near-future events live in an array of buckets, each covering one
// `width`-wide slice of virtual time; the active window spans
// len(buckets) consecutive slices starting at the bucket currently
// being drained. Insert hashes the event's time to its bucket and chains
// it into a (at, seq)-sorted intrusive list — O(1) for the common
// time-ordered arrival (tail append), O(chain) otherwise. Pop drains
// the current bucket, then advances slice by slice; each advance slides
// the window forward one slice and lazily migrates due events in from
// the overflow tier.
//
// Two rebuilds keep chains short. A resize doubles or halves the bucket
// array when the population crosses a power-of-two threshold; a retune
// rebuilds at the same size when the measured insert cost (chain-walk
// steps plus overflow migrations) says the width has gone stale — the
// event mix drifts as a fabric fills and drains, so a width chosen at
// the last resize can misfit for the rest of a run (Brown's
// cost-triggered resize, CACM 1988). Either way the width comes from
// the density of the near-future events (chooseShift), not from the
// far timers that dominate the mean offset.
//
// Far-future events — RTOs, tickers, anything scheduled beyond the
// window — go to an overflow 4-ary heap (heapQueue) and pay one
// O(log n) push+pop when they migrate in, typically long after the
// timers they model were cancelled. This keeps the window dense, so the
// amortized per-event cost of the bucket tier stays O(1) no matter how
// many far timers are pending.
//
// Determinism: pop returns the exact (at, seq) minimum, byte-identical
// to heapQueue's order. The argument (see DESIGN.md §6): buckets
// partition time into slices scanned in increasing order, each chain is
// kept sorted by (at, seq) on insert, and the overflow tier only holds
// events at or beyond the window end — strictly later than anything the
// scan can return. TestDifferentialQueues and the netsim workload
// differential in differential_test.go verify this against heapQueue.
type calQueue struct {
	buckets []calBucket // power-of-two length
	// width is the time slice per bucket: always 1<<shift nanoseconds,
	// so the at->bucket hash is a shift instead of a 64-bit division
	// (the division showed up at ~15% of the forwarding hot path).
	width time.Duration
	shift uint
	count int // events resident in buckets (overflow excluded)

	cur       int           // bucket currently being drained
	bucketTop time.Duration // end of cur's time slice (multiple of width)
	winEnd    time.Duration // end of the active window; events >= winEnd overflow
	lastAt    time.Duration // time of the last popped event (monotone)

	overflow heapQueue
	scratch  []*event // rebuild workspace, reused across resizes

	// Churn counters for Engine.Stats, maintained unconditionally: they
	// live on the rebuild and overflow-migration paths, which amortize
	// against many pops, never on the per-pop fast path.
	grows      uint64
	shrinks    uint64
	migrations uint64
	retunes    uint64

	// Insert-cost accounting: inserts counts bucket-tier insertions and
	// scanSteps the chain links they walked past. Both also drive the
	// retune trigger (checkCost), so Engine.Stats reads them for free.
	inserts   uint64
	scanSteps uint64
	// checkAt is the inserts count at which push next checks whether
	// excess() grew since checkExcess was taken; backoff doubles the
	// check interval after each retune that left the width unchanged.
	checkAt     uint64
	checkExcess int64
	backoff     uint
}

// calBucket chains events whose time hashes to this slice, sorted
// ascending by (at, seq). The tail pointer makes the dominant
// append-at-end insertion O(1), including long same-timestamp runs.
type calBucket struct {
	head, tail *event
}

const (
	// calMinBuckets bounds shrinking so small simulations don't thrash
	// resize; 64 near-empty buckets cost one pointer check each to skip.
	calMinBuckets = 64
	// calInitShift is the slice width exponent before the first resize
	// computes a data-driven one: 2^10 ns ~= 1us (packet-level workloads
	// cluster around microsecond-scale serialization deltas).
	calInitShift = 10
	// calRetuneWindow is the minimum number of inserts between two cost
	// checks; the interval also scales with the population, so a
	// retune's O(len) rebuild amortizes to O(1) per insert.
	calRetuneWindow = 1024
	// calRetuneSteps is the mean insert cost, in chain-walk steps, above
	// which a check re-picks the width. A well-sized calendar walks well
	// under one link per insert; a stale width walks tens.
	calRetuneSteps = 2
	// calMigrateSteps prices an overflow migration in chain-walk steps:
	// it pays a heap push and pop (a few 4-ary sift levels) plus the
	// bucket insert. A window too narrow for the near-future cluster
	// walks no chains but routes the cluster through the heap, and this
	// makes the retune trigger see it.
	calMigrateSteps = 8
	// calLoadLog2 is log2 of the events per bucket chooseShift allows in
	// the densest octave of the window.
	calLoadLog2 = 2
	// calMaxBackoff caps the check interval's doubling (2^6 = 64x) for a
	// workload whose cost no width fixes, such as a cluster packed
	// denser than one event per nanosecond, the narrowest width.
	calMaxBackoff = 6
)

func newCalQueue() *calQueue {
	c := &calQueue{
		buckets: make([]calBucket, calMinBuckets),
		shift:   calInitShift,
		width:   1 << calInitShift,
	}
	c.anchor(0)
	c.restartCheck()
	return c
}

func (c *calQueue) len() int { return c.count + c.overflow.len() }

// anchor positions the window so the slice containing time at is the
// current bucket. Callers must migrate (or reinsert) afterwards if
// overflow events may now fall inside the window.
func (c *calQueue) anchor(at time.Duration) {
	d := at >> c.shift
	c.cur = int(uint64(d) & uint64(len(c.buckets)-1))
	c.bucketTop = (d + 1) << c.shift
	c.winEnd = c.bucketTop + c.width*time.Duration(len(c.buckets)-1)
}

// push inserts ev, routing far-future events to the overflow tier. The
// grow trigger counts both tiers: the window must widen with the total
// pending population, or a long-horizon workload would pool in the
// overflow heap and pay its O(log n) on every event.
//
// Once per check interval push also runs the retune trigger (checkCost).
func (c *calQueue) push(ev *event) {
	if ev.at >= c.winEnd {
		c.overflow.push(ev)
	} else {
		if ev.at < c.bucketTop-c.width {
			// The event lands in a slice behind the scan cursor. Serial
			// scheduling can't do this (insert clamps to the clock, which
			// never trails the slice under scan), but a cross-shard
			// injection can: the window may have anchored ahead — to the
			// overflow minimum after a transient drain, or across an empty
			// gap — while the shard's clock, which lower-bounds injected
			// arrival times, lags behind it. Rewind the window so the scan
			// revisits the event's slice. Events left in the de-windowed
			// top slices alias harmlessly: pop and peek admit a bucket's
			// head only when its time falls inside the slice under scan, so
			// they simply wait until the window advances back over them.
			c.anchor(ev.at)
		}
		c.insertBucket(ev)
		c.count++
	}
	if c.count+c.overflow.len() > 2*len(c.buckets) {
		c.rebuild(2 * len(c.buckets))
	} else if c.inserts >= c.checkAt {
		c.checkCost()
	}
}

// checkCost retunes the width when the inserts since the last check
// cost more than calRetuneSteps each: the chain links they walked plus
// calMigrateSteps per overflow migration. A retune that picks the width
// already in use fixed nothing, so it doubles the interval before the
// next check (up to calMaxBackoff doublings); one that moves the width
// resets it.
func (c *calQueue) checkCost() {
	if c.excess() <= c.checkExcess {
		c.restartCheck()
		return
	}
	shift := c.shift
	c.retunes++
	c.rebuild(len(c.buckets))
	if c.shift != shift {
		c.backoff = 0
	} else if c.backoff < calMaxBackoff {
		c.backoff++
	}
	c.restartCheck() // again: the interval depends on the new backoff
}

// excess is the queue's lifetime insert cost beyond calRetuneSteps per
// insert: chain-walk steps plus calMigrateSteps per migration, less
// calRetuneSteps per bucket insert. It grows over a window exactly when
// that window's inserts cost more than the bound.
func (c *calQueue) excess() int64 {
	return int64(c.scanSteps+calMigrateSteps*c.migrations) - int64(calRetuneSteps*c.inserts)
}

// restartCheck opens a new cost window at the current counts. Every
// rebuild restarts it, so a window never charges the rebuild's own
// reinsertions to the steady state.
func (c *calQueue) restartCheck() {
	c.checkExcess = c.excess()
	c.checkAt = c.inserts + uint64(max(calRetuneWindow, c.len()))<<c.backoff
}

// insertBucket chains ev into its slice's sorted list.
func (c *calQueue) insertBucket(ev *event) {
	c.inserts++
	b := &c.buckets[int(uint64(ev.at>>c.shift)&uint64(len(c.buckets)-1))]
	switch {
	case b.tail == nil:
		ev.next = nil
		b.head, b.tail = ev, ev
	case !eventLess(ev, b.tail):
		// Time-ordered arrival (and every same-timestamp run, since seq
		// grows monotonically): append at the tail.
		ev.next = nil
		b.tail.next = ev
		b.tail = ev
	case eventLess(ev, b.head):
		ev.next = b.head
		b.head = ev
	default:
		p, steps := b.head, uint64(0)
		for !eventLess(ev, p.next) {
			p = p.next
			steps++
		}
		c.scanSteps += steps
		ev.next = p.next
		p.next = ev
	}
}

// pop removes and returns the (at, seq)-minimum event, or nil when the
// queue is empty.
func (c *calQueue) pop() *event {
	if c.count == 0 {
		o := c.overflow.peek()
		if o == nil {
			return nil
		}
		// The window drained: jump it to the overflow minimum and pull
		// the now-due tier in.
		c.anchor(o.at)
		c.migrate()
	}
	steps := 0
	for {
		b := &c.buckets[c.cur]
		if ev := b.head; ev != nil && ev.at < c.bucketTop {
			b.head = ev.next
			if b.head == nil {
				b.tail = nil
			}
			ev.next = nil
			c.count--
			c.lastAt = ev.at
			if c.count+c.overflow.len() < len(c.buckets)/4 && len(c.buckets) > calMinBuckets {
				c.rebuild(len(c.buckets) / 2)
			}
			return ev
		}
		// Empty slice: slide the window one slice forward. If the scan
		// has crossed half the buckets the next event sits across a wide
		// empty gap — long-jump straight to it instead of creeping
		// (amortized: the jump's O(buckets) search is paid for by the
		// O(buckets) of skipping we just avoided).
		if steps++; steps > len(c.buckets)/2 {
			// Jump to the true minimum across both tiers: after a rewind
			// (see push) the bucket tier may hold de-windowed events that
			// sort after the overflow minimum, and anchoring past it would
			// make migrate land it behind the cursor.
			m := c.directMin()
			if o := c.overflow.peek(); o != nil && eventLess(o, m) {
				m = o
			}
			c.anchor(m.at)
			c.migrate()
			steps = 0
			continue
		}
		c.advance()
	}
}

// peek returns the (at, seq)-minimum event without removing it, or nil.
// It never mutates the queue, so interleaved peeks and pushes stay safe.
func (c *calQueue) peek() *event {
	var cand *event
	if c.count > 0 {
		cur, top := c.cur, c.bucketTop
		for i := 0; i <= len(c.buckets); i++ {
			b := &c.buckets[cur]
			if ev := b.head; ev != nil && ev.at < top {
				cand = ev
				break
			}
			top += c.width
			if cur++; cur == len(c.buckets) {
				cur = 0
			}
		}
		if cand == nil {
			// Unreachable if the window invariant holds; fall back to an
			// exact search rather than report an empty queue.
			cand = c.directMin()
		}
	}
	if o := c.overflow.peek(); o != nil && (cand == nil || eventLess(o, cand)) {
		return o
	}
	return cand
}

// advance moves the scan to the next slice, sliding the window forward
// and migrating overflow events that just became near-future.
func (c *calQueue) advance() {
	if c.cur++; c.cur == len(c.buckets) {
		c.cur = 0
	}
	c.bucketTop += c.width
	c.winEnd += c.width
	c.migrate()
}

// migrate pulls overflow events that now fall inside the window into
// their buckets.
func (c *calQueue) migrate() {
	for {
		o := c.overflow.peek()
		if o == nil || o.at >= c.winEnd {
			return
		}
		c.insertBucket(c.overflow.pop())
		c.count++
		c.migrations++
	}
}

// directMin finds the earliest bucket event by comparing chain heads
// (each chain is sorted, so its head is its minimum). Only valid with
// count > 0.
func (c *calQueue) directMin() *event {
	var min *event
	for i := range c.buckets {
		if ev := c.buckets[i].head; ev != nil && (min == nil || eventLess(ev, min)) {
			min = ev
		}
	}
	return min
}

// rebuild resizes to nb buckets (or retunes at the current size),
// recomputing the slice width from the live events of both tiers so the
// near-future cluster spreads across the window with O(1) expected
// chain length and only genuine outliers return to overflow. Runs in
// O(len); grows and shrinks fire only when the population crosses a
// power-of-two threshold and retunes at most once per check interval,
// so the cost amortizes to O(1) per operation.
func (c *calQueue) rebuild(nb int) {
	if nb > len(c.buckets) {
		c.grows++
	} else if nb < len(c.buckets) {
		c.shrinks++
	}
	c.layout(nb, c.collect())
	c.restartCheck()
}

// collect drains every bucket chain and the overflow tier into the
// scratch slice.
func (c *calQueue) collect() []*event {
	evs := c.scratch[:0]
	for i := range c.buckets {
		for ev := c.buckets[i].head; ev != nil; {
			next := ev.next
			ev.next = nil
			evs = append(evs, ev)
			ev = next
		}
		c.buckets[i] = calBucket{}
	}
	// The heap's internal layout is irrelevant here — layout reinserts
	// by timestamp — so take its slice verbatim instead of popping in
	// order.
	o := c.overflow.events
	for i, ev := range o {
		evs = append(evs, ev)
		o[i] = nil
	}
	c.overflow.events = o[:0]
	c.scratch = evs
	return evs
}

// layout applies a new geometry and reinserts evs (events now beyond
// the window spill back to overflow).
func (c *calQueue) layout(nb int, evs []*event) {
	c.shift = chooseShift(c.shift, nb, evs)
	c.width = 1 << c.shift
	if len(c.buckets) != nb {
		c.buckets = make([]calBucket, nb)
	}
	c.anchor(c.lastAt)
	c.count = 0
	for _, ev := range evs {
		if ev.at >= c.winEnd {
			c.overflow.push(ev)
		} else {
			c.insertBucket(ev)
			c.count++
		}
	}
	c.migrate()
}

// chooseShift picks the slice width exponent (width = 2^shift ns) for
// nb buckets from the density of the events near the head, in the
// spirit of Brown's head-spacing rule. Packet-level runs pair a dense
// cluster of link deliveries and transmit completions (microseconds
// ahead, spaced by serialization times) with a scattering of far RTO
// and pacing timers (milliseconds ahead), often more of the latter:
// a width sized from the mean or even the median offset can crowd the
// whole cluster into a few long chains.
//
// Offsets past the earliest event are binned by octave: bins[j] counts
// those in [2^(j-1), 2^j), so its density is bins[j]/2^(j-1) events per
// ns. The rule widens the slice, one doubling at a time, while every
// octave inside the window averages at most 2^calLoadLog2 events per
// bucket, and stops once the window covers every event. Octaves beyond
// the window are far timers bound for overflow and do not constrain it;
// events at the earliest instant itself (bins[0]) are next to pop and
// append in sequence order, so they do not either. A point cluster
// (fewer than two events, or all at one instant) keeps the previous
// width: any width drains it in O(1) per pop once the scan reaches it.
//
// The rule is O(len) with no sort and no scratch, and depends only on
// queue content, never on wall-clock state, so identical runs resize
// identically (determinism).
func chooseShift(old uint, nb int, evs []*event) uint {
	if len(evs) < 2 {
		return old
	}
	lo := evs[0].at
	for _, ev := range evs[1:] {
		lo = min(lo, ev.at)
	}
	var bins [64]int
	top := 0
	for _, ev := range evs {
		j := bits.Len64(uint64(ev.at - lo))
		bins[j]++
		top = max(top, j)
	}
	if top == 0 {
		return old
	}
	k := bits.Len(uint(nb)) - 1 // nb = 2^k, so the window is 2^(shift+k)
	shift := 0
	for ; shift+k < top; shift++ {
		// Widening to shift+1 doubles every octave's load per bucket
		// and pulls octave shift+1+k into the window. The load bound
		// bins[j] * 2^(shift+1) <= 2^(calLoadLog2+j-1) is compared in
		// log2 so no shift overflows.
		for j := 1; j <= min(shift+1+k, top); j++ {
			if bins[j] > 0 && bits.Len(uint(bins[j]-1))+shift+1 > calLoadLog2+j-1 {
				return uint(shift)
			}
		}
	}
	return uint(shift)
}
