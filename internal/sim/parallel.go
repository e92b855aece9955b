package sim

import (
	"fmt"
	"sync"
	"time"
)

// This file implements sharded parallel simulation: several engines
// (one per topology shard) run concurrently inside conservative
// windows and exchange boundary events between windows.
//
// The protocol is bounded-lag windowing with a full barrier. The
// lookahead L is the minimum delay over every registered boundary. Each
// round takes T, the earliest pending event across all shards, runs
// every shard with work before T+L through the half-open window
// [T, T+L) concurrently, waits for all of them (the barrier), and then
// drains every outbox into its destination engine before the next
// round.
//
// Safety. A shard executing events strictly before the window end W
// must already hold every cross-shard arrival with timestamp < W. A
// send performed inside the window is performed by an event at u >= T,
// so it arrives at u+delay >= T+L = W: no arrival produced during a
// window can land inside it, and every arrival produced by earlier
// windows was injected at their barriers. Windows are half-open so an
// arrival exactly at a window end is injected before the events it
// could tie with are run.
//
// Deadlock freedom. Boundary delays are strictly positive, so every
// window [T, T+L) is non-empty and holds at least the event at T: each
// round executes something, and the rounds end when nothing is pending
// at or before the deadline.
//
// Determinism and serial equivalence. An engine executes its queue in
// the strict total key order (at, schedAt, lane, seq), and the safety
// invariant guarantees every injection is queued before execution
// passes its key. Window bounds only partition that fixed per-shard
// sequence, so the executed sequence — and every trace, FCT and
// processed-event count derived from it — is invariant across goroutine
// schedules. The serial engine orders same-time events by seq, which is
// assigned in scheduling order; because the clock never runs
// backwards, that is equivalent to ordering by (schedAt, seq). A
// cross-shard injection carries its true schedAt (the sending engine's
// clock at send time) and the sender's monotone cross-send seq, so it
// sorts against the destination's local events exactly where the
// serial engine would have placed it — except when a local and a
// remote event (or two remote events from different shards) carry the
// *same* (at, schedAt): two causally independent schedules at the same
// instant whose serial order depended on global seq interleaving no
// shard can reconstruct. The key then falls back to lane order (locals
// first, then by sending shard). differential_test.go proves
// byte-identity against the serial engine on the dumbbell, leaf-spine
// and fat-tree workloads. See DESIGN.md section 8.
//
// Threading. Each shard owns one worker goroutine, which executes that
// shard's windows and nothing else; engines are only ever touched by
// their worker (inside a window) or by the coordinator (at the
// barrier), with channel sends establishing the happens-before edges
// between the two. Nothing in the engine grows locks.

// Coordinator synchronizes a set of shard engines. Create one with
// NewCoordinator, add shards with NewShard, declare every cross-shard
// link with Boundary, then drive the whole simulation with RunUntil.
// The configuration — shards, boundaries, instrumentation — is frozen
// by the first RunUntil call; registering a boundary afterwards panics,
// because a late registration would silently invalidate the lookahead
// already used to admit executed windows.
type Coordinator struct {
	shards    []*Shard
	lookahead time.Duration // min registered boundary delay; 0 = none yet
	started   bool

	// rt collects runtime self-observation when EnableRuntimeStats was
	// called; mon is the live progress surface when SetMonitor was.
	// Both nil (disabled) by default; frozen at the first RunUntil like
	// the rest of the configuration.
	rt  *runStats
	mon *Monitor

	// slabPool recycles drained event slabs across all shards. Slabs
	// migrate with the traffic matrix (a slab filled by one shard is
	// drained into another), so per-shard free lists starve senders into
	// fresh allocations every window; a shared pool keeps the
	// steady-state slab population — and their grown ev backing arrays
	// — in circulation instead.
	slabPool sync.Pool
}

// Shard is one engine plus its cross-shard plumbing.
type Shard struct {
	coord *Coordinator
	id    int
	eng   *Engine

	// Cross-shard sends accumulate in per-destination slabs, handed off
	// whole: outboxTo[d] is the slab of this window's sends to shard d
	// (nil until the first send), outDst lists the destinations touched
	// in first-send order so the drain walks only live slabs. Only the
	// worker running the window appends; only the coordinator drains
	// (at the barrier) — the same grant/done channel handoff that
	// transfers engine ownership transfers slab ownership. Drained slabs
	// recycle through the coordinator's slabPool (pooled-packet
	// discipline: a slab is owned by exactly one side at a time; the
	// pool only ever holds cleared, unowned slabs).
	outboxTo []*eventSlab
	outDst   []int
	sendSeq  uint64

	// Cached earliest-pending-event time, maintained by runBefore
	// returns and injections so the coordinator never rescans engine
	// queues.
	nextAt  time.Duration
	hasNext bool

	// grantEnd is the exclusive end of the window the shard's worker
	// runs next; written by the coordinator before the grant send.
	grantEnd time.Duration

	// mon is this shard's progress slot when a Monitor is attached (nil
	// otherwise); the worker executing a window publishes into it at the
	// window boundary.
	mon *MonitorShard
}

// remoteEvent is one cross-shard delivery waiting to be injected. The
// destination is carried by the slab holding it, not per event.
type remoteEvent struct {
	at     time.Duration
	sentAt time.Duration
	lane   uint32
	seq    uint64
	fn     func(any)
	arg    any
}

// eventSlab is one window's batch of deliveries from one source shard
// to one destination. The coordinator moves slabs by pointer — inject,
// recycle — so cross-shard traffic costs O(slabs), not O(events), of
// coordinator bookkeeping. minAt caches the earliest arrival so
// absorbing a slab updates the destination's cached next-event time
// with a single comparison.
type eventSlab struct {
	ev    []remoteEvent
	minAt time.Duration
}

// getSlab takes a recycled slab from the shared pool (or allocates the
// first few). Called from Boundary.Send (worker context); sync.Pool is
// safe there, and the caller fully initializes the slab (minAt on the
// first append), so pool pick order cannot influence results.
func (s *Shard) getSlab() *eventSlab {
	if sl, ok := s.coord.slabPool.Get().(*eventSlab); ok && sl != nil {
		return sl
	}
	return &eventSlab{}
}

// putSlab recycles a drained slab, dropping callback and payload
// references so the delivered events' object graphs can be collected
// while the slab (and its grown backing array) stays in circulation.
// Called only on slabs no shard holds a reference to.
func (s *Shard) putSlab(sl *eventSlab) {
	clear(sl.ev)
	sl.ev = sl.ev[:0]
	s.coord.slabPool.Put(sl)
}

// injectSlab injects a slab's events into the destination engine and
// folds the slab's earliest arrival into the cached next-event time.
func injectSlab(d *Shard, sl *eventSlab) {
	for i := range sl.ev {
		r := &sl.ev[i]
		d.eng.injectRemote(r.at, r.sentAt, r.lane, r.seq, r.fn, r.arg)
	}
	if len(sl.ev) > 0 && (!d.hasNext || sl.minAt < d.nextAt) {
		d.nextAt, d.hasNext = sl.minAt, true
	}
}

// NewCoordinator returns an empty coordinator.
func NewCoordinator() *Coordinator { return &Coordinator{} }

// NewShard adds a shard with a fresh calendar-queue engine.
func (c *Coordinator) NewShard() *Shard {
	if c.started {
		panic("sim: NewShard after RunUntil — the coordinator's shard set is frozen once the first window has run")
	}
	s := &Shard{coord: c, id: len(c.shards), eng: NewEngine()}
	c.shards = append(c.shards, s)
	return s
}

// Shards returns the shards in creation order.
func (c *Coordinator) Shards() []*Shard { return c.shards }

// Lookahead returns the conservative window width — the minimum delay
// among registered boundaries (0 before any registration).
func (c *Coordinator) Lookahead() time.Duration { return c.lookahead }

// Engine returns the shard's engine. Entities placed on this shard must
// schedule exclusively against it.
func (s *Shard) Engine() *Engine { return s.eng }

// ID returns the shard's index in creation order.
func (s *Shard) ID() int { return s.id }

// Boundary declares a directed cross-shard link with the given
// propagation delay and returns the handle its sender uses to deliver
// across the cut. The delay lower-bounds the coordinator's lookahead,
// so it must be positive: a zero-delay cut would make the conservative
// window empty.
//
// Every boundary must be registered before the first RunUntil;
// registering one afterwards panics. Admitting a late boundary would
// be a silent correctness hazard: windows already executed were
// admitted against a lookahead that did not account for the new link,
// so a delivery crossing it could land inside a window that already
// ran.
func (c *Coordinator) Boundary(from, to *Shard, delay time.Duration) *Boundary {
	if c.started {
		panic("sim: Boundary registered after RunUntil — cross-shard links are frozen once the first window has run (a late link would invalidate the lookahead already used to admit executed windows)")
	}
	if from == to {
		panic("sim: boundary endpoints are the same shard (use a local link)")
	}
	if from.coord != c || to.coord != c {
		panic("sim: boundary shards belong to a different coordinator")
	}
	if delay <= 0 {
		panic(fmt.Sprintf("sim: boundary delay must be positive, got %v", delay))
	}
	if c.lookahead == 0 || delay < c.lookahead {
		c.lookahead = delay
	}
	return &Boundary{from: from, to: to, delay: delay}
}

// Boundary is the sending end of one cross-shard link.
type Boundary struct {
	from, to *Shard
	delay    time.Duration
}

// Delay returns the boundary's propagation delay.
func (b *Boundary) Delay() time.Duration { return b.delay }

// SourceEngine returns the sending shard's engine — the clock governing
// everything that transmits across this boundary (a port whose link is
// a boundary link schedules its serialization timers here).
func (b *Boundary) SourceEngine() *Engine { return b.from.eng }

// Send schedules fn(arg) on the destination shard one propagation delay
// from now. It must be called from the sending shard's execution
// context (i.e. from an event running on its engine); the delivery is
// appended to the shard's per-destination slab and handed off whole at
// the window barrier, with the full deterministic key: arrival time,
// sending clock, sending shard's lane and cross-send sequence.
func (b *Boundary) Send(fn func(any), arg any) {
	s := b.from
	now := s.eng.now
	at := now + b.delay
	dst := b.to.id
	for len(s.outboxTo) <= dst {
		s.outboxTo = append(s.outboxTo, nil)
	}
	sl := s.outboxTo[dst]
	if sl == nil {
		sl = s.getSlab()
		sl.minAt = at
		s.outboxTo[dst] = sl
		s.outDst = append(s.outDst, dst)
	} else if at < sl.minAt {
		sl.minAt = at
	}
	sl.ev = append(sl.ev, remoteEvent{
		at:     at,
		sentAt: now,
		lane:   uint32(1 + s.id),
		seq:    s.sendSeq,
		fn:     fn,
		arg:    arg,
	})
	s.sendSeq++
}

// RunUntil executes events with timestamps <= deadline on every shard,
// advancing them in conservative windows. On return every shard's clock
// is at the deadline (matching Engine.RunUntil's advance-on-drain
// contract). Engine.Stop is not supported under a coordinator; a
// single-shard coordinator degenerates to the serial RunUntil. The
// first call freezes the coordinator's configuration (see Boundary).
func (c *Coordinator) RunUntil(deadline time.Duration) {
	c.started = true
	if rt := c.rt; rt != nil {
		rt.size(len(c.shards))
		start := time.Now()
		defer func() { rt.wall += time.Since(start) }()
	}
	if c.mon != nil {
		c.mon.deadline.Store(int64(deadline))
		slots := c.mon.attach(len(c.shards))
		for i, s := range c.shards {
			s.mon = slots[i]
		}
	}
	switch {
	case len(c.shards) == 0:
		return
	case len(c.shards) == 1:
		c.runDegenerate(c.shards[:1], deadline)
		return
	case c.lookahead <= 0:
		// No boundaries: the shards are fully independent simulations.
		c.runDegenerate(c.shards, deadline)
		return
	}

	for _, s := range c.shards {
		ev := s.eng.peek()
		s.hasNext = ev != nil
		if s.hasNext {
			s.nextAt = ev.at
		}
	}
	c.runWindows(deadline)
	for _, s := range c.shards {
		s.eng.advanceTo(deadline)
		if s.mon != nil {
			s.mon.publish(s.eng.processed, s.eng.now)
		}
	}
}

// runDegenerate runs shards to the deadline serially, for the cases
// that need no windowing (a single shard, or no cross-shard
// boundaries). Instrumentation treats each engine run as one window on
// the shard's own worker slot; the engine publishes live progress
// itself while it runs.
func (c *Coordinator) runDegenerate(shards []*Shard, deadline time.Duration) {
	for _, s := range shards {
		if s.mon != nil {
			s.eng.mon = s.mon
		}
		if rt := c.rt; rt != nil {
			start := time.Now()
			e0 := s.eng.processed
			s.eng.RunUntil(deadline)
			d := int64(time.Since(start))
			sc := &rt.shards[s.id]
			sc.events.Add(s.eng.processed - e0)
			sc.busy.Add(d)
			wc := &rt.workers[s.id]
			wc.windows.Add(1)
			wc.busy.Add(d)
		} else {
			s.eng.RunUntil(deadline)
		}
		if s.mon != nil {
			s.eng.mon = nil
			s.mon.publish(s.eng.processed, s.eng.now)
		}
	}
}

// runWindows runs the bounded-lag protocol: one global window per
// round, full barrier, outbox drain.
func (c *Coordinator) runWindows(deadline time.Duration) {
	// Workers live for the duration of this call: window grants and
	// completion acks ride unbuffered channels whose send/receive pairs
	// are the happens-before edges that hand each engine between its
	// worker and the coordinator. The channels are made fresh per call
	// and handed to workers by value, so a worker left over from a
	// previous run (still draining its closed grant channel) never races
	// with this one.
	done := make(chan struct{})
	grants := make([]chan struct{}, len(c.shards))
	for i, s := range c.shards {
		grants[i] = make(chan struct{})
		go c.work(s, grants[i], done)
	}
	defer func() {
		for _, g := range grants {
			close(g)
		}
	}()

	rt := c.rt
	for {
		t, ok := c.minNext()
		if !ok || t > deadline {
			return
		}
		// Half-open window [t, w); the final window stretches one
		// nanosecond past the deadline so events exactly at it still run.
		w := t + c.lookahead
		if w > deadline {
			w = deadline + 1
		}
		// Dispatch only to shards with work inside the window — an idle
		// shard's cached nextAt stays valid, and skipping it skips two
		// goroutine wakeups. Dispatch precedes any wait so active shards
		// run concurrently. Only the count of grants is needed to run
		// the barrier: each completion is acknowledged on the shared
		// done channel regardless of which shard finished first.
		active := 0
		if rt != nil {
			rt.grantCalls++
		}
		for i, s := range c.shards {
			if s.hasNext && s.nextAt < w {
				s.grantEnd = w
				if rt != nil {
					sc := &rt.shards[s.id]
					sc.grants++
					sc.grantWidth += w - s.nextAt
				}
				grants[i] <- struct{}{}
				active++
			}
		}
		if rt != nil {
			t0 := time.Now()
			for i := 0; i < active; i++ {
				<-done
			}
			rt.coordBlocked += time.Since(t0)
		} else {
			for i := 0; i < active; i++ {
				<-done
			}
		}
		c.drainOutboxes()
	}
}

// work is a shard's worker: it runs the shard's granted windows. The
// channels arrive as parameters so the loop never reads coordinator
// state the next RunUntil will re-make. The blocked charge after the
// done handoff runs after the coordinator may already have moved on —
// which is why worker-side counters are atomics.
func (c *Coordinator) work(s *Shard, grants <-chan struct{}, done chan<- struct{}) {
	mark := time.Now()
	for range grants {
		c.runGrant(s, &mark)
		done <- struct{}{}
		if c.rt != nil {
			c.rt.workerBlocked(s.id, &mark)
		}
	}
}

// minNext returns the earliest pending event time across shards.
func (c *Coordinator) minNext() (time.Duration, bool) {
	var min time.Duration
	ok := false
	for _, s := range c.shards {
		if s.hasNext && (!ok || s.nextAt < min) {
			min = s.nextAt
			ok = true
		}
	}
	return min, ok
}

// drainOutboxes injects every outbox slab into its destination engine
// (every shard is parked at the barrier, so nothing is ever mid-window
// here). Injection order is irrelevant to the result (the queue orders
// purely by key) but slabs are drained in (source shard, first-send)
// order anyway so the engine's internal layout is reproducible too.
func (c *Coordinator) drainOutboxes() {
	for _, s := range c.shards {
		for _, dst := range s.outDst {
			sl := s.outboxTo[dst]
			s.outboxTo[dst] = nil
			if c.rt != nil {
				c.rt.shards[s.id].outboxSent += uint64(len(sl.ev))
			}
			injectSlab(c.shards[dst], sl)
			s.putSlab(sl)
		}
		s.outDst = s.outDst[:0]
	}
}

// Processed returns the total events executed across all shards. For a
// workload identical to a serial run it equals the serial engine's
// Processed count: sharding moves events between queues but neither
// adds nor removes any.
func (c *Coordinator) Processed() uint64 {
	var n uint64
	for _, s := range c.shards {
		n += s.eng.processed
	}
	return n
}
