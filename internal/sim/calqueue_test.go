package sim

import (
	"math/rand"
	"testing"
	"time"
)

// forEachQueue runs a subtest against both scheduler implementations.
func forEachQueue(t *testing.T, fn func(t *testing.T, kind QueueKind)) {
	t.Helper()
	for _, k := range []struct {
		name string
		kind QueueKind
	}{{"calendar", QueueCalendar}, {"heap", QueueHeap}} {
		t.Run(k.name, func(t *testing.T) { fn(t, k.kind) })
	}
}

// traceWorkload drives one engine through a scripted random workload —
// bursts of near and far timers, cancellations, and nested scheduling
// from inside callbacks — and returns the execution trace as
// (time, id) pairs.
func traceWorkload(kind QueueKind, seed int64) []struct {
	at time.Duration
	id int
} {
	type rec = struct {
		at time.Duration
		id int
	}
	rng := rand.New(rand.NewSource(seed))
	e := NewEngineWithQueue(kind)
	var trace []rec
	nextID := 0
	var timers []Timer

	// schedule plants one event; a third of the fired events reschedule
	// a follow-up (exercising record recycling mid-run), driven by the
	// callback's own id so both engines script identically.
	var schedule func(delay time.Duration)
	schedule = func(delay time.Duration) {
		id := nextID
		nextID++
		timers = append(timers, e.ScheduleCall(delay, func(arg any) {
			trace = append(trace, rec{e.Now(), arg.(int)})
			if arg.(int)%3 == 0 {
				schedule(time.Duration(arg.(int)%7) * 100 * time.Nanosecond)
			}
		}, id))
	}

	for i := 0; i < 2000; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4: // near future: sub-window packet-scale delays
			schedule(time.Duration(rng.Int63n(int64(50 * time.Microsecond))))
		case 5, 6: // same-instant bursts
			d := time.Duration(rng.Int63n(int64(10 * time.Microsecond)))
			for j := 0; j < 3; j++ {
				schedule(d)
			}
		case 7, 8: // far future: overflow-tier residents (RTO/ticker scale)
			schedule(time.Duration(rng.Int63n(int64(50*time.Millisecond))) + 10*time.Millisecond)
		case 9: // cancel a random earlier timer
			if len(timers) > 0 {
				timers[rng.Intn(len(timers))].Cancel()
			}
		}
		// Drain a little as we go, so inserts interleave with pops and
		// the calendar's window slides mid-workload.
		if i%50 == 49 {
			for j := 0; j < 20; j++ {
				e.Step()
			}
		}
	}
	e.Run()
	return trace
}

// TestDifferentialQueues is the white-box determinism proof: the exact
// execution trace of a randomized workload must be identical under the
// calendar queue and the reference heap, across several seeds.
func TestDifferentialQueues(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		heap := traceWorkload(QueueHeap, seed)
		cal := traceWorkload(QueueCalendar, seed)
		if len(heap) != len(cal) {
			t.Fatalf("seed %d: trace lengths differ: heap %d, calendar %d", seed, len(heap), len(cal))
		}
		for i := range heap {
			if heap[i] != cal[i] {
				t.Fatalf("seed %d: traces diverge at %d: heap %v, calendar %v",
					seed, i, heap[i], cal[i])
			}
		}
		// The trace itself must be (time, schedule-order) sorted.
		for i := 1; i < len(cal); i++ {
			if cal[i].at < cal[i-1].at {
				t.Fatalf("seed %d: time went backwards at %d", seed, i)
			}
		}
	}
}

// TestSameTimestampFIFO plants many events at one instant, interleaved
// with enough spread-out events to force calendar rebuilds, and checks
// the same-instant run fires in schedule (seq) order — including after
// rebuilds reinserted the chain.
func TestSameTimestampFIFO(t *testing.T) {
	forEachQueue(t, func(t *testing.T, kind QueueKind) {
		e := NewEngineWithQueue(kind)
		const at = 500 * time.Microsecond
		var got []int
		n := 0
		for i := 0; i < 100; i++ {
			id := n
			n++
			e.ScheduleCall(at, func(arg any) { got = append(got, arg.(int)) }, id)
			// Pressure the geometry: events on both sides of the instant,
			// enough to cross the grow threshold repeatedly.
			for j := 0; j < 5; j++ {
				e.ScheduleCall(time.Duration(i*7+j)*time.Microsecond, func(any) {}, nil)
			}
		}
		e.Run()
		if len(got) != 100 {
			t.Fatalf("fired %d of 100 same-instant events", len(got))
		}
		for i, id := range got {
			if id != i {
				t.Fatalf("same-instant FIFO broken: position %d fired id %d", i, id)
			}
		}
	})
}

// TestCancelRecycleReschedule verifies generation safety under the
// calendar queue: a handle whose record was recycled into a new event
// must stay inert even when that new event sits in a bucket chain.
func TestCancelRecycleReschedule(t *testing.T) {
	forEachQueue(t, func(t *testing.T, kind QueueKind) {
		e := NewEngineWithQueue(kind)
		stale := e.ScheduleCall(time.Microsecond, func(any) {}, nil)
		e.Run() // fires and recycles the record

		fired := 0
		var fresh []Timer
		for i := 0; i < 10; i++ {
			fresh = append(fresh, e.ScheduleCall(time.Duration(i+1)*time.Microsecond,
				func(any) { fired++ }, nil))
		}
		if stale.Cancel() || stale.Active() {
			t.Fatal("stale handle operated on a recycled record")
		}
		if _, ok := stale.When(); ok {
			t.Fatal("stale handle reports a pending time")
		}
		// Cancel-then-reschedule cycles: each Cancel makes the next
		// schedule reuse the record with a bumped generation.
		for i := 0; i < 5; i++ {
			fresh[i].Cancel()
			fresh[i] = e.ScheduleCall(time.Duration(20+i)*time.Microsecond,
				func(any) { fired++ }, nil)
		}
		e.Run()
		if fired != 10 {
			t.Fatalf("fired %d events, want 10 (5 survivors + 5 rescheduled)", fired)
		}
	})
}

// TestOverflowMigration checks the far-timer path end to end: events
// scheduled beyond the calendar window start in the overflow tier, then
// migrate into buckets and fire in exact order as the window slides out
// to them.
func TestOverflowMigration(t *testing.T) {
	e := NewEngineWithQueue(QueueCalendar)
	cq := e.q.(*calQueue)

	var got []time.Duration
	note := func(any) { got = append(got, e.Now()) }
	// Far events first (reverse order, stressing the heap), then near.
	for i := 20; i >= 1; i-- {
		e.ScheduleCall(time.Duration(i)*10*time.Millisecond, note, nil)
	}
	if cq.overflow.len() == 0 {
		t.Fatal("far timers did not land in the overflow tier")
	}
	for i := 0; i < 10; i++ {
		e.ScheduleCall(time.Duration(i)*time.Microsecond, note, nil)
	}
	e.Run()
	if cq.overflow.len() != 0 || cq.count != 0 {
		t.Fatalf("queue not drained: overflow %d, buckets %d", cq.overflow.len(), cq.count)
	}
	if len(got) != 30 {
		t.Fatalf("fired %d of 30", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("out of order at %d: %v after %v", i, got[i], got[i-1])
		}
	}
	if got[len(got)-1] != 200*time.Millisecond {
		t.Fatalf("last event at %v, want 200ms", got[len(got)-1])
	}
}

// TestRunUntilDeadline pins RunUntil's deadline semantics on both
// queues: events at the deadline run, later ones stay pending, the
// clock lands exactly on the deadline, and a later run resumes.
func TestRunUntilDeadline(t *testing.T) {
	forEachQueue(t, func(t *testing.T, kind QueueKind) {
		e := NewEngineWithQueue(kind)
		var fired []time.Duration
		note := func(any) { fired = append(fired, e.Now()) }
		e.ScheduleCall(time.Millisecond, note, nil)
		e.ScheduleCall(2*time.Millisecond, note, nil) // exactly at deadline
		e.ScheduleCall(2*time.Millisecond+1, note, nil)
		e.ScheduleCall(time.Hour, note, nil) // overflow-tier resident

		e.RunUntil(2 * time.Millisecond)
		if len(fired) != 2 {
			t.Fatalf("fired %d events by deadline, want 2", len(fired))
		}
		if e.Now() != 2*time.Millisecond {
			t.Fatalf("clock at %v, want 2ms", e.Now())
		}
		if e.Pending() != 2 {
			t.Fatalf("pending = %d, want 2", e.Pending())
		}
		// An idle stretch: the clock still advances to the deadline.
		e.RunUntil(3 * time.Millisecond)
		if len(fired) != 3 || e.Now() != 3*time.Millisecond {
			t.Fatalf("after second run: fired %d, now %v", len(fired), e.Now())
		}
		e.Run()
		if len(fired) != 4 || e.Now() != time.Hour {
			t.Fatalf("after drain: fired %d, now %v", len(fired), e.Now())
		}
	})
}

// TestCalendarResizeCycle drives the population up past several grow
// thresholds and back down to force shrinks, checking order the whole
// way — the rebuild path (collect, width choice, reinsert) is the most
// delicate part of the calendar queue.
func TestCalendarResizeCycle(t *testing.T) {
	e := NewEngineWithQueue(QueueCalendar)
	cq := e.q.(*calQueue)
	rng := rand.New(rand.NewSource(7))

	for i := 0; i < 5000; i++ {
		e.ScheduleCall(time.Duration(rng.Int63n(int64(time.Millisecond))), func(any) {}, nil)
	}
	if len(cq.buckets) <= calMinBuckets {
		t.Fatalf("grow never triggered: %d buckets for 5000 events", len(cq.buckets))
	}
	var last time.Duration
	for e.Pending() > 0 {
		if !e.Step() {
			break
		}
		if e.Now() < last {
			t.Fatalf("time went backwards: %v after %v", e.Now(), last)
		}
		last = e.Now()
	}
	if len(cq.buckets) != calMinBuckets {
		t.Fatalf("shrink did not return to the floor: %d buckets", len(cq.buckets))
	}
}

// popRec is one fired event of a fabric mix: its time and flow.
type popRec struct {
	at   time.Duration
	flow int
}

// fabricMix drives one engine through a fabric-shaped event mix and
// returns its pop order plus the queue's stats. Each of 64 flows keeps
// one packet in flight that hops link to link, the next hop scheduled
// at now+prop+ser (1us plus a 0.1-1.2us serialization time), so the
// flows' near-future events sit about a microsecond apart. About one
// hop in 64 is an ACK that cancels the flow's RTO-like timer and
// re-arms it 1-10ms out, so cancelled far timers pile up as the transport's lazily
// cancelled RTOs do, outnumbering the packets several times over.
// far > 0 first plants that many timers spread over 10-20ms, so the
// queue sizes its width for them before the first packet moves.
func fabricMix(kind QueueKind, far int) ([]popRec, QueueStats) {
	const flows, hops = 64, 200_000
	rng := rand.New(rand.NewSource(1))
	e := NewEngineWithQueue(kind)
	var trace []popRec
	record := func(arg any) { trace = append(trace, popRec{e.Now(), arg.(int)}) }
	rto := make([]Timer, flows)
	armRTO := func(f int) {
		rto[f].Cancel()
		rto[f] = e.ScheduleCall(time.Millisecond+time.Duration(rng.Int63n(int64(9*time.Millisecond))), record, f)
	}
	fired := 0
	var hop func(arg any)
	hop = func(arg any) {
		record(arg)
		if fired++; fired >= hops {
			return
		}
		f := arg.(int)
		if rng.Intn(64) == 0 {
			armRTO(f)
		}
		e.ScheduleCall(time.Microsecond+time.Duration(100+rng.Intn(1100)), hop, f)
	}
	for i := 0; i < far; i++ {
		e.ScheduleCall(10*time.Millisecond+time.Duration(rng.Int63n(int64(10*time.Millisecond))), record, -1)
	}
	for f := 0; f < flows; f++ {
		armRTO(f)
		e.ScheduleCall(time.Duration(rng.Intn(10_000)), hop, f)
	}
	e.Run()
	return trace, e.Stats().Queue
}

// checkFabricMix runs fabricMix under both queues, requires the
// calendar to pop in exactly the reference heap's order, and returns
// the calendar's stats.
func checkFabricMix(t *testing.T, far int) QueueStats {
	t.Helper()
	heap, _ := fabricMix(QueueHeap, far)
	cal, st := fabricMix(QueueCalendar, far)
	if len(heap) != len(cal) {
		t.Fatalf("pop counts differ: heap %d, calendar %d", len(heap), len(cal))
	}
	for i := range heap {
		if heap[i] != cal[i] {
			t.Fatalf("pop order diverges at %d: heap %v, calendar %v", i, heap[i], cal[i])
		}
	}
	if st.Inserts == 0 {
		t.Fatal("no bucket inserts counted")
	}
	t.Logf("%d inserts, %.3f scan/insert, %d retunes, %d grows, %d migrations",
		st.Inserts, float64(st.ScanSteps)/float64(st.Inserts), st.Retunes, st.Grows, st.Migrations)
	return st
}

// TestCalendarScanBound is the calendar queue's work-counter regression
// gate. On a fabric-shaped mix the far timers dominate the mean event
// offset; a width sized from it crowds every in-flight packet into one
// chain, and each insert then walks tens of links. The queue must keep
// the mean walk at or below 2 links per bucket insert, retune at most
// once per several thousand inserts, and pop in exactly the reference
// heap's order.
func TestCalendarScanBound(t *testing.T) {
	st := checkFabricMix(t, 0)
	if scan := float64(st.ScanSteps) / float64(st.Inserts); scan > 2 {
		t.Fatalf("%.2f chain-walk steps per insert (%d over %d inserts), want <= 2",
			scan, st.ScanSteps, st.Inserts)
	}
	if st.Retunes*4096 > st.Inserts {
		t.Fatalf("%d retunes over %d inserts, want at most one per 4096", st.Retunes, st.Inserts)
	}
}

// TestCalendarRetune checks the cost-triggered retune. Far timers
// planted first size the width for themselves; when the packets start
// hopping, the population stays under the next grow threshold, so only
// a retune can narrow the width to the packets' spacing.
func TestCalendarRetune(t *testing.T) {
	st := checkFabricMix(t, 2500)
	if st.Retunes == 0 {
		t.Fatal("no retune: the width sized for the far timers was never re-picked")
	}
	if scan := float64(st.ScanSteps) / float64(st.Inserts); scan > 2 {
		t.Fatalf("%.2f chain-walk steps per insert after retuning, want <= 2", scan)
	}
}

// TestFreeListAdaptiveBound checks the engine's record pool tracks the
// pending high-water mark instead of the old fixed 1024 cap: after a
// drain, a refill to the same population should reuse records rather
// than allocate fresh ones.
func TestFreeListAdaptiveBound(t *testing.T) {
	e := NewEngine()
	const n = 5000
	for i := 0; i < n; i++ {
		e.ScheduleCall(time.Duration(i)*time.Microsecond, func(any) {}, nil)
	}
	e.Run()
	if len(e.free) <= 1024 {
		t.Fatalf("free list capped at %d records; want the %d high-water mark", len(e.free), n)
	}
	if len(e.free) > n {
		t.Fatalf("free list grew past the high-water mark: %d > %d", len(e.free), n)
	}
}

// TestWhenDistinguishesTimeZero is the Timer.At ambiguity fix: a
// genuine time-0 schedule reports (0, true), a recycled handle
// (0, false).
func TestWhenDistinguishesTimeZero(t *testing.T) {
	e := NewEngine()
	tm := e.ScheduleCall(0, func(any) {}, nil)
	if at, ok := tm.When(); !ok || at != 0 {
		t.Fatalf("When() = %v, %v; want 0, true", at, ok)
	}
	e.Run()
	if at, ok := tm.When(); ok || at != 0 {
		t.Fatalf("after firing: When() = %v, %v; want 0, false", at, ok)
	}
}
