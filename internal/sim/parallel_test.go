package sim

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// protoName names the subtest under which the serial-equivalence tests
// run their sharded side: the coordinator's bounded-lag protocol, which
// advances every shard through one global window per round.
const protoName = "global"

// relayRec is one observed delivery at a node: when it ran and which
// hop count it carried.
type relayRec struct {
	At  time.Duration
	Hop int
}

// runSerialRing simulates nodes 0..n-1 on one engine: node i receives a
// token, records it, does workSteps local events of localStep each, and
// forwards the token to node (i+1)%n after linkDelay. tokens tokens
// start at distinct nodes at t=0; the run stops at deadline. Returns
// the per-node delivery logs.
func runSerialRing(n, tokens, hops int, linkDelay, localStep time.Duration, deadline time.Duration) [][]relayRec {
	eng := NewEngine()
	logs := make([][]relayRec, n)
	var deliver func(node, hop int)
	deliver = func(node, hop int) {
		logs[node] = append(logs[node], relayRec{At: eng.Now(), Hop: hop})
		if hop >= hops {
			return
		}
		// Local busywork: a chain of events before the forward, so the
		// forward's send time depends on local scheduling.
		next := (node + 1) % n
		eng.Schedule(localStep, func() {
			eng.Schedule(localStep, func() {
				eng.ScheduleCall(linkDelay, func(any) { deliver(next, hop+1) }, nil)
			})
		})
	}
	for t := 0; t < tokens; t++ {
		start := t * (n / tokens)
		t := t
		eng.ScheduleAt(0, func() { deliver(start%n, t) })
	}
	eng.RunUntil(deadline)
	return logs
}

// runShardedRing is the same workload with one shard per node and every
// ring link a boundary.
func runShardedRing(n, tokens, hops int, linkDelay, localStep time.Duration, deadline time.Duration) ([][]relayRec, *Coordinator) {
	coord := NewCoordinator()
	shards := make([]*Shard, n)
	for i := range shards {
		shards[i] = coord.NewShard()
	}
	bounds := make([]*Boundary, n)
	for i := range bounds {
		bounds[i] = coord.Boundary(shards[i], shards[(i+1)%n], linkDelay)
	}
	logs := make([][]relayRec, n)
	var deliver func(node, hop int)
	deliver = func(node, hop int) {
		eng := shards[node].Engine()
		logs[node] = append(logs[node], relayRec{At: eng.Now(), Hop: hop})
		if hop >= hops {
			return
		}
		next := (node + 1) % n
		eng.Schedule(localStep, func() {
			eng.Schedule(localStep, func() {
				bounds[node].Send(func(any) { deliver(next, hop+1) }, nil)
			})
		})
	}
	for t := 0; t < tokens; t++ {
		start := (t * (n / tokens)) % n
		t := t
		shards[start].Engine().ScheduleAt(0, func() { deliver(start, t) })
	}
	coord.RunUntil(deadline)
	return logs, coord
}

// A multi-token relay ring must produce byte-identical per-node
// delivery logs whether it runs on one engine or on one shard per node,
// and the sharded run must actually execute events.
func TestCoordinatorRingMatchesSerial(t *testing.T) {
	const (
		n         = 4
		tokens    = 4
		hops      = 200
		linkDelay = 7 * time.Microsecond
		localStep = 3 * time.Microsecond
		deadline  = 10 * time.Millisecond
	)
	serial := runSerialRing(n, tokens, hops, linkDelay, localStep, deadline)
	t.Run(protoName, func(t *testing.T) {
		sharded, coord := runShardedRing(n, tokens, hops, linkDelay, localStep, deadline)
		for i := range serial {
			if !reflect.DeepEqual(serial[i], sharded[i]) {
				t.Fatalf("node %d: sharded log diverges from serial\nserial:  %v\nsharded: %v",
					i, trunc(serial[i]), trunc(sharded[i]))
			}
		}
		if coord.Processed() == 0 {
			t.Fatal("sharded run processed no events")
		}
	})
}

func trunc(r []relayRec) []relayRec {
	if len(r) > 8 {
		return r[:8]
	}
	return r
}

// Two identical sharded runs must be identical to each other
// (goroutine scheduling must not leak into results).
func TestCoordinatorDeterministic(t *testing.T) {
	const deadline = 5 * time.Millisecond
	t.Run(protoName, func(t *testing.T) {
		a, ca := runShardedRing(5, 5, 120, 11*time.Microsecond, 2*time.Microsecond, deadline)
		b, cb := runShardedRing(5, 5, 120, 11*time.Microsecond, 2*time.Microsecond, deadline)
		if !reflect.DeepEqual(a, b) {
			t.Fatal("two identical sharded runs diverged")
		}
		if ca.Processed() != cb.Processed() {
			t.Fatalf("processed counts diverged: %d vs %d", ca.Processed(), cb.Processed())
		}
	})
}

// A ping-pong between two shards exercises the minimal grant cycle:
// exactly one shard active per window.
func TestCoordinatorPingPongMatchesSerial(t *testing.T) {
	serial := runSerialRing(2, 1, 500, 5*time.Microsecond, time.Microsecond, 20*time.Millisecond)
	t.Run(protoName, func(t *testing.T) {
		sharded, _ := runShardedRing(2, 1, 500, 5*time.Microsecond, time.Microsecond, 20*time.Millisecond)
		if !reflect.DeepEqual(serial, sharded) {
			t.Fatal("ping-pong sharded log diverges from serial")
		}
		// The token must actually have bounced to the end.
		last := sharded[0][len(sharded[0])-1]
		if last.Hop < 498 {
			t.Fatalf("token stalled at hop %d", last.Hop)
		}
	})
}

// A skewed ring concentrates all events on one shard at a time: the
// other shards sit out every window, and the run must still match
// serial exactly.
func TestCoordinatorSkewedLoad(t *testing.T) {
	const (
		n         = 6
		hops      = 150
		linkDelay = 5 * time.Microsecond
		localStep = 2 * time.Microsecond
		deadline  = 10 * time.Millisecond
	)
	// One token on a six-shard ring: at any instant exactly one shard
	// has work, the other five idle — the maximal skew.
	serial := runSerialRing(n, 1, hops, linkDelay, localStep, deadline)
	sharded, coord := runShardedRing(n, 1, hops, linkDelay, localStep, deadline)
	if !reflect.DeepEqual(serial, sharded) {
		t.Fatal("skewed sharded log diverges from serial")
	}
	if coord.Processed() == 0 {
		t.Fatal("sharded run processed no events")
	}
}

// A coordinator with one shard must behave exactly like that shard's
// engine run serially.
func TestCoordinatorSingleShardDegenerate(t *testing.T) {
	coord := NewCoordinator()
	s := coord.NewShard()
	var fired []time.Duration
	for _, at := range []time.Duration{3, 1, 2, 2, 5} {
		at := at * time.Microsecond
		s.Engine().ScheduleAt(at, func() { fired = append(fired, s.Engine().Now()) })
	}
	coord.RunUntil(4 * time.Microsecond)
	want := []time.Duration{1 * time.Microsecond, 2 * time.Microsecond, 2 * time.Microsecond, 3 * time.Microsecond}
	if !reflect.DeepEqual(fired, want) {
		t.Fatalf("single-shard run fired %v, want %v", fired, want)
	}
	if now := s.Engine().Now(); now != 4*time.Microsecond {
		t.Fatalf("clock at %v, want deadline 4us", now)
	}
}

// Shards with no boundaries are independent simulations; RunUntil must
// still drive all of them to the deadline.
func TestCoordinatorNoBoundaries(t *testing.T) {
	coord := NewCoordinator()
	var total int
	for i := 0; i < 3; i++ {
		s := coord.NewShard()
		for j := 0; j < 4; j++ {
			s.Engine().Schedule(time.Duration(j)*time.Microsecond, func() { total++ })
		}
	}
	coord.RunUntil(time.Millisecond)
	if total != 12 {
		t.Fatalf("processed %d events, want 12", total)
	}
	if coord.Processed() != 12 {
		t.Fatalf("Processed() = %d, want 12", coord.Processed())
	}
}

// Boundary registration must reject configurations that break the
// conservative protocol.
func TestBoundaryValidation(t *testing.T) {
	coord := NewCoordinator()
	a, b := coord.NewShard(), coord.NewShard()
	other := NewCoordinator().NewShard()
	for name, fn := range map[string]func(){
		"same shard":    func() { coord.Boundary(a, a, time.Microsecond) },
		"zero delay":    func() { coord.Boundary(a, b, 0) },
		"foreign shard": func() { coord.Boundary(a, other, time.Microsecond) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
	if coord.Boundary(a, b, 3*time.Microsecond).Delay() != 3*time.Microsecond {
		t.Fatal("boundary delay mangled")
	}
	if coord.Lookahead() != 3*time.Microsecond {
		t.Fatalf("lookahead = %v, want 3us", coord.Lookahead())
	}
	coord.Boundary(b, a, 2*time.Microsecond)
	if coord.Lookahead() != 2*time.Microsecond {
		t.Fatalf("lookahead must fold to the minimum delay, got %v", coord.Lookahead())
	}
}

// The coordinator's configuration freezes at the first RunUntil:
// registering a boundary (or a shard) afterwards must panic instead of
// silently invalidating the lookahead already used to admit executed
// windows — even between runs.
func TestConfigFrozenAfterRun(t *testing.T) {
	coord := NewCoordinator()
	a, b := coord.NewShard(), coord.NewShard()
	coord.Boundary(a, b, time.Microsecond)
	coord.Boundary(b, a, time.Microsecond)
	a.Engine().Schedule(0, func() {})
	coord.RunUntil(time.Millisecond)

	for name, fn := range map[string]func(){
		"Boundary": func() { coord.Boundary(b, a, 5*time.Microsecond) },
		"NewShard": func() { coord.NewShard() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after RunUntil: expected panic", name)
				}
			}()
			fn()
		}()
	}
	// A second run with the frozen configuration must still work.
	b.Engine().ScheduleAt(2*time.Millisecond, func() {})
	coord.RunUntil(3 * time.Millisecond)
}

// TestBarrierWindowBounds pins the window arithmetic on a two-shard
// run with a 5us lookahead: a round's window is [T, T+L) from the
// earliest pending event T, only shards with work inside it are
// granted, an event exactly at a window end waits for the next round
// (after the barrier has injected the arrival that ties with it), and
// the last window stretches one nanosecond past the deadline.
func TestBarrierWindowBounds(t *testing.T) {
	const us = time.Microsecond
	coord := NewCoordinator()
	coord.EnableRuntimeStats()
	a, b := coord.NewShard(), coord.NewShard()
	ab := coord.Boundary(a, b, 5*us)
	coord.Boundary(b, a, 50*us)
	if coord.Lookahead() != 5*us {
		t.Fatalf("lookahead = %v, want 5us", coord.Lookahead())
	}
	// One log per shard: both workers run concurrently in round 2.
	var onA, onB []string
	rec := func(log *[]string, s *Shard, name string) {
		*log = append(*log, fmt.Sprintf("%s@%v", name, s.Engine().Now()))
	}
	a.Engine().ScheduleAt(10*us, func() {
		rec(&onA, a, "a1")
		ab.Send(func(any) { rec(&onB, b, "b1") }, nil)
	})
	a.Engine().ScheduleAt(15*us, func() { rec(&onA, a, "a2") })
	a.Engine().ScheduleAt(17*us, func() { rec(&onA, a, "a3") })
	a.Engine().ScheduleAt(18*us, func() { rec(&onA, a, "a4") })
	b.Engine().ScheduleAt(15*us, func() { rec(&onB, b, "b0") })
	coord.RunUntil(17 * us)

	// Round 1 is [10us, 15us) on A alone; round 2 is [15us, 17us+1ns) on
	// both shards.
	if want := []string{"a1@10µs", "a2@15µs", "a3@17µs"}; !reflect.DeepEqual(onA, want) {
		t.Errorf("shard A ran %v, want %v", onA, want)
	}
	if want := []string{"b0@15µs", "b1@15µs"}; !reflect.DeepEqual(onB, want) {
		t.Errorf("shard B ran %v, want %v", onB, want)
	}
	st, _ := coord.RuntimeStats()
	if st.GrantCalls != 2 {
		t.Errorf("rounds = %d, want 2", st.GrantCalls)
	}
	sa, sb := st.PerShard[0], st.PerShard[1]
	if sa.Grants != 2 || sb.Grants != 1 {
		t.Errorf("grants A=%d B=%d, want 2 and 1", sa.Grants, sb.Grants)
	}
	if want := 7*us + 1; sa.GrantWidth != want {
		t.Errorf("A grant width %v, want %v (5us, then 2us+1ns to the deadline)", sa.GrantWidth, want)
	}
	if want := 2*us + 1; sb.GrantWidth != want {
		t.Errorf("B grant width %v, want %v", sb.GrantWidth, want)
	}
	if sa.OutboxSent != 1 || sb.OutboxSent != 0 {
		t.Errorf("outbox A=%d B=%d, want 1 and 0", sa.OutboxSent, sb.OutboxSent)
	}
	if a.Engine().Now() != 17*us || b.Engine().Now() != 17*us {
		t.Errorf("clocks at %v/%v, want the 17us deadline", a.Engine().Now(), b.Engine().Now())
	}
	if a.Engine().Pending() != 1 {
		t.Errorf("A has %d pending, want the 18us event", a.Engine().Pending())
	}
}

// The extended event key must not disturb serial ordering: for any mix
// of same-time schedules, a serial engine orders by insertion sequence
// exactly as before the (schedAt, lane) extension.
func TestSerialOrderUnchangedByExtendedKey(t *testing.T) {
	eng := NewEngine()
	var order []string
	for i := 0; i < 10; i++ {
		i := i
		eng.ScheduleAt(5*time.Microsecond, func() { order = append(order, fmt.Sprintf("a%d", i)) })
	}
	eng.Schedule(time.Microsecond, func() {
		for i := 0; i < 10; i++ {
			i := i
			eng.ScheduleAt(5*time.Microsecond, func() { order = append(order, fmt.Sprintf("b%d", i)) })
		}
	})
	eng.Run()
	want := []string{"a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8", "a9",
		"b0", "b1", "b2", "b3", "b4", "b5", "b6", "b7", "b8", "b9"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("serial same-time order changed: %v", order)
	}
}
