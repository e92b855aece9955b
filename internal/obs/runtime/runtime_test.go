package runtime

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"pmsb/internal/sim"
)

// driveSharded runs a small two-shard ping-pong under the coordinator
// with runtime stats and an optional monitor attached.
func driveSharded(t *testing.T, mon *sim.Monitor) *sim.Coordinator {
	t.Helper()
	coord := sim.NewCoordinator()
	coord.EnableRuntimeStats()
	if mon != nil {
		coord.SetMonitor(mon)
	}
	a := coord.NewShard()
	b := coord.NewShard()
	ab := coord.Boundary(a, b, 5*time.Microsecond)
	ba := coord.Boundary(b, a, 5*time.Microsecond)
	var hop func(fwd bool, n int)
	hop = func(fwd bool, n int) {
		if n >= 300 {
			return
		}
		if fwd {
			ab.Send(func(any) { hop(false, n+1) }, nil)
		} else {
			ba.Send(func(any) { hop(true, n+1) }, nil)
		}
	}
	a.Engine().ScheduleAt(0, func() { hop(true, 0) })
	coord.RunUntil(5 * time.Millisecond)
	return coord
}

// A collected sharded run survives the dump → parse round trip with
// every metric intact.
func TestSnapshotDumpRoundTrip(t *testing.T) {
	coll := NewCollector()
	coll.ObserveCoordinator(driveSharded(t, nil))
	snap := coll.Snapshot()

	vals := snap.Values()
	if vals["runtime.runs"] != 1 {
		t.Fatalf("runs = %d, want 1", vals["runtime.runs"])
	}
	if vals["runtime.coord.shards"] != 2 {
		t.Fatalf("shards = %d, want 2", vals["runtime.coord.shards"])
	}
	if vals["runtime.shard.0.events"] == 0 || vals["runtime.shard.1.events"] == 0 {
		t.Fatal("per-shard event counters empty")
	}
	if vals["runtime.coord.wall_ns"] <= 0 {
		t.Fatal("wall time missing from dump values")
	}

	var buf bytes.Buffer
	n, err := snap.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	// Sorted, one metric per line.
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	for i := 1; i < len(lines); i++ {
		if lines[i-1] >= lines[i] {
			t.Fatalf("dump not sorted: %q >= %q", lines[i-1], lines[i])
		}
	}

	parsed, err := ParseDump(&buf)
	if err != nil {
		t.Fatalf("ParseDump: %v", err)
	}
	if len(parsed) != len(vals) {
		t.Fatalf("round trip kept %d metrics, want %d", len(parsed), len(vals))
	}
	for k, v := range vals {
		if parsed[k] != v {
			t.Fatalf("metric %s: %d != %d after round trip", k, parsed[k], v)
		}
	}
}

// ParseDump skips non-integer lines (histogram rows of a combined
// metrics dump) instead of failing.
func TestParseDumpSkipsNonInteger(t *testing.T) {
	in := "a.count\t3\nb.hist\t0.5:2 1:7\nplain line no tab\nc.value\t-9\n"
	vals, err := ParseDump(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ParseDump: %v", err)
	}
	if len(vals) != 2 || vals["a.count"] != 3 || vals["c.value"] != -9 {
		t.Fatalf("parsed %v", vals)
	}
}

// Observations of the same shape merge: counters sum, high-water marks
// max, and the run count tracks every observation.
func TestCollectorMerges(t *testing.T) {
	coll := NewCollector()
	c1 := driveSharded(t, nil)
	c2 := driveSharded(t, nil)
	coll.ObserveCoordinator(c1)
	snap1 := coll.Snapshot()
	coll.ObserveCoordinator(c2)
	snap2 := coll.Snapshot()
	if snap2.Runs != 2 {
		t.Fatalf("runs = %d, want 2", snap2.Runs)
	}
	st1, _ := c1.RuntimeStats()
	st2, _ := c2.RuntimeStats()
	if got, want := snap2.Coord.PerShard[0].Events, st1.PerShard[0].Events+st2.PerShard[0].Events; got != want {
		t.Fatalf("shard 0 events = %d after merge, want %d", got, want)
	}
	if snap2.Coord.Wall < snap1.Coord.Wall {
		t.Fatalf("wall time shrank on merge: %v -> %v", snap1.Coord.Wall, snap2.Coord.Wall)
	}
	if got, want := snap2.Engines[0].Processed, st1.PerShard[0].Events+st2.PerShard[0].Events; got != want {
		t.Fatalf("engine 0 processed = %d after merge, want %d", got, want)
	}
	q1, q2 := c1.Shards()[0].Engine().Stats().Queue, c2.Shards()[0].Engine().Stats().Queue
	if got, want := snap2.Engines[0].Queue.Inserts, q1.Inserts+q2.Inserts; got != want || got == 0 {
		t.Fatalf("engine 0 queue inserts = %d after merge, want %d (nonzero)", got, want)
	}
	if got, want := snap2.Engines[0].Queue.ScanSteps, q1.ScanSteps+q2.ScanSteps; got != want {
		t.Fatalf("engine 0 queue scan steps = %d after merge, want %d", got, want)
	}
}

// The report renders every diagnosis section from a real dump without
// error, and a serial dump degrades gracefully.
func TestReportSections(t *testing.T) {
	coll := NewCollector()
	coll.ObserveCoordinator(driveSharded(t, nil))
	var buf bytes.Buffer
	if err := Report(&buf, coll.Snapshot().Values()); err != nil {
		t.Fatalf("Report: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"coordinator", "imbalance", "null-advance", "workers", "queue churn",
		"scan/insert",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q section:\n%s", want, out)
		}
	}

	serial := NewCollector()
	eng := sim.NewEngine()
	eng.Schedule(time.Microsecond, func() {})
	eng.RunUntil(time.Millisecond)
	serial.ObserveSerial(eng)
	buf.Reset()
	if err := Report(&buf, serial.Snapshot().Values()); err != nil {
		t.Fatalf("Report (serial): %v", err)
	}
	if !strings.Contains(buf.String(), "serial run") {
		t.Fatalf("serial report missing fallback header:\n%s", buf.String())
	}
}

// The sampler emits valid JSON progress lines, ends with a final line
// reflecting the monitor's last published state, and Stop is
// idempotent.
func TestSamplerEmitsProgress(t *testing.T) {
	mon := sim.NewMonitor()
	var buf bytes.Buffer
	s := StartSampler(&buf, mon, time.Millisecond)
	coord := driveSharded(t, mon)
	time.Sleep(5 * time.Millisecond) // let a few ticks land
	s.Stop()
	s.Stop()

	var lines []ProgressLine
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var l ProgressLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad progress line %q: %v", sc.Text(), err)
		}
		lines = append(lines, l)
	}
	if len(lines) == 0 {
		t.Fatal("sampler emitted no lines")
	}
	last := lines[len(lines)-1]
	if !last.Final {
		t.Fatalf("last line not final: %+v", last)
	}
	if last.Events != coord.Processed() {
		t.Fatalf("final line reports %d events, run processed %d", last.Events, coord.Processed())
	}
	if last.Shards != 2 {
		t.Fatalf("final line reports %d shards, want 2", last.Shards)
	}
	if last.SimMS != 5 {
		t.Fatalf("final line frontier %vms, want 5ms", last.SimMS)
	}
	for i := 1; i < len(lines); i++ {
		if lines[i].WallS < lines[i-1].WallS || lines[i].Events < lines[i-1].Events {
			t.Fatalf("progress regressed between lines: %+v -> %+v", lines[i-1], lines[i])
		}
	}
}
