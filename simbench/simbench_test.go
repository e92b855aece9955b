package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"os"
	"regexp"
	"testing"
	"time"

	"pmsb/internal/core"
	"pmsb/internal/ecn"
	"pmsb/internal/pkt"
	"pmsb/internal/sched"
	"pmsb/internal/units"
)

func TestDigestOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fcts := make([]time.Duration, 500)
	for i := range fcts {
		fcts[i] = time.Duration(rng.Int63n(int64(time.Second)))
	}
	var inOrder digest
	inOrder.addAll(fcts)
	var shuffled digest
	for _, i := range rng.Perm(len(fcts)) {
		shuffled.add(uint64(i+1), fcts[i])
	}
	if inOrder != shuffled {
		t.Fatalf("digest depends on order: %v vs %v", inOrder, shuffled)
	}
	fcts[7]++
	var changed digest
	changed.addAll(fcts)
	if changed == inOrder {
		t.Fatal("digest ignores a one-nanosecond FCT change")
	}
	var ab, ba digest
	ab.combine(1, 0)
	ab.combine(2, 1)
	ba.combine(2, 0)
	ba.combine(1, 1)
	if ab == ba {
		t.Fatal("swapping two cells' results leaves the combined digest unchanged")
	}
}

// queueView is a minimal ecn.PortView over one scheduler.
type queueView struct{ s sched.Scheduler }

func (v queueView) NumQueues() int         { return v.s.NumQueues() }
func (v queueView) QueueBytes(q int) int   { return v.s.QueueBytes(q) }
func (v queueView) QueuePackets(q int) int { return v.s.QueuePackets(q) }
func (v queueView) PortBytes() int         { return v.s.TotalBytes() }
func (v queueView) PortPackets() int       { return v.s.TotalPackets() }
func (v queueView) Weight(q int) float64   { return v.s.Weight(q) }
func (v queueView) WeightSum() float64     { return v.s.WeightSum() }
func (v queueView) LinkRate() units.Rate   { return 10 * units.Gbps }
func (v queueView) Now() time.Duration     { return 0 }
func (v queueView) Round() ecn.RoundInfo   { return nil }
func packet(service, size int) *pkt.Packet {
	return &pkt.Packet{Service: service, Size: size, ECT: true}
}
func newDWRR(now func() time.Duration) *sched.DWRR {
	return sched.NewDWRR([]float64{1, 2, 1}, units.MTU, sched.WithClock(now))
}

// TestSchedProbeForwards drives a bare DWRR and a probed one through the
// same calls, including the idle notification a port sends, and checks
// that the probe is invisible: same dequeue order, same round state,
// and exact op counts.
func TestSchedProbeForwards(t *testing.T) {
	var now time.Duration
	clock := func() time.Duration { return now }
	bare := newDWRR(clock)
	st := &opStats{}
	probed := decorateSched(newDWRR(clock), st)
	ri, ok := probed.(sched.RoundInfo)
	if !ok {
		t.Fatal("probe around DWRR hides sched.RoundInfo")
	}
	io, ok := probed.(idleObserver)
	if !ok {
		t.Fatal("probe around DWRR hides ObserveIdle")
	}
	ops := int64(0)
	for round := 0; round < 3; round++ {
		now += time.Millisecond
		bare.ObserveIdle(now)
		io.ObserveIdle(now)
		for i := 0; i < 40; i++ {
			q, size := i%3, 200+i*30
			bare.Enqueue(q, packet(q, size))
			probed.Enqueue(q, packet(q, size))
			ops++
		}
		for {
			now += time.Microsecond
			p1, q1, ok1 := bare.Dequeue()
			p2, q2, ok2 := probed.Dequeue()
			ops++
			if ok1 != ok2 || q1 != q2 || (ok1 && p1.Size != p2.Size) {
				t.Fatalf("dequeue diverged: bare (%v,%d) probed (%v,%d)", ok1, q1, ok2, q2)
			}
			if !ok1 {
				break
			}
			if bare.RoundTime() != ri.RoundTime() {
				t.Fatalf("round time %v, probe reports %v", bare.RoundTime(), ri.RoundTime())
			}
		}
	}
	for q := 0; q < 3; q++ {
		if bare.QuantumBytes(q) != ri.QuantumBytes(q) {
			t.Fatalf("queue %d quantum %d, probe reports %d", q, bare.QuantumBytes(q), ri.QuantumBytes(q))
		}
	}
	if st.calls != ops || st.timed != ops/(sampleMask+1) {
		t.Fatalf("probe counted %d calls (%d timed), want %d", st.calls, st.timed, ops)
	}
	if _, ok := decorateSched(sched.NewWFQ([]float64{1, 1}), &opStats{}).(sched.RoundInfo); ok {
		t.Fatal("probe around WFQ claims sched.RoundInfo; MQ-ECN would read a round the port does not have")
	}
}

func TestMarkerProbeForwards(t *testing.T) {
	ps := newProbeSet()
	inner := &core.PMSB{PortK: 3000, MarkPoint: ecn.AtDequeue}
	m := ps.wrapMarker("pmsb", func() ecn.Marker { return inner })()
	if m.Name() != inner.Name() || m.Point() != inner.Point() {
		t.Fatalf("probe reports %s@%v, marker is %s@%v", m.Name(), m.Point(), inner.Name(), inner.Point())
	}
	s := sched.NewWFQ([]float64{1, 1})
	pv := queueView{s}
	marks := int64(0)
	for i := 0; i < 100; i++ {
		s.Enqueue(i%2, packet(i%2, 100+i*10))
		p := packet(0, 1000)
		want := inner.ShouldMark(pv, 0, p)
		if got := m.ShouldMark(pv, 0, p); got != want {
			t.Fatalf("decision %d: probe says %v, marker %v", i, got, want)
		}
		if want {
			marks++
		}
	}
	tot := total(ps.markers, "pmsb")
	if tot.calls != 100 || tot.hits != marks || marks == 0 {
		t.Fatalf("probe counted %d decisions, %d marks; want 100, %d (>0)", tot.calls, tot.hits, marks)
	}
}

func TestDepthQuantile(t *testing.T) {
	a, b := &depthHist{}, &depthHist{}
	for d := 1; d <= 100; d++ {
		a.add(d)
	}
	b.add(300)
	if got := depthQuantile([]*depthHist{a, b}, 0.5); got != 51 {
		t.Fatalf("p50 = %v, want 51", got)
	}
	if got := depthQuantile([]*depthHist{a, b}, 1); got != 300 {
		t.Fatalf("p100 = %v, want 300", got)
	}
	if got := depthQuantile(nil, 0.99); got != 0 {
		t.Fatalf("empty p99 = %v, want 0", got)
	}
}

// TestMemFileRoundTrip writes across block boundaries in uneven pieces
// and reads the same bytes back.
func TestMemFileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	want := make([]byte, 2*memBlock+12345)
	rng.Read(want)
	m := &memFile{}
	for p := want; len(p) > 0; {
		k := min(len(p), 1+rng.Intn(300_000))
		if n, err := m.Write(p[:k]); n != k || err != nil {
			t.Fatalf("Write = %d, %v; want %d, nil", n, err, k)
		}
		p = p[k:]
	}
	got, err := io.ReadAll(m.reader())
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read back %d bytes (err %v), want the %d written", len(got), err, len(want))
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

// TestMetricNames checks every metric the program reports against the
// naming rules and against BENCHMARK.json, which must list exactly the
// program's workloads and metrics with the same units.
func TestMetricNames(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.name) || !unitRE.MatchString(m.unit) {
			t.Errorf("metric %q (unit %q) breaks the naming rules", m.name, m.unit)
		}
		if seen[m.name] {
			t.Errorf("metric %q reported twice", m.name)
		}
		seen[m.name] = true
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the program %d+%d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit || m.Better != "lower" ||
			m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, program %+v", i, m, endToEnd[i])
		}
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, program %+v", i, m, perLayer[i])
		}
	}
}
