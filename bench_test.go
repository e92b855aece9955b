package pmsb_test

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"pmsb/internal/core"
	"pmsb/internal/ecn"
	"pmsb/internal/experiment"
	"pmsb/internal/flowsim"
	"pmsb/internal/netsim"
	"pmsb/internal/obs"
	"pmsb/internal/pkt"
	"pmsb/internal/sched"
	"pmsb/internal/sim"
	"pmsb/internal/topo"
	"pmsb/internal/transport"
	"pmsb/internal/units"
	"pmsb/internal/workload"
)

// benchExperiment runs one registered experiment per iteration in Quick
// mode. There is one benchmark per paper table and figure; the combined
// sweeps fct-dwrr / fct-wfq regenerate Figures 16-21 / 22-27 in one run.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	spec, err := experiment.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	opt := experiment.Options{Quick: true, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := spec.Run(opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

// Table I and the motivation figures (Section II).
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkFig1(b *testing.B)   { benchExperiment(b, "fig1") }
func BenchmarkFig2(b *testing.B)   { benchExperiment(b, "fig2") }
func BenchmarkFig3(b *testing.B)   { benchExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)   { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)   { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)   { benchExperiment(b, "fig7") }

// Static-flow evaluation (Section VI-A).
func BenchmarkFig8(b *testing.B)  { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)  { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B) { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B) { benchExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B) { benchExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B) { benchExperiment(b, "fig15") }

// Large-scale FCT (Section VI-B). The combined sweeps cover every
// per-figure statistic; the individual figure IDs remain runnable via
// cmd/pmsbsim (each re-runs the sweep and projects one column).
func BenchmarkFctDWRR(b *testing.B) { benchExperiment(b, "fct-dwrr") } // Figures 16-21
func BenchmarkFctWFQ(b *testing.B)  { benchExperiment(b, "fct-wfq") }  // Figures 22-27

// Theorem IV.1 validation.
func BenchmarkTheorem41(b *testing.B) { benchExperiment(b, "theorem41") }

// Extensions: prose-claim validation and ablations (see DESIGN.md).
func BenchmarkPool(b *testing.B)           { benchExperiment(b, "pool") }
func BenchmarkAblationPortK(b *testing.B)  { benchExperiment(b, "ablation-portk") }
func BenchmarkAblationFilter(b *testing.B) { benchExperiment(b, "ablation-filter") }
func BenchmarkIncast(b *testing.B)         { benchExperiment(b, "incast") }
func BenchmarkAblationRTTThresh(b *testing.B) {
	benchExperiment(b, "ablation-rttthresh")
}
func BenchmarkFctWeighted(b *testing.B) { benchExperiment(b, "fct-weighted") }
func BenchmarkAnalysisValidation(b *testing.B) {
	benchExperiment(b, "analysis-validation")
}
func BenchmarkAblationAverage(b *testing.B) { benchExperiment(b, "ablation-average") }

// --- Parallel runner -----------------------------------------------------

// benchRunMany measures the experiment runner end to end on a fixed
// sample of fast experiments at a given worker count. Comparing the
// Jobs1 and JobsN variants shows the fan-out speedup on multi-core
// machines (and its absence on single-core ones); the output payload is
// identical in both, which TestJobsDeterminism asserts.
func benchRunMany(b *testing.B, jobs int) {
	b.Helper()
	var specs []experiment.Spec
	for _, id := range []string{"table1", "fig5", "fig4", "incast", "ablation-average"} {
		spec, err := experiment.Lookup(id)
		if err != nil {
			b.Fatal(err)
		}
		specs = append(specs, spec)
	}
	opt := experiment.Options{Quick: true, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, manifest, err := experiment.RunMany(specs, opt, jobs)
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != len(specs) || manifest.TotalEvents == 0 {
			b.Fatal("incomplete run")
		}
	}
}

func BenchmarkRunManyJobs1(b *testing.B) { benchRunMany(b, 1) }
func BenchmarkRunManyJobsN(b *testing.B) { benchRunMany(b, 0) } // NumCPU workers

// --- Engine and algorithm micro-benchmarks -------------------------------

// BenchmarkPMSBDecision measures the raw per-packet cost of Algorithm 1.
func BenchmarkPMSBDecision(b *testing.B) {
	eng := sim.NewEngine()
	s := sched.NewDWRR([]float64{1, 1, 1, 1}, units.MTU, sched.WithClock(eng.Now))
	link := netsim.NewLink(eng, 10*units.Gbps, time.Microsecond, nullNode{})
	port := netsim.NewPort(eng, link, netsim.PortConfig{Sched: s})
	m := &core.PMSB{PortK: units.Packets(12)}
	p := &pkt.Packet{ECT: true, Size: units.MTU}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ShouldMark(port, i%4, p)
	}
}

// BenchmarkMQECNDecision measures MQ-ECN's per-packet cost for contrast
// (the paper argues PMSB has RED-level complexity while MQ-ECN needs
// round state).
func BenchmarkMQECNDecision(b *testing.B) {
	eng := sim.NewEngine()
	s := sched.NewDWRR([]float64{1, 1, 1, 1}, units.MTU, sched.WithClock(eng.Now))
	link := netsim.NewLink(eng, 10*units.Gbps, time.Microsecond, nullNode{})
	port := netsim.NewPort(eng, link, netsim.PortConfig{Sched: s})
	m := &ecn.MQECN{RTT: 80 * time.Microsecond, Lambda: 1}
	p := &pkt.Packet{ECT: true, Size: units.MTU}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ShouldMark(port, i%4, p)
	}
}

// BenchmarkPacketForwarding measures raw simulator throughput: packets
// pushed through a FIFO port and link per second of wall time. Packets
// come from the pool and the sink releases them, so the steady state is
// allocation-free (guarded by TestPortSendZeroAlloc in internal/netsim).
func BenchmarkPacketForwarding(b *testing.B) {
	eng := sim.NewEngine()
	sink := nullNode{}
	link := netsim.NewLink(eng, 100*units.Gbps, 0, sink)
	port := netsim.NewPort(eng, link, netsim.PortConfig{Sched: sched.NewFIFO()})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pkt.Get()
		p.ID = uint64(i)
		p.Size = units.MTU
		p.ECT = true
		port.Send(p)
		if i%64 == 63 {
			eng.Run()
		}
	}
	eng.Run()
}

// BenchmarkDCTCPFlow measures one complete 1MB DCTCP transfer over a
// dumbbell per iteration (transport + scheduler + marking end to end).
func BenchmarkDCTCPFlow(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		d := topo.NewDumbbell(eng, topo.DumbbellConfig{
			Senders: 1,
			Bottleneck: topo.PortProfile{
				Weights:   topo.EqualWeights(1),
				NewSched:  topo.FIFOFactory(),
				NewMarker: func() ecn.Marker { return &core.PMSB{PortK: units.Packets(12)} },
			},
		})
		done := false
		f := transport.NewFlow(eng, d.Senders[0], d.Recv, 1, 0, 1_000_000,
			transport.Config{}, func(*transport.Sender) { done = true })
		f.Sender.Start()
		eng.RunUntil(time.Second)
		if !done {
			b.Fatal("flow did not complete")
		}
	}
}

// BenchmarkLeafSpineSecond measures simulating the full 48-host fabric
// with 100 web-search flows.
func BenchmarkLeafSpineFlows(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runLeafSpineOnce(b)
	}
}

func runLeafSpineOnce(b *testing.B) {
	b.Helper()
	eng := sim.NewEngine()
	ls := topo.NewLeafSpine(eng, topo.LeafSpineConfig{
		Ports: topo.PortProfile{
			Weights:     topo.EqualWeights(8),
			NewSched:    topo.DWRRFactory(eng),
			NewMarker:   func() ecn.Marker { return &core.PMSB{PortK: units.Packets(12)} },
			BufferBytes: units.Packets(250),
		},
	})
	var fid transport.FlowIDGen
	completed := 0
	for i := 0; i < 100; i++ {
		src, dst := i%48, (i+7)%48
		f := transport.NewFlow(eng, ls.Host(src), ls.Host(dst), fid.Next(), i%8, 100_000,
			transport.Config{InitWindow: 16}, func(*transport.Sender) { completed++ })
		eng.ScheduleAt(time.Duration(i)*50*time.Microsecond, f.Sender.Start)
	}
	eng.RunUntil(time.Second)
	if completed != 100 {
		b.Fatalf("completed %d/100", completed)
	}
}

// BenchmarkFatTree measures the fabric-scale hot path: a k=8 fat-tree
// (128 hosts, 80 switches, 640 scheduler ports) carrying 2048 concurrent
// DCTCP flows of 50KB each across random pods. This is the workload the
// calendar queue exists for — hundreds of thousands of pending events
// with heavy timer churn.
func BenchmarkFatTree(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runFatTreeOnce(b)
	}
}

func runFatTreeOnce(b *testing.B) {
	b.Helper()
	eng := sim.NewEngine()
	ft := topo.NewFatTree(eng, topo.FatTreeConfig{
		K: 8,
		Ports: topo.PortProfile{
			Weights:     topo.EqualWeights(8),
			NewSched:    topo.DWRRFactory(eng),
			NewMarker:   func() ecn.Marker { return &core.PMSB{PortK: units.Packets(12)} },
			BufferBytes: units.Packets(250),
		},
	})
	driveFatTreeFlows(b, ft, nil, nil)
}

// driveFatTreeFlows launches the shared 2048-flow workload over ft and
// runs it to completion on coord (or serially on ft.Eng when coord is
// nil). A non-nil bus traces every transport. One completion closure is
// shared by every flow and the flows are released afterwards, so
// repeated runs recycle transport state through the pools instead of
// re-allocating 2048 senders/receivers per iteration.
func driveFatTreeFlows(b *testing.B, ft *topo.FatTree, coord *sim.Coordinator, bus *obs.Bus) {
	b.Helper()
	const flows = 2048
	n := ft.NumHosts()
	var fid transport.FlowIDGen
	// Completions fire on whichever shard worker owns the sending host,
	// so the shared counter must be atomic under a coordinator.
	var completed atomic.Int64
	onDone := func(*transport.Sender) { completed.Add(1) }
	launched := make([]*transport.Flow, 0, flows)
	for i := 0; i < flows; i++ {
		// Deterministic pseudo-random pairs via the topo hash's mixing
		// constant; starts stagger over 2ms so all flows overlap.
		src := (i * 0x9e37) % n
		dst := (src + 1 + (i*0x79b9)%(n-1)) % n
		f := transport.NewFlow(ft.Eng, ft.Host(src), ft.Host(dst), fid.Next(), i%8, 50_000,
			transport.Config{InitWindow: 16, Obs: bus}, onDone)
		f.Sender.StartAt(time.Duration(i%2048) * time.Microsecond)
		launched = append(launched, f)
	}
	if coord != nil {
		coord.RunUntil(2 * time.Second)
	} else {
		ft.Eng.RunUntil(2 * time.Second)
	}
	if completed.Load() != flows {
		b.Fatalf("completed %d/%d", completed.Load(), flows)
	}
	for _, f := range launched {
		f.Release()
	}
	engs := []*sim.Engine{ft.Eng}
	if coord != nil {
		engs = engs[:0]
		for _, s := range coord.Shards() {
			engs = append(engs, s.Engine())
		}
	}
	reportScan(b, engs...)
}

// reportScan reports the calendar queue's chain-walk steps per bucket
// insert, summed over engines: a work counter, so unlike ns/op it
// repeats exactly from run to run and machine to machine, serial or
// sharded: barrier windows and their outbox drains happen in the same
// order whatever the worker timing.
func reportScan(b *testing.B, engs ...*sim.Engine) {
	b.Helper()
	var ins, steps uint64
	for _, e := range engs {
		q := e.Stats().Queue
		ins += q.Inserts
		steps += q.ScanSteps
	}
	if ins > 0 {
		b.ReportMetric(float64(steps)/float64(ins), "scan/insert")
	}
}

// BenchmarkFatTreeSharded runs the same k=8 fat-tree workload through
// the shard coordinator at increasing shard counts (1 shard is the
// degenerate serial path and measures pure coordinator overhead; the
// sharded runs split the pods and cores across engines). Compare
// against BenchmarkFatTree for the serial baseline.
func BenchmarkFatTreeSharded(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runFatTreeShardedOnce(b, 8, shards)
			}
		})
	}
}

// BenchmarkFatTree16Sharded scales the fabric to k=16 (1024 hosts, the
// regime the roadmap's large-topology line targets) at the serial-path
// and full shard counts. The workload is the same 2048-flow mix, so the
// row measures fabric overhead growth, not extra traffic.
func BenchmarkFatTree16Sharded(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runFatTreeShardedOnce(b, 16, shards)
			}
		})
	}
}

// BenchmarkFatTree32Sharded is the memory-lean fabric's headline row:
// k=32 (8192 hosts, ~49k ports) built arena-backed with slab-carved
// DWRR and a shared marker, serial path vs 8-way pod-sharded under the
// batched slab handoff. The workload is the same 2048-flow mix as the
// k=8/k=16 rows, so the delta across rows is fabric scale, not traffic.
func BenchmarkFatTree32Sharded(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runFatTree32ShardedOnce(b, shards)
			}
		})
	}
}

// runFatTree32ShardedOnce builds the k=32 fabric with the memory-lean
// port profile (the one the fattree32 experiment and the k=32
// differential gate run) and drives the standard flow mix.
func runFatTree32ShardedOnce(b *testing.B, shards int) {
	b.Helper()
	coord := sim.NewCoordinator()
	ft, _ := topo.NewFatTreeSharded(coord, topo.FatTreeConfig{
		K: 32,
		Ports: topo.PortProfile{
			Weights:       topo.EqualWeights(8),
			NewSchedBlock: topo.DWRRBlocks(),
			SharedMarker:  &core.PMSB{PortK: units.Packets(12)},
			BufferBytes:   units.Packets(250),
		},
	}, shards)
	if n := ft.ArenaOverflow(); n != 0 {
		b.Fatalf("arena overflowed by %d objects", n)
	}
	driveFatTreeFlows(b, ft, coord, nil)
}

func runFatTreeShardedOnce(b *testing.B, k, shards int) {
	b.Helper()
	coord := sim.NewCoordinator()
	ft, _ := topo.NewFatTreeSharded(coord, topo.FatTreeConfig{
		K: k,
		Ports: topo.PortProfile{
			Weights:      topo.EqualWeights(8),
			NewSchedWith: topo.DWRRSched,
			NewMarker:    func() ecn.Marker { return &core.PMSB{PortK: units.Packets(12)} },
			BufferBytes:  units.Packets(250),
		},
	}, shards)
	driveFatTreeFlows(b, ft, coord, nil)
}

// --- Trace overhead ------------------------------------------------------

// BenchmarkFatTreeTraced is the roadmap's lossless-tracing gate: the
// same k=8 fat-tree workload as BenchmarkFatTree, untraced vs fully
// traced (every switch tier and every transport on one bus, the ring
// spilling to a real file as it fills). Compare the traced rows against
// untraced for the overhead; the binary target is <15%. Zero ring
// truncation is asserted, so the spill file is the complete event
// stream of the run.
func BenchmarkFatTreeTraced(b *testing.B) {
	b.Run("untraced", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runFatTreeOnce(b)
		}
	})
	for _, format := range []obs.TraceFormat{obs.FormatBinary, obs.FormatJSONL} {
		b.Run(format.String()+"-spill", func(b *testing.B) {
			b.ReportAllocs()
			var events uint64
			for i := 0; i < b.N; i++ {
				events = runFatTreeTracedOnce(b, format)
			}
			b.ReportMetric(float64(events), "events/op")
		})
	}
}

// runFatTreeTracedOnce runs the fat-tree workload with full tracing
// into a spill file and returns the number of events recorded.
func runFatTreeTracedOnce(b *testing.B, format obs.TraceFormat) uint64 {
	b.Helper()
	eng := sim.NewEngine()
	ft := topo.NewFatTree(eng, topo.FatTreeConfig{
		K: 8,
		Ports: topo.PortProfile{
			Weights:     topo.EqualWeights(8),
			NewSched:    topo.DWRRFactory(eng),
			NewMarker:   func() ecn.Marker { return &core.PMSB{PortK: units.Packets(12)} },
			BufferBytes: units.Packets(250),
		},
	})
	f, err := os.Create(filepath.Join(b.TempDir(), "trace."+format.String()))
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	sw := obs.NewSpillWriter(f, format)
	// One writer chunk of events (640KB): stays L2-resident between
	// spill flushes, and each flush hands the codec exactly one full
	// chunk with no staging copy. Far smaller than the ~1.4M-event
	// stream, so the spill path is exercised hundreds of times per run.
	// Trace-only bus, matching `pmsbsim -tracefile` without -metrics.
	bus := obs.NewTraceBus(8192)
	bus.Ring().SetSpill(sw)
	for _, tier := range [][]*netsim.Switch{ft.Edges, ft.Aggs, ft.Cores} {
		for _, s := range tier {
			s.Observe(bus)
		}
	}
	driveFatTreeFlows(b, ft, nil, bus)
	if err := bus.Ring().FlushSpill(); err != nil {
		b.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		b.Fatal(err)
	}
	if d := bus.Ring().Dropped(); d != 0 {
		b.Fatalf("ring truncated %d events despite spill", d)
	}
	if bus.Ring().Total() == 0 {
		b.Fatal("traced run recorded nothing")
	}
	return bus.Ring().Total()
}

// benchTraceEvents synthesizes a realistic event mix (the per-packet
// enqueue/dequeue/mark cycle with occupancy) for the encoder
// micro-benchmarks.
func benchTraceEvents(n int) []obs.Event {
	events := make([]obs.Event, n)
	for i := range events {
		ev := obs.Event{
			Seq:  uint64(i),
			T:    time.Duration(i) * 800,
			Node: pkt.NodeID(1 + i%80), Port: int32(i % 8), Queue: int32(i % 4),
			Pkt: uint64(i), Size: units.MTU,
			PortBytes: int64((i % 50) * units.MTU), QueueBytes: int64((i % 13) * units.MTU),
		}
		switch i % 16 {
		case 3:
			ev.Kind = obs.KindMark
		case 7:
			ev.Kind = obs.KindDequeue
		default:
			ev.Kind = obs.KindEnqueue
		}
		events[i] = ev
	}
	return events
}

// BenchmarkTraceEncodeJSONL / ...Binary measure the per-event export
// cost of the two codecs on the same 64k-event stream. The binary
// codec's columnar encode is the reason traced runs stay near the
// untraced wall clock.
func BenchmarkTraceEncodeJSONL(b *testing.B) {
	events := benchTraceEvents(1 << 16)
	r := obs.NewRing(len(events))
	for _, ev := range events {
		r.Append(ev)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.WriteJSONL(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraceEncodeBinary(b *testing.B) {
	events := benchTraceEvents(1 << 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := obs.WriteBinary(io.Discard, events); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineChurn measures raw scheduler cost under a pending-set
// of fixed size, one pop + one fresh schedule per operation, on two
// event mixes:
//
//   - uniform (the unprefixed rows): offsets spread evenly over 0-10ms,
//     with every 7th timer cancelled (cancelled events ride the queue
//     until their time comes, as in the transport's lazy timers). The
//     one mix where any width rule works, since the mean offset
//     describes every event.
//   - fabric: 1024 packets in flight (about the busy links of a loaded
//     k=16 fat-tree), each hopping to its next link at now+prop+ser (1us
//     plus a 0.1-1.2us serialization time), and the rest of the pending
//     set RTO-like timers 1-10ms out that re-arm when they expire, as the
//     transport's lazy-deadline RTO does. The far timers dominate the
//     pending set and its mean offset, while most inserts land in the
//     dense near-future cluster.
//
// A flat ns/op across 10k -> 1M pending is the calendar queue's O(1)
// claim; the heap rows show the O(log n) baseline. The calendar rows
// also report scan/insert, the chain-walk steps per bucket insert: a
// work counter that, unlike ns/op, repeats exactly at a fixed
// iteration count (-benchtime Nx).
func BenchmarkEngineChurn(b *testing.B) {
	for _, mix := range []struct {
		prefix string
		fabric bool
	}{{"", false}, {"fabric/", true}} {
		for _, kind := range []struct {
			name string
			k    sim.QueueKind
		}{{"calendar", sim.QueueCalendar}, {"heap", sim.QueueHeap}} {
			for _, pending := range []int{10_000, 100_000, 1_000_000} {
				b.Run(fmt.Sprintf("%s%s/%d", mix.prefix, kind.name, pending), func(b *testing.B) {
					benchEngineChurn(b, kind.k, pending, mix.fabric)
				})
			}
		}
	}
}

// fabricHops is the fabric churn mix's packets in flight.
const fabricHops = 1024

func benchEngineChurn(b *testing.B, kind sim.QueueKind, pending int, fabric bool) {
	eng := sim.NewEngineWithQueue(kind)
	// A splitmix-style stream keeps every row's schedule deterministic.
	rnd := uint64(12345)
	next := func() uint64 {
		rnd += 0x9e3779b97f4a7c15
		x := rnd
		return (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	}
	uniform := func() time.Duration { return time.Duration(next()%uint64(10*time.Millisecond)) + time.Nanosecond }
	hopDelay := func() time.Duration { return time.Microsecond + time.Duration(100+next()%1100) }
	rtoDelay := func() time.Duration { return time.Millisecond + time.Duration(next()%uint64(9*time.Millisecond)) }
	nop := func(any) {}
	var hop, rto func(any)
	hop = func(any) { eng.ScheduleCall(hopDelay(), hop, nil) }
	rto = func(any) { eng.ScheduleCall(rtoDelay(), rto, nil) }

	for i := 0; i < pending; i++ {
		switch {
		case !fabric:
			eng.ScheduleCall(uniform(), nop, nil)
		case i < fabricHops:
			eng.ScheduleCall(hopDelay(), hop, nil)
		default:
			eng.ScheduleCall(rtoDelay(), rto, nil)
		}
	}
	before := eng.Stats().Queue
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
		if fabric {
			continue // the fired hop or timer scheduled its own successor
		}
		t := eng.ScheduleCall(uniform(), nop, nil)
		if i%7 == 0 {
			t.Cancel()
			eng.ScheduleCall(uniform(), nop, nil)
		}
	}
	b.StopTimer()
	after := eng.Stats().Queue
	if ins := after.Inserts - before.Inserts; ins > 0 {
		b.ReportMetric(float64(after.ScanSteps-before.ScanSteps)/float64(ins), "scan/insert")
	}
}

// nullNode swallows packets (benchmark sink): as the terminal consumer
// it releases each packet back to the pool.
type nullNode struct{}

func (nullNode) NodeID() pkt.NodeID    { return 0 }
func (nullNode) Receive(p *pkt.Packet) { pkt.Release(p) }

func BenchmarkPFC(b *testing.B) { benchExperiment(b, "pfc") }

func BenchmarkAblationMarkPoint(b *testing.B) { benchExperiment(b, "ablation-markpoint") }

// --- Flow-level engine ---------------------------------------------------

// BenchmarkFlowSimFatTree runs the flow-level fluid engine over the
// exact workload of BenchmarkFatTree (k=8, 2048 x 50KB flows, same
// src/dst striding and flow-ID order, so every ECMP choice matches).
// The ns/op ratio against BenchmarkFatTree is the packet-vs-flow
// speedup BENCH_8.json records.
func BenchmarkFlowSimFatTree(b *testing.B) {
	g := topo.FatTreePaths(topo.FatTreeConfig{K: 8})
	specs := flowSimFatTreeSpecs(g.Hosts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runFlowSimOnce(b, g, specs)
	}
}

// flowSimFatTreeSpecs mirrors driveFatTreeFlows' deterministic workload
// as engine-agnostic specs.
func flowSimFatTreeSpecs(n int) []workload.FlowSpec {
	const flows = 2048
	specs := make([]workload.FlowSpec, 0, flows)
	for i := 0; i < flows; i++ {
		src := (i * 0x9e37) % n
		dst := (src + 1 + (i*0x79b9)%(n-1)) % n
		specs = append(specs, workload.FlowSpec{
			Start:   time.Duration(i%2048) * time.Microsecond,
			Src:     src,
			Dst:     dst,
			Size:    50_000,
			Service: i % 8,
		})
	}
	return specs
}

func runFlowSimOnce(b *testing.B, g *topo.PathGraph, specs []workload.FlowSpec) {
	b.Helper()
	eng := sim.NewEngine()
	completed := 0
	fs := flowsim.New(eng, g, flowsim.Config{
		Marking:    flowsim.PMSB{KBytes: float64(units.Packets(12))},
		Weights:    []int{1, 1, 1, 1, 1, 1, 1, 1},
		InitWindow: 16,
		OnFinish:   func(flowsim.FlowResult) { completed++ },
	})
	fs.Start(specs)
	eng.RunUntil(2 * time.Second)
	if completed != len(specs) {
		b.Fatalf("completed %d/%d", completed, len(specs))
	}
}

// BenchmarkFatTreeBuild measures topology construction cost and memory
// footprint at k in {8, 16, 32} for both the packet fabric and the
// flow-level path graph, reporting bytes/port (the roadmap's k=32
// memory-gap number: the packet engine's ~41k-port footprint vs the
// flow graph's link array).
func BenchmarkFatTreeBuild(b *testing.B) {
	for _, k := range []int{8, 16, 32} {
		k := k
		ports := 5 * k * k * k / 4 // k^3/4 host NICs + 4 switch tiers' worth of ports
		b.Run(fmt.Sprintf("packet/k%d", k), func(b *testing.B) {
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			var ft *topo.FatTree
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ft = topo.NewFatTree(sim.NewEngine(), topo.FatTreeConfig{
					K: k,
					Ports: topo.PortProfile{
						Weights:       topo.EqualWeights(8),
						NewSchedBlock: topo.FIFOBlocks(),
						SharedMarker:  &core.PMSB{PortK: units.Packets(12)},
						BufferBytes:   units.Packets(250),
					},
				})
			}
			b.StopTimer()
			runtime.GC()
			runtime.ReadMemStats(&after)
			if ft != nil && ft.NumHosts() != k*k*k/4 {
				b.Fatal("bad fabric")
			}
			live := float64(after.HeapAlloc) - float64(before.HeapAlloc)
			if live > 0 {
				b.ReportMetric(live/float64(ports), "bytes/port")
			}
		})
		b.Run(fmt.Sprintf("flow/k%d", k), func(b *testing.B) {
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			var g *topo.PathGraph
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g = topo.FatTreePaths(topo.FatTreeConfig{K: k})
			}
			b.StopTimer()
			runtime.GC()
			runtime.ReadMemStats(&after)
			if g == nil || g.Hosts != k*k*k/4 {
				b.Fatal("bad graph")
			}
			live := float64(after.HeapAlloc) - float64(before.HeapAlloc)
			if live > 0 {
				b.ReportMetric(live/float64(ports), "bytes/port")
			}
		})
	}
}
