package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"time"

	"pmsb/internal/core"
	"pmsb/internal/ecn"
	"pmsb/internal/flowsim"
	"pmsb/internal/netsim"
	"pmsb/internal/obs"
	"pmsb/internal/pkt"
	"pmsb/internal/sim"
	"pmsb/internal/stats"
	"pmsb/internal/topo"
	"pmsb/internal/transport"
	"pmsb/internal/units"
	"pmsb/internal/workload"
)

// The paper's Section VI-B constants, as internal/experiment uses them:
// 10 Gbps links, DCTCP with a 16-segment initial window, 250-packet
// port buffers, PMSB/PMSB(e) port threshold 12 packets, PMSB(e) RTT
// threshold 85.2us, MQ-ECN standard threshold 65 packets, TCN 78.2us.
const (
	linkRate   = 10 * units.Gbps
	initWindow = 16
	bufferPkts = 250
	portKPkts  = 12
	mqecnKPkts = 65
	tcnThresh  = 78200 * time.Nanosecond
	pmsbeRTT   = 85200 * time.Nanosecond
)

// Workload sizes. Each sample costs ~1-3 s of simulation on a 2-vCPU
// host, so a 30 s run holds 10-25 samples.
const (
	runTail     = 2 * time.Second // horizon past the last open-loop arrival
	sweepLoad   = 0.5
	sweepBytes  = 100e6 // offered per cell
	sweepSvcs   = 8
	fabricSvcs  = 4
	ft16K       = 16
	ft16Shards  = 2
	ft16Load    = 0.3
	ft16Bytes   = 150e6
	incastK     = 8
	incastWaves = 40
	incastRecv  = 2 // pod-0 receivers per wave
	incastPer   = 4 // senders per pod (pods 1..7) per receiver
	incastSize  = 64_000
	incastRing  = 4096
	flowK       = 32
	flowLoad    = 0.3
	flowFlows   = 10_000
)

// env is what a workload sees of its sample process.
type env struct {
	seed   int64
	sp     *spans
	root   int       // the sample span
	probes *probeSet // nil unless traced
	noBus  bool      // incast: run without the trace bus (obs.record_s)
	win    *window   // closed by the workload when its run phase ends
}

func (e *env) traced() bool { return e.probes != nil }

// result is one sample's outcome. layer holds per-layer counters under
// their metric names; derived ratios are computed from it afterwards.
type result struct {
	flows, completed int
	digest           digest
	problems         []string
	layer            tally
}

// tally accumulates named numbers.
type tally map[string]float64

func (t tally) add(k string, v float64) { t[k] += v }

func (t tally) max(k string, v float64) {
	if v > t[k] {
		t[k] = v
	}
}

func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// workloadDef names one benchmark workload. procs is the GOMAXPROCS of
// its sample processes; 0 means nproc.
type workloadDef struct {
	name  string
	run   func(e *env) (*result, error)
	procs int
}

// The sharded workload's two shard workers share one P. Given both
// vCPUs of a shared 2-vCPU host, they ran ~35% slower than on one P
// (1.5 s against 1.1 s a sample, idle host) and their conservative
// synchronisation turned every stall of either vCPU into wall time:
// samples of the same inputs spread 0.9-1.9 s, and 10-run medians by
// 25%. On one P the coordinator, the window grants and the slab handoff
// run the same code; only its cost on two real cores goes unmeasured.
var workloads = []workloadDef{
	{"leafspine-sweep", runLeafSpineSweep, 0},
	{"fattree16-websearch", runFatTree16, 1},
	{"fattree8-incast-traced", runIncast, 0},
	{"flow-fattree32", runFlowFatTree32, 0},
}

// gomaxprocs is the GOMAXPROCS of w's sample processes.
func (w workloadDef) gomaxprocs() int {
	if w.procs > 0 {
		return w.procs
	}
	return runtime.NumCPU()
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// poissonBatch draws open-loop Poisson arrivals until their sizes fill
// budget bytes, leaving out any flow that would overflow it: a batch of
// fixed offered volume. Packet-engine run time follows the bytes
// offered, and web-search sizes are so heavy-tailed (coefficient of
// variation ~2.3) that a fixed flow count would make one seed's batch
// cost a multiple of another's.
func poissonBatch(cfg workload.PoissonConfig, budget int64) []workload.FlowSpec {
	cfg.NumFlows = int(4*float64(budget)/cfg.Dist.Mean()) + 64
	var out []workload.FlowSpec
	left := budget
	for _, s := range workload.Poisson(cfg) {
		if s.Size <= left {
			out = append(out, s)
			left -= s.Size
		}
		if left < units.MSS {
			break
		}
	}
	return out
}

// book records one batch of packet-engine flows. Completion callbacks
// write only their own slot, so shards may complete flows concurrently.
type book struct {
	fcts    []time.Duration // 0 = unfinished
	senders []*transport.Sender
}

func newBook(n int) *book {
	return &book{fcts: make([]time.Duration, n), senders: make([]*transport.Sender, n)}
}

// open creates flow i (flow ID i+1, in spec order) on the given hosts;
// then, when non-nil, runs after the flow completes.
func (b *book) open(eng *sim.Engine, src, dst *netsim.Host, i int, spec workload.FlowSpec,
	cfg transport.Config, then func()) *transport.Sender {
	f := transport.NewFlow(eng, src, dst, pkt.FlowID(i+1), spec.Service, spec.Size, cfg,
		func(s *transport.Sender) {
			b.fcts[i] = s.FCT()
			if then != nil {
				then()
			}
		})
	b.senders[i] = f.Sender
	return f.Sender
}

// settle folds the batch into the sample result: completions, the FCT
// digest (salted by part) and the transport counters.
func (b *book) settle(r *result, part int, filtered bool) {
	var d digest
	d.addAll(b.fcts)
	r.digest.combine(d, uint64(part))
	r.flows += len(b.fcts)
	for _, f := range b.fcts {
		if f > 0 {
			r.completed++
		}
	}
	for _, s := range b.senders {
		r.layer.add("transport.retransmits", float64(s.Retransmits()))
		r.layer.add("transport.marks_seen", float64(s.MarksSeen()))
		r.layer.add("transport.marks_accepted", float64(s.MarksAccepted()))
		if filtered {
			r.layer.add("filter.seen", float64(s.MarksSeen()))
			r.layer.add("filter.accepted", float64(s.MarksAccepted()))
		}
	}
}

// fabric is the packet network of one simulation, for the run-end
// sanity checks and the netsim/sim counters.
type fabric struct {
	switches []*netsim.Switch
	hosts    []*netsim.Host
	engines  []*sim.Engine
}

func (f fabric) settle(r *result) {
	var routeDrops, unclaimed int64
	for _, sw := range f.switches {
		routeDrops += sw.RouteDrops()
		for i := 0; i < sw.NumPorts(); i++ {
			countPort(r, sw.Port(i))
		}
	}
	for _, h := range f.hosts {
		unclaimed += h.UnclaimedPackets()
		countPort(r, h.NIC())
	}
	if routeDrops != 0 || unclaimed != 0 {
		r.fail("fabric sanity: routeDrops=%d unclaimed=%d", routeDrops, unclaimed)
	}
	for _, eng := range f.engines {
		st := eng.Stats()
		r.layer.add("sim.events", float64(st.Processed))
		r.layer.max("sim.pending_hiwater", float64(st.HiWater))
		r.layer.add("sim.queue_grows", float64(st.Queue.Grows))
		r.layer.add("sim.queue_shrinks", float64(st.Queue.Shrinks))
		r.layer.add("sim.queue_migrations", float64(st.Queue.Migrations))
	}
}

func countPort(r *result, p *netsim.Port) {
	r.layer.add("netsim.tx_pkts", float64(p.TxPackets()))
	r.layer.add("netsim.drops", float64(p.DropPackets()))
	r.layer.add("netsim.marks", float64(p.MarkedPackets()))
}

// tapDepth installs, on every switch port, an enqueue tap recording the
// port's packet occupancy into the histogram of the switch's shard.
func (ps *probeSet) tapDepth(switches []*netsim.Switch, shardOf func(pkt.NodeID) int) {
	if ps == nil {
		return
	}
	for _, sw := range switches {
		s := shardOf(sw.NodeID())
		for len(ps.depth) <= s {
			ps.depth = append(ps.depth, &depthHist{})
		}
		h := ps.depth[s]
		for i := 0; i < sw.NumPorts(); i++ {
			port := sw.Port(i)
			port.OnEnqueue(func(*pkt.Packet, int) { h.add(port.PortPackets()) })
		}
	}
}

// buildTopo runs build inside the topo.build span and records the bytes
// it allocated (read outside the span, so setup_s does not pay for it).
func (e *env) buildTopo(r *result, parent int, build func()) {
	a0 := totalAlloc()
	e.sp.timed(spanTopo, parent, build)
	r.layer.add("topo.build_bytes", float64(totalAlloc()-a0))
}

func serial(pkt.NodeID) int { return 0 }

func switchesOfLeafSpine(ls *topo.LeafSpine) []*netsim.Switch {
	return append(append([]*netsim.Switch{}, ls.Leaves...), ls.Spines...)
}

func switchesOfFatTree(ft *topo.FatTree) []*netsim.Switch {
	sw := append(append([]*netsim.Switch{}, ft.Edges...), ft.Aggs...)
	return append(sw, ft.Cores...)
}

func portsOf(switches []*netsim.Switch, hosts int) int {
	n := hosts // one NIC each
	for _, sw := range switches {
		n += sw.NumPorts()
	}
	return n
}

// sweepCell is one (scheduler, marking scheme) cell of Section VI-B.
type sweepCell struct {
	sched  string // "dwrr" or "wfq"
	marker string // probe key: the switch-side marker's scheme
	filter bool   // PMSB(e): per-port marking plus the end-host RTT filter
}

// sweepCells is the paper's cell set: PMSB, PMSB(e), MQ-ECN and TCN
// under DWRR; PMSB, PMSB(e) and TCN under WFQ (MQ-ECN needs rounds).
var sweepCells = []sweepCell{
	{"dwrr", "pmsb", false},
	{"dwrr", "per-port", true},
	{"dwrr", "mq-ecn", false},
	{"dwrr", "tcn", false},
	{"wfq", "pmsb", false},
	{"wfq", "per-port", true},
	{"wfq", "tcn", false},
}

func markerFactory(kind string) topo.MarkerFactory {
	switch kind {
	case "pmsb":
		return func() ecn.Marker { return &core.PMSB{PortK: units.Packets(portKPkts)} }
	case "per-port":
		return func() ecn.Marker { return &ecn.PerPort{K: units.Packets(portKPkts)} }
	case "mq-ecn":
		k := units.Packets(mqecnKPkts)
		return func() ecn.Marker {
			return &ecn.MQECN{RTT: units.Serialization(k, linkRate), Lambda: 1, MarkPoint: ecn.AtEnqueue}
		}
	case "tcn":
		return func() ecn.Marker { return &ecn.TCN{Threshold: tcnThresh} }
	}
	panic("simbench: unknown marker " + kind)
}

// runLeafSpineSweep runs the seven cells back to back on the 48-host
// leaf-spine, each with its own Poisson web-search arrivals.
func runLeafSpineSweep(e *env) (*result, error) {
	r := &result{layer: tally{}}
	for ci, c := range sweepCells {
		cell := e.sp.begin(spanCell+":"+c.sched+"/"+c.marker, e.root)
		var (
			eng   *sim.Engine
			ls    *topo.LeafSpine
			specs []workload.FlowSpec
		)
		e.buildTopo(r, cell, func() {
			eng = sim.NewEngine()
			sf := topo.WFQFactory()
			if c.sched == "dwrr" {
				sf = topo.DWRRFactory(eng)
			}
			ls = topo.NewLeafSpine(eng, topo.LeafSpineConfig{
				Rate: linkRate,
				Ports: topo.PortProfile{
					Weights:     topo.EqualWeights(sweepSvcs),
					NewSched:    e.probes.wrapSched(c.sched, sf),
					NewMarker:   e.probes.wrapMarker(c.marker, markerFactory(c.marker)),
					BufferBytes: units.Packets(bufferPkts),
				},
			})
		})
		switches := switchesOfLeafSpine(ls)
		e.probes.tapDepth(switches, serial)
		r.layer.add("topo.ports", float64(portsOf(switches, len(ls.Hosts))))
		e.sp.timed(spanWorkload, cell, func() {
			specs = poissonBatch(workload.PoissonConfig{
				Load:     sweepLoad,
				LinkRate: linkRate,
				Hosts:    ls.NumHosts(),
				Dist:     workload.WebSearch(),
				Services: sweepSvcs,
				Seed:     deriveSeed(e.seed, ci),
			}, sweepBytes)
		})
		b := newBook(len(specs))
		e.sp.timed(spanFlows, cell, func() {
			for i, s := range specs {
				cfg := transport.Config{InitWindow: initWindow}
				if c.filter {
					cfg.Filter = &core.PMSBe{RTTThreshold: pmsbeRTT}
				}
				b.open(eng, ls.Host(s.Src), ls.Host(s.Dst), i, s, cfg, nil).StartAt(s.Start)
			}
		})
		e.sp.timed(spanRun, cell, func() { eng.RunUntil(specs[len(specs)-1].Start + runTail) })
		e.sp.end(cell)
		if ci == len(sweepCells)-1 {
			e.win.close()
		}
		b.settle(r, ci, c.filter)
		fabric{switches: switches, hosts: ls.Hosts, engines: []*sim.Engine{eng}}.settle(r)
	}
	return r, nil
}

// fatTreePorts is the fat-tree experiments' port profile: DWRR carved
// from per-shard slabs, the paper's 250-packet buffer, and the given
// marker factory.
func (e *env) fatTreePorts(marker topo.MarkerFactory) topo.PortProfile {
	return topo.PortProfile{
		Weights:       topo.EqualWeights(fabricSvcs),
		NewSchedBlock: e.probes.wrapSchedBlock("dwrr", topo.DWRRBlocks()),
		NewMarker:     e.probes.wrapMarker("pmsb", marker),
		BufferBytes:   units.Packets(bufferPkts),
	}
}

// sharedPMSB hands every port the same PMSB marker, which is stateless
// (topo.PortProfile.SharedMarker's premise); the factory form lets the
// traced run give each port its own probe around it.
func sharedPMSB() topo.MarkerFactory {
	m := &core.PMSB{PortK: units.Packets(portKPkts)}
	return func() ecn.Marker { return m }
}

// runFatTree16 runs cross-pod web-search arrivals over a k=16 fat-tree
// split into two pod-block shards under the channel-clock coordinator.
// Traced samples then replay the identical specs through flowsim.
func runFatTree16(e *env) (*result, error) {
	r := &result{layer: tally{}}
	cfg := topo.FatTreeConfig{
		K:               ft16K,
		Rate:            linkRate,
		FabricDelaySkew: time.Nanosecond,
		Ports:           e.fatTreePorts(sharedPMSB()),
	}
	var (
		coord *sim.Coordinator
		ft    *topo.FatTree
		part  *topo.Partition
		specs []workload.FlowSpec
	)
	e.buildTopo(r, e.root, func() {
		coord = sim.NewCoordinator()
		ft, part = topo.NewFatTreeSharded(coord, cfg, ft16Shards)
	})
	if e.traced() {
		coord.EnableRuntimeStats()
	}
	switches := switchesOfFatTree(ft)
	e.probes.tapDepth(switches, func(id pkt.NodeID) int { s, _ := part.ShardOf(id); return s })
	r.layer.add("topo.ports", float64(portsOf(switches, len(ft.Hosts))))
	r.layer.add("topo.arena_overflow", float64(ft.ArenaOverflow()))
	e.sp.timed(spanWorkload, e.root, func() {
		specs = poissonBatch(workload.PoissonConfig{
			Load:     ft16Load,
			LinkRate: linkRate,
			Hosts:    ft.NumHosts(),
			Dist:     workload.WebSearch(),
			Services: fabricSvcs,
			Seed:     e.seed,
		}, ft16Bytes)
		crossPod(specs, ft16K*ft16K/4)
	})
	b := newBook(len(specs))
	e.sp.timed(spanFlows, e.root, func() {
		for i, s := range specs {
			cfg := transport.Config{InitWindow: initWindow}
			b.open(ft.Eng, ft.Host(s.Src), ft.Host(s.Dst), i, s, cfg, nil).StartAt(s.Start)
		}
	})
	deadline := specs[len(specs)-1].Start + runTail
	e.sp.timed(spanRun, e.root, func() { coord.RunUntil(deadline) })
	e.win.close()
	b.settle(r, 0, false)
	var engines []*sim.Engine
	for _, s := range coord.Shards() {
		engines = append(engines, s.Engine())
	}
	fabric{switches: switches, hosts: ft.Hosts, engines: engines}.settle(r)
	if n := ft.ArenaOverflow(); n != 0 {
		r.fail("arena overflow: %d", n)
	}
	if st, ok := coord.RuntimeStats(); ok {
		pdesCounters(r.layer, st)
	}
	if e.traced() {
		e.sp.timed(spanFCTErr, e.root, func() { fctErrPass(r, topo.FatTreePaths(cfg), specs, deadline, b.fcts) })
	}
	return r, nil
}

// crossPod moves every intra-pod destination one pod over, so all
// traffic crosses the core tier.
func crossPod(specs []workload.FlowSpec, hostsPerPod int) {
	hosts := hostsPerPod * ft16K
	for i := range specs {
		if specs[i].Src/hostsPerPod == specs[i].Dst/hostsPerPod {
			specs[i].Dst = (specs[i].Dst + hostsPerPod) % hosts
		}
	}
}

func pdesCounters(t tally, st sim.CoordinatorStats) {
	var maxEv, sumEv float64
	for _, s := range st.PerShard {
		t.add("pdes.grants", float64(s.Grants))
		t.add("pdes.handoffs", float64(s.OutboxSent))
		t.add("pdes.parked", float64(s.Parked))
		ev := float64(s.Events)
		sumEv += ev
		maxEv = math.Max(maxEv, ev)
	}
	t.add("pdes.null_rounds", float64(st.RelaxRounds))
	for _, w := range st.PerWorker {
		t.add("pdes.busy_s", w.Busy.Seconds())
		t.add("pdes.blocked_s", w.Blocked.Seconds())
		t.add("pdes.idle_s", w.Idle.Seconds())
	}
	if sumEv > 0 {
		t.add("pdes.imbalance", maxEv/(sumEv/float64(len(st.PerShard))))
	}
}

// flowsimConfig is the fluid counterpart of the fat-tree port profile.
func flowsimConfig(onFinish func(flowsim.FlowResult)) flowsim.Config {
	weights := make([]int, fabricSvcs)
	for i := range weights {
		weights[i] = 1
	}
	return flowsim.Config{
		Marking:    flowsim.PMSB{KBytes: float64(units.Packets(portKPkts))},
		Weights:    weights,
		InitWindow: initWindow,
		OnFinish:   onFinish,
	}
}

// fctErrPass runs specs through flowsim (flow IDs in spec order, as the
// packet run used) and records the relative error of its FCT p50 and
// p99 against the packet FCTs, over flows that completed in both.
func fctErrPass(r *result, g *topo.PathGraph, specs []workload.FlowSpec, deadline time.Duration,
	packet []time.Duration) {
	fluid := make([]time.Duration, len(specs))
	eng := sim.NewEngine()
	start := time.Now()
	fs := flowsim.New(eng, g, flowsimConfig(func(fr flowsim.FlowResult) { fluid[fr.Index] = fr.FCT }))
	fs.Start(specs)
	eng.RunUntil(deadline)
	flowsimCounters(r.layer, fs, eng, time.Since(start), len(specs))
	var ps, fsum stats.Summary
	for i := range specs {
		if packet[i] > 0 && fluid[i] > 0 {
			ps.AddDuration(packet[i])
			fsum.AddDuration(fluid[i])
		}
	}
	if ps.Count() == 0 {
		r.fail("fct error pass: no flow completed on both engines")
		return
	}
	for _, p := range []float64{50, 99} {
		pv := ps.Percentile(p)
		r.layer.add(fmt.Sprintf("fct_err_p%.0f", p), math.Abs(fsum.Percentile(p)-pv)/pv)
	}
}

func flowsimCounters(t tally, fs *flowsim.Sim, eng *sim.Engine, wall time.Duration, flows int) {
	t.add("flowsim.events", float64(eng.Processed()))
	t.add("flowsim.quantum_us", float64(fs.Quantum())/float64(time.Microsecond))
	t.add("flowsim.ns_per_flow", float64(wall.Nanoseconds())/float64(flows))
}

// timingWriter measures the time spent in the writes under it.
type timingWriter struct {
	w    io.Writer
	busy time.Duration
	n    int64
}

func (t *timingWriter) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := t.w.Write(p)
	t.busy += time.Since(t0)
	t.n += int64(n)
	return n, err
}

// memFile is the incast trace's spill target: a file held in memory as
// 1 MiB blocks. It holds the bytes a spill file on disk would, while the
// page cache and disk of a shared host stay out of run_s.
type memFile struct{ blocks [][]byte }

const memBlock = 1 << 20

func (m *memFile) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		if len(m.blocks) == 0 || len(m.blocks[len(m.blocks)-1]) == memBlock {
			m.blocks = append(m.blocks, make([]byte, 0, memBlock))
		}
		b := &m.blocks[len(m.blocks)-1]
		k := copy((*b)[len(*b):memBlock], p)
		*b = (*b)[:len(*b)+k]
		p = p[k:]
	}
	return n, nil
}

// reader reads the file from its start.
func (m *memFile) reader() io.Reader {
	rs := make([]io.Reader, len(m.blocks))
	for i, b := range m.blocks {
		rs[i] = bytes.NewReader(b)
	}
	return io.MultiReader(rs...)
}

// incastWave draws one wave: incastRecv distinct pod-0 receivers, each
// fed by incastPer distinct senders from every other pod.
func incastWave(rng *rand.Rand) []workload.FlowSpec {
	const hostsPerPod = incastK * incastK / 4
	var specs []workload.FlowSpec
	for _, recv := range rng.Perm(hostsPerPod)[:incastRecv] {
		var senders []int
		for p := 1; p < incastK; p++ {
			for _, h := range rng.Perm(hostsPerPod)[:incastPer] {
				senders = append(senders, p*hostsPerPod+h)
			}
		}
		specs = append(specs, workload.Incast(workload.IncastConfig{
			Receiver: recv,
			Senders:  senders,
			Size:     incastSize,
			Services: fabricSvcs,
		})...)
	}
	return specs
}

// runIncast runs closed-loop partition-aggregate waves on a k=8
// fat-tree: wave w+1 starts when the last flow of wave w completes.
// Every switch and sender reports to a trace-only bus spilling binary
// to a file, which is then reduced as pmsbstat reduces it.
func runIncast(e *env) (*result, error) {
	r := &result{layer: tally{}}
	var (
		eng   *sim.Engine
		ft    *topo.FatTree
		waves [][]workload.FlowSpec
		bus   *obs.Bus
		sw    *obs.SpillWriter
		tw    *timingWriter
		file  *memFile
	)
	e.buildTopo(r, e.root, func() {
		eng = sim.NewEngine()
		ft = topo.NewFatTree(eng, topo.FatTreeConfig{
			K:               incastK,
			Rate:            linkRate,
			FabricDelaySkew: time.Nanosecond,
			Ports:           e.fatTreePorts(sharedPMSB()),
		})
	})
	switches := switchesOfFatTree(ft)
	e.probes.tapDepth(switches, serial)
	r.layer.add("topo.ports", float64(portsOf(switches, len(ft.Hosts))))
	r.layer.add("topo.arena_overflow", float64(ft.ArenaOverflow()))
	if !e.noBus {
		file = &memFile{}
		tw = &timingWriter{w: file}
		sw = obs.NewSpillWriter(tw, obs.FormatBinary)
		bus = obs.NewTraceBus(incastRing)
		bus.Ring().SetSpill(sw)
		for _, s := range switches {
			s.Observe(bus)
		}
	}
	e.sp.timed(spanWorkload, e.root, func() {
		rng := rand.New(rand.NewSource(e.seed))
		for w := 0; w < incastWaves; w++ {
			waves = append(waves, incastWave(rng))
		}
	})
	var total int
	for _, w := range waves {
		total += len(w)
	}
	b := newBook(total)
	e.sp.timed(spanFlows, e.root, func() {
		first := 0
		senders := make([][]*transport.Sender, len(waves))
		left := make([]int, len(waves))
		for w, specs := range waves {
			left[w] = len(specs)
			next := func() {
				if left[w]--; left[w] == 0 && w+1 < len(waves) {
					for k, snd := range senders[w+1] {
						snd.StartAt(eng.Now() + waves[w+1][k].Start)
					}
				}
			}
			for j, s := range specs {
				cfg := transport.Config{InitWindow: initWindow, Obs: bus}
				snd := b.open(eng, ft.Host(s.Src), ft.Host(s.Dst), first+j, s, cfg, next)
				senders[w] = append(senders[w], snd)
			}
			first += len(specs)
		}
		for k, s := range senders[0] {
			s.StartAt(waves[0][k].Start)
		}
	})
	e.sp.timed(spanRun, e.root, func() { eng.RunUntil(time.Hour) })
	if bus != nil {
		var err error
		e.sp.timed(spanFlush, e.root, func() {
			if err = bus.Ring().FlushSpill(); err == nil {
				err = sw.Close()
			}
		})
		if err != nil {
			return nil, fmt.Errorf("flush trace: %w", err)
		}
	}
	e.win.close()
	b.settle(r, 0, false)
	fabric{switches: switches, hosts: ft.Hosts, engines: []*sim.Engine{eng}}.settle(r)
	if n := ft.ArenaOverflow(); n != 0 {
		r.fail("arena overflow: %d", n)
	}
	if bus == nil {
		return r, nil
	}
	ring := bus.Ring()
	if ring.Dropped() != 0 || ring.SpillErr() != nil {
		r.fail("trace ring: dropped=%d spill error=%v", ring.Dropped(), ring.SpillErr())
	}
	st := obs.NewStreamStats(obs.StreamOptions{Counts: true, Depths: true, MarkBin: 100 * time.Microsecond})
	var err error
	e.sp.timed(spanReduce, e.root, func() {
		err = st.Reduce(file.reader())
	})
	if err != nil {
		return nil, fmt.Errorf("reduce trace: %w", err)
	}
	// The trace must agree with the ports' own counters.
	if uint64(st.Events) != ring.Total() ||
		float64(st.Kinds[obs.KindDrop]) != switchCount(switches, (*netsim.Port).DropPackets) ||
		float64(st.Kinds[obs.KindDequeue]) != switchCount(switches, (*netsim.Port).TxPackets) ||
		st.Kinds[obs.KindFlowFinish] != r.completed {
		r.fail("trace disagrees with the fabric: events %d/%d, drops %d, dequeues %d, finishes %d/%d",
			st.Events, ring.Total(), st.Kinds[obs.KindDrop], st.Kinds[obs.KindDequeue],
			st.Kinds[obs.KindFlowFinish], r.completed)
	}
	r.layer.add("obs.events", float64(ring.Total()))
	r.layer.add("obs.bytes", float64(tw.n))
	r.layer.add("obs.write_s", tw.busy.Seconds())
	return r, nil
}

func switchCount(switches []*netsim.Switch, get func(*netsim.Port) int64) float64 {
	var n int64
	for _, sw := range switches {
		for i := 0; i < sw.NumPorts(); i++ {
			n += get(sw.Port(i))
		}
	}
	return float64(n)
}

// runFlowFatTree32 runs web-search Poisson arrivals through flowsim over
// a k=32 fat-tree path graph: no packet layer is involved.
func runFlowFatTree32(e *env) (*result, error) {
	r := &result{layer: tally{}}
	var (
		g     *topo.PathGraph
		specs []workload.FlowSpec
		eng   *sim.Engine
		fs    *flowsim.Sim
		fcts  []time.Duration
	)
	e.buildTopo(r, e.root, func() { g = topo.FatTreePaths(topo.FatTreeConfig{K: flowK, Rate: linkRate}) })
	r.layer.add("topo.ports", float64(len(g.Links)))
	e.sp.timed(spanWorkload, e.root, func() {
		specs = workload.Poisson(workload.PoissonConfig{
			Load:     flowLoad,
			LinkRate: linkRate,
			Hosts:    g.Hosts,
			Dist:     workload.WebSearch(),
			Services: fabricSvcs,
			NumFlows: flowFlows,
			Seed:     e.seed,
		})
	})
	e.sp.timed(spanFlowStart, e.root, func() {
		fcts = make([]time.Duration, len(specs))
		eng = sim.NewEngine()
		fs = flowsim.New(eng, g, flowsimConfig(func(fr flowsim.FlowResult) { fcts[fr.Index] = fr.FCT }))
		fs.Start(specs)
	})
	start := time.Now()
	e.sp.timed(spanRun, e.root, func() { eng.RunUntil(specs[len(specs)-1].Start + runTail) })
	e.win.close()
	flowsimCounters(r.layer, fs, eng, time.Since(start), len(specs))
	r.digest.addAll(fcts)
	r.flows = len(specs)
	r.completed = fs.Completed()
	return r, nil
}
