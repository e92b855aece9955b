package experiment

import (
	"fmt"
	"time"

	"pmsb/internal/core"
	"pmsb/internal/obs"
	"pmsb/internal/pkt"
	"pmsb/internal/sim"
	"pmsb/internal/stats"
	"pmsb/internal/topo"
	"pmsb/internal/transport"
	"pmsb/internal/units"
)

// Fat-tree experiments: the k=8 (128-host) fabric the sharded
// coordinator is benchmarked on, registered as first-class experiments
// so the runtime-introspection surface (-runtimestats, -progress) has a
// genuinely multi-shard workload to explain. Two traffic shapes:
//
//   - "fattree": cross-pod permutation traffic — every pod sends and
//     receives, so the pod-sharded partition is roughly balanced.
//   - "fattree-incast": pods 1..7 all send into pod 0 — the skewed
//     load where one shard's windows dominate and the shard-imbalance
//     report earns its keep. EXPERIMENTS.md walks through diagnosing
//     this one.
//
// Both honor Shards (pods block-partition onto up to 8
// shards) and the tracing/monitor/runtime options, with fixed start
// times and deadlines so results are deterministic and byte-identical
// across shard counts (the same workload shape differential_test.go
// gates).

const (
	fattreeK        = 8
	fattreeServices = 4
	fattreeDeadline = 50 * time.Millisecond
)

// fattreeConfig is the shared port/fabric profile for a k-ary tree:
// DWRR scheduling carved from per-shard slabs, one shared (stateless)
// PMSB marker, the paper's 250-packet port buffer, and a nanosecond
// fabric-delay skew so no two cross-shard arrivals can tie (the
// precondition for shard-count-invariant results). The slab/shared
// profile is what keeps the k=32 (49k-port) fabric buildable in a few
// MB; the k=8 differential suite gates its behavioral equivalence with
// the per-port factories.
func fattreeConfig(k int) topo.FatTreeConfig {
	return topo.FatTreeConfig{
		K:               k,
		FabricDelaySkew: time.Nanosecond,
		Ports: topo.PortProfile{
			Weights:       topo.EqualWeights(fattreeServices),
			NewSchedBlock: topo.DWRRBlocks(),
			SharedMarker:  &core.PMSB{PortK: units.Packets(fctPortK)},
			BufferBytes:   units.Packets(fctBufferPkts),
		},
	}
}

// fattreeFlow is one flow of the fixed workload.
type fattreeFlow struct {
	src, dst int
	size     int64
}

// fattreeCrossPod is the permutation-ish cross-pod workload (the
// differential tests' shape): deterministic src/dst striding that
// touches every pod. n flows over the k-ary tree's k^3/4 hosts.
func fattreeCrossPod(k, n int) []fattreeFlow {
	hostsPP := (k / 2) * (k / 2)
	nHosts := k * k * k / 4
	flows := make([]fattreeFlow, 0, n)
	for i := 0; i < n; i++ {
		src := (i * 7) % nHosts
		dst := (src + hostsPP + i*11) % nHosts
		if dst/hostsPP == src/hostsPP {
			dst = (dst + hostsPP) % nHosts
		}
		flows = append(flows, fattreeFlow{src: src, dst: dst, size: 50_000})
	}
	return flows
}

// fattreeIncast is the skewed workload: perPod senders in each of pods
// 1..k-1 converge on host 0 in pod 0.
func fattreeIncast(k, perPod int) []fattreeFlow {
	hostsPP := (k / 2) * (k / 2)
	var flows []fattreeFlow
	for p := 1; p < k; p++ {
		for j := 0; j < perPod; j++ {
			flows = append(flows, fattreeFlow{src: p*hostsPP + j*3, dst: 0, size: 30_000})
		}
	}
	return flows
}

// runFatTree builds the k-ary fabric (serial or pod-sharded per opt),
// starts the fixed workload, and reports completions and FCT
// percentiles.
func runFatTree(id, title string, k int, flows []fattreeFlow, opt Options) (*Result, error) {
	cfg := fattreeConfig(k)
	shards := opt.shards()
	if shards > k {
		shards = k
	}
	var (
		ft    *topo.FatTree
		eng   *sim.Engine
		coord *sim.Coordinator
		part  *topo.Partition
	)
	if shards > 1 {
		coord = sim.NewCoordinator()
		ft, part = topo.NewFatTreeSharded(coord, cfg, shards)
	} else {
		eng = sim.NewEngine()
		ft = topo.NewFatTree(eng, cfg)
	}

	busForNode := func(id pkt.NodeID) *obs.Bus {
		if part != nil {
			if s, ok := part.ShardOf(id); ok {
				return opt.obsFor(s)
			}
		}
		return opt.obsFor(0)
	}
	if opt.tracing() {
		for _, sw := range ft.Edges {
			sw.Observe(busForNode(sw.NodeID()))
		}
		for _, sw := range ft.Aggs {
			sw.Observe(busForNode(sw.NodeID()))
		}
		for _, sw := range ft.Cores {
			sw.Observe(busForNode(sw.NodeID()))
		}
	}

	var fcts stats.Summary
	completed := 0
	var fid transport.FlowIDGen
	for i, fl := range flows {
		cfg := transport.Config{InitWindow: fctInitWindow}
		if opt.tracing() {
			cfg.Obs = busForNode(ft.Host(fl.src).NodeID())
		}
		f := transport.NewFlow(ft.Eng, ft.Host(fl.src), ft.Host(fl.dst), fid.Next(),
			i%fattreeServices, fl.size, cfg, func(s *transport.Sender) {
				fcts.Add(s.FCT().Seconds())
				completed++
			})
		f.Sender.StartAt(time.Duration(i) * 4 * time.Microsecond)
	}

	if coord != nil {
		opt.instrument(coord)
		coord.RunUntil(fattreeDeadline)
	} else {
		opt.instrumentEngine(eng)
		eng.RunUntil(fattreeDeadline)
	}

	var routeDrops, unclaimed int64
	for _, sw := range ft.Edges {
		routeDrops += sw.RouteDrops()
	}
	for _, sw := range ft.Aggs {
		routeDrops += sw.RouteDrops()
	}
	for _, sw := range ft.Cores {
		routeDrops += sw.RouteDrops()
	}
	for _, h := range ft.Hosts {
		unclaimed += h.UnclaimedPackets()
	}
	if routeDrops > 0 || unclaimed > 0 {
		return nil, fmt.Errorf("%s: fabric sanity violated (routeDrops=%d unclaimed=%d)",
			id, routeDrops, unclaimed)
	}

	var events uint64
	if coord != nil {
		events = coord.Processed()
		opt.observeCoordinator(coord)
	} else {
		events = eng.Processed()
		opt.observeEngine(eng)
	}

	res := &Result{
		ID:      id,
		Title:   title,
		Headers: []string{"metric", "value"},
	}
	res.AddRow("flows", fmt.Sprintf("%d", len(flows)))
	res.AddRow("completed", fmt.Sprintf("%d", completed))
	res.AddRow("events", fmt.Sprintf("%d", events))
	res.AddRow("shards", fmt.Sprintf("%d", shards))
	if fcts.Count() > 0 {
		res.AddRow("fct-mean-ms", msec(fcts.Mean()))
		res.AddRow("fct-p99-ms", msec(fcts.Percentile(99)))
	}
	if completed < len(flows) {
		res.AddNote("%d of %d flows unfinished at %v", len(flows)-completed, len(flows), fattreeDeadline)
	}
	return res, nil
}

// fattreeSpecs registers the fat-tree experiments.
func fattreeSpecs() []Spec {
	return []Spec{
		{
			ID:    "fattree",
			Title: "k=8 fat-tree, cross-pod permutation traffic (PMSB + DWRR)",
			Run: func(opt Options) (*Result, error) {
				n := 64
				if opt.Quick {
					n = 32
				}
				return runFatTree("fattree",
					"k=8 fat-tree, cross-pod permutation traffic (PMSB + DWRR)",
					fattreeK, fattreeCrossPod(fattreeK, n), opt)
			},
		},
		{
			ID:    "fattree-incast",
			Title: "k=8 fat-tree, pods 1..7 incast into pod 0 (shard-skew scenario)",
			Run: func(opt Options) (*Result, error) {
				perPod := 4
				if opt.Quick {
					perPod = 2
				}
				return runFatTree("fattree-incast",
					"k=8 fat-tree, pods 1..7 incast into pod 0 (shard-skew scenario)",
					fattreeK, fattreeIncast(fattreeK, perPod), opt)
			},
		},
		{
			ID:    "fattree32",
			Title: "k=32 fat-tree (8192 hosts, 49k ports), cross-pod permutation traffic",
			Run: func(opt Options) (*Result, error) {
				// The arena-backed builder's headline scale: ~49k ports in a
				// few slab allocations. The workload is a wider permutation
				// stripe (one flow per pod pair's worth of striding) so every
				// pod — and, sharded, every shard — carries traffic.
				n := 256
				if opt.Quick {
					n = 64
				}
				return runFatTree("fattree32",
					"k=32 fat-tree (8192 hosts, 49k ports), cross-pod permutation traffic",
					32, fattreeCrossPod(32, n), opt)
			},
		},
	}
}
