package topo

import (
	"fmt"
	"time"

	"pmsb/internal/netsim"
	"pmsb/internal/pkt"
	"pmsb/internal/sim"
	"pmsb/internal/units"
)

// Partition records how a sharded builder split a topology: which shard
// every node landed on (in wiring order) and every directed link that
// crosses the cut. The minimum cut delay is the coordinator's lookahead
// and therefore the parallel engine's window width — a partition is only
// worth running if it is comfortably positive.
type Partition struct {
	// Shards is the shard count the topology was built for.
	Shards int
	// Cuts lists every directed cross-shard link, in wiring order.
	Cuts []CutEdge

	shardOf map[pkt.NodeID]int
	order   []pkt.NodeID
}

// CutEdge is one directed link crossing the partition.
type CutEdge struct {
	// From and To are the link's endpoint node IDs.
	From, To pkt.NodeID
	// SrcShard and DstShard are the shards those endpoints live on.
	SrcShard, DstShard int
	// Delay is the link's propagation delay (bounds the lookahead).
	Delay time.Duration
}

// ShardOf returns the shard a node was assigned to.
func (p *Partition) ShardOf(id pkt.NodeID) (int, bool) {
	s, ok := p.shardOf[id]
	return s, ok
}

// Nodes returns every assigned node ID in wiring order.
func (p *Partition) Nodes() []pkt.NodeID { return p.order }

// MinCutDelay returns the smallest delay over all cut edges (0 if the
// partition has no cuts, i.e. a single shard).
func (p *Partition) MinCutDelay() time.Duration {
	var min time.Duration
	for i, c := range p.Cuts {
		if i == 0 || c.Delay < min {
			min = c.Delay
		}
	}
	return min
}

func (p *Partition) assign(id pkt.NodeID, shard int) {
	if prev, ok := p.shardOf[id]; ok {
		panic(fmt.Sprintf("topo: node %d assigned to shard %d and %d", id, prev, shard))
	}
	if shard < 0 || shard >= p.Shards {
		panic(fmt.Sprintf("topo: node %d assigned to shard %d of %d", id, shard, p.Shards))
	}
	p.shardOf[id] = shard
	p.order = append(p.order, id)
}

func (p *Partition) mustShardOf(id pkt.NodeID) int {
	s, ok := p.shardOf[id]
	if !ok {
		panic(fmt.Sprintf("topo: node %d linked before assignment", id))
	}
	return s
}

// shardBuilder is the shared plumbing of the sharded topology
// constructors: it creates the coordinator's shards, tracks node
// assignments, and wires each link as local (same shard: scheduled
// directly on the shard engine) or boundary (different shards: routed
// through the coordinator's deterministic merge and recorded as a cut
// edge).
type shardBuilder struct {
	coord  *sim.Coordinator
	shards []*sim.Shard
	part   *Partition
}

func newShardBuilder(coord *sim.Coordinator, shards int) *shardBuilder {
	if shards < 1 {
		panic(fmt.Sprintf("topo: shard count must be >= 1, got %d", shards))
	}
	sb := &shardBuilder{
		coord: coord,
		part: &Partition{
			Shards:  shards,
			shardOf: make(map[pkt.NodeID]int),
		},
	}
	for i := 0; i < shards; i++ {
		sb.shards = append(sb.shards, coord.NewShard())
	}
	return sb
}

// engine returns the shard's engine (entities on that shard must
// schedule exclusively against it).
func (sb *shardBuilder) engine(shard int) *sim.Engine {
	return sb.shards[shard].Engine()
}

// engineOf returns the engine of the shard a node was assigned to.
func (sb *shardBuilder) engineOf(id pkt.NodeID) *sim.Engine {
	return sb.engine(sb.part.mustShardOf(id))
}

// assign places a node on a shard; every node must be assigned exactly
// once, before any link touching it is wired.
func (sb *shardBuilder) assign(id pkt.NodeID, shard int) {
	sb.part.assign(id, shard)
}

// link wires the directed link from -> to, delivering to dst. Both
// endpoints must already be assigned; the link is local or boundary
// depending on whether their shards match.
func (sb *shardBuilder) link(from, to pkt.NodeID, rate units.Rate,
	delay time.Duration, dst netsim.Node) *netsim.Link {
	l := sb.linkVal(from, to, rate, delay, dst)
	return &l
}

// linkVal is link returning the link by value, for builders that embed
// links in arena port slots instead of heap-allocating each one.
func (sb *shardBuilder) linkVal(from, to pkt.NodeID, rate units.Rate,
	delay time.Duration, dst netsim.Node) netsim.Link {
	sf := sb.part.mustShardOf(from)
	st := sb.part.mustShardOf(to)
	if sf == st {
		return netsim.LocalLink(sb.engine(sf), rate, delay, dst)
	}
	b := sb.coord.Boundary(sb.shards[sf], sb.shards[st], delay)
	sb.part.Cuts = append(sb.part.Cuts, CutEdge{
		From: from, To: to, SrcShard: sf, DstShard: st, Delay: delay,
	})
	return netsim.BoundaryLink(b, rate, dst)
}
