package topo

import (
	"testing"
	"time"

	"pmsb/internal/pkt"
	"pmsb/internal/sim"
)

// Every sharded builder must assign every node exactly once, keep every
// cut-edge delay positive (the conservative protocol needs lookahead >
// 0), and stay within the declared shard count.
func TestPartitionInvariants(t *testing.T) {
	cases := []struct {
		name      string
		shards    int
		wantNodes int
		wantCuts  int
		build     func(coord *sim.Coordinator, shards int) *Partition
	}{
		{
			name: "dumbbell/1", shards: 1,
			// 4 senders + receiver + switch.
			wantNodes: 6, wantCuts: 0,
			build: func(c *sim.Coordinator, n int) *Partition {
				_, p := NewDumbbellSharded(c, DumbbellConfig{Senders: 4, Bottleneck: fifoProfile()}, n)
				return p
			},
		},
		{
			name: "dumbbell/2", shards: 2,
			// Cut: each host<->switch cable, both directions: 2*(4+1).
			wantNodes: 6, wantCuts: 10,
			build: func(c *sim.Coordinator, n int) *Partition {
				_, p := NewDumbbellSharded(c, DumbbellConfig{Senders: 4, Bottleneck: fifoProfile()}, n)
				return p
			},
		},
		{
			name: "leafspine/1", shards: 1,
			// 48 hosts + 4 leaves + 4 spines.
			wantNodes: 56, wantCuts: 0,
			build: func(c *sim.Coordinator, n int) *Partition {
				_, p := NewLeafSpineSharded(c, LeafSpineConfig{Ports: fifoProfile()}, n)
				return p
			},
		},
		{
			name: "leafspine/2", shards: 2,
			// Cut: every host<->leaf cable, both directions: 2*48.
			wantNodes: 56, wantCuts: 96,
			build: func(c *sim.Coordinator, n int) *Partition {
				_, p := NewLeafSpineSharded(c, LeafSpineConfig{Ports: fifoProfile()}, n)
				return p
			},
		},
		{
			name: "fattree/1", shards: 1,
			// k=4: 16 hosts + 8 edges + 8 aggs + 4 cores.
			wantNodes: 36, wantCuts: 0,
			build: func(c *sim.Coordinator, n int) *Partition {
				_, p := NewFatTreeSharded(c, FatTreeConfig{K: 4, Ports: fifoProfile()}, n)
				return p
			},
		},
		{
			name: "fattree/2", shards: 2,
			// k=4, 2 shards: pods {0,1} vs {2,3}, cores {0,1} vs {2,3}.
			// Each pod has 2 aggs x 2 core links; the cut carries the
			// agg<->core pairs whose blocks differ, both directions.
			wantNodes: 36,
			// Pods on shard 0 reach cores 2,3 (agg 1's cores) = 2 links
			// per pod; same for shard-1 pods reaching cores 0,1. 4 pods x
			// 2 links x 2 directions.
			wantCuts: 16,
			build: func(c *sim.Coordinator, n int) *Partition {
				_, p := NewFatTreeSharded(c, FatTreeConfig{K: 4, Ports: fifoProfile()}, n)
				return p
			},
		},
		{
			name: "fattree/4", shards: 4,
			// One pod and one core per shard: every agg<->core link whose
			// core lives elsewhere is cut. Each pod owns 4 agg->core links
			// of which 1 is shard-local (its own core), so 3 cuts up per
			// pod; cores mirror them downward.
			wantNodes: 36, wantCuts: 24,
			build: func(c *sim.Coordinator, n int) *Partition {
				_, p := NewFatTreeSharded(c, FatTreeConfig{K: 4, Ports: fifoProfile()}, n)
				return p
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			coord := sim.NewCoordinator()
			p := tc.build(coord, tc.shards)

			if p.Shards != tc.shards {
				t.Fatalf("Shards = %d, want %d", p.Shards, tc.shards)
			}
			if len(coord.Shards()) != tc.shards {
				t.Fatalf("coordinator has %d shards, want %d", len(coord.Shards()), tc.shards)
			}
			// Exactly-once assignment: Nodes() has no duplicates (assign
			// panics on re-assignment, so a duplicate here means the
			// order/shardOf bookkeeping diverged) and covers everything.
			seen := make(map[pkt.NodeID]bool, len(p.Nodes()))
			for _, id := range p.Nodes() {
				if seen[id] {
					t.Fatalf("node %d listed twice", id)
				}
				seen[id] = true
				sh, ok := p.ShardOf(id)
				if !ok {
					t.Fatalf("node %d in order but not in shard map", id)
				}
				if sh < 0 || sh >= tc.shards {
					t.Fatalf("node %d on shard %d of %d", id, sh, tc.shards)
				}
			}
			if len(p.Nodes()) != tc.wantNodes {
				t.Fatalf("assigned %d nodes, want %d", len(p.Nodes()), tc.wantNodes)
			}

			if len(p.Cuts) != tc.wantCuts {
				t.Fatalf("%d cut edges, want %d", len(p.Cuts), tc.wantCuts)
			}
			for _, cut := range p.Cuts {
				if cut.Delay <= 0 {
					t.Fatalf("cut %d->%d has non-positive delay %v", cut.From, cut.To, cut.Delay)
				}
				if cut.SrcShard == cut.DstShard {
					t.Fatalf("cut %d->%d does not cross shards", cut.From, cut.To)
				}
				fs, _ := p.ShardOf(cut.From)
				ts, _ := p.ShardOf(cut.To)
				if fs != cut.SrcShard || ts != cut.DstShard {
					t.Fatalf("cut %d->%d shard mismatch", cut.From, cut.To)
				}
			}
			if tc.shards > 1 {
				if p.MinCutDelay() <= 0 {
					t.Fatalf("MinCutDelay = %v, want > 0", p.MinCutDelay())
				}
				if got := coord.Lookahead(); got != p.MinCutDelay() {
					t.Fatalf("coordinator lookahead %v != MinCutDelay %v", got, p.MinCutDelay())
				}
			} else {
				if p.MinCutDelay() != 0 {
					t.Fatalf("single shard has MinCutDelay %v, want 0", p.MinCutDelay())
				}
			}
		})
	}
}

// A degenerate 1-shard partition must reproduce the serial wiring: same
// node IDs, same port counts, and a single engine driving everything.
func TestSingleShardEqualsSerialWiring(t *testing.T) {
	eng := sim.NewEngine()
	serial := NewLeafSpine(eng, LeafSpineConfig{Ports: fifoProfile()})

	coord := sim.NewCoordinator()
	sharded, part := NewLeafSpineSharded(coord, LeafSpineConfig{Ports: fifoProfile()}, 1)

	if len(serial.Hosts) != len(sharded.Hosts) ||
		len(serial.Leaves) != len(sharded.Leaves) ||
		len(serial.Spines) != len(sharded.Spines) {
		t.Fatal("1-shard build has different element counts than serial")
	}
	for i := range serial.Hosts {
		if serial.Hosts[i].NodeID() != sharded.Hosts[i].NodeID() {
			t.Fatalf("host %d: ID %d != serial %d", i, sharded.Hosts[i].NodeID(), serial.Hosts[i].NodeID())
		}
		if sharded.Hosts[i].Engine() != sharded.Eng {
			t.Fatalf("host %d not on the single shard engine", i)
		}
	}
	if len(part.Cuts) != 0 {
		t.Fatalf("1-shard partition has %d cuts, want 0", len(part.Cuts))
	}
	if sharded.Eng != coord.Shards()[0].Engine() {
		t.Fatal("topology engine is not the shard engine")
	}
	if serial.BaseRTT() != sharded.BaseRTT() {
		t.Fatalf("BaseRTT diverged: %v vs %v", serial.BaseRTT(), sharded.BaseRTT())
	}
}

// FabricDelay must default to Delay and flow into both RTT estimates
// and the cut structure (host links keep Delay; fabric links move).
func TestLeafSpineFabricDelay(t *testing.T) {
	eng := sim.NewEngine()
	base := NewLeafSpine(eng, LeafSpineConfig{Ports: fifoProfile()})
	skew := NewLeafSpine(sim.NewEngine(), LeafSpineConfig{
		Ports:       fifoProfile(),
		FabricDelay: 7 * time.Microsecond,
	})
	if base.BaseRTT() >= skew.BaseRTT() {
		t.Fatalf("larger FabricDelay must raise BaseRTT: %v vs %v", base.BaseRTT(), skew.BaseRTT())
	}

	coord := sim.NewCoordinator()
	_, part := NewLeafSpineSharded(coord, LeafSpineConfig{
		Ports:       fifoProfile(),
		FabricDelay: 7 * time.Microsecond,
	}, 2)
	// The cut is host<->leaf only, so lookahead must stay the host-link
	// delay (5us), untouched by the larger fabric delay.
	if got := coord.Lookahead(); got != 5*time.Microsecond {
		t.Fatalf("lookahead %v, want 5us (host-link delay)", got)
	}
	if part.MinCutDelay() != 5*time.Microsecond {
		t.Fatalf("MinCutDelay %v, want 5us", part.MinCutDelay())
	}
}
