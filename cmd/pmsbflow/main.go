// Command pmsbflow runs an ad-hoc static-flow scenario on a dumbbell
// bottleneck and reports per-queue throughput, fairness and RTT — a
// playground for comparing marking schemes without writing Go.
//
// Examples:
//
//	pmsbflow -groups 1x0,8x1 -sched wfq -marker perport -portk 16
//	pmsbflow -groups 1x0,8x1 -sched wfq -marker pmsb -portk 16
//	pmsbflow -groups 1x0,4x1 -sched dwrr -marker mqecn -portk 65
//	pmsbflow -groups 2x0 -marker tcn -portk 16 -dur 200ms
//
// The -groups grammar is a comma-separated list of COUNTxSERVICE flow
// groups: SERVICE is a 6-bit DSCP value (0..63) and the counts sum to
// at most 4096 flows. Queue weights default to 1 each (override with
// -weights).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"pmsb/internal/pkt"
	"pmsb/internal/schemes"
	"pmsb/internal/sim"
	"pmsb/internal/stats"
	"pmsb/internal/topo"
	"pmsb/internal/transport"
	"pmsb/internal/units"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pmsbflow:", err)
		os.Exit(1)
	}
}

type scenario struct {
	groups    []group
	weights   []float64
	schedName string
	marker    string
	portK     int // packets
	rate      units.Rate
	delay     time.Duration
	dur       time.Duration
	buffer    int // packets, 0 unlimited
	dequeue   bool
	rttThresh time.Duration
}

type group struct {
	count   int
	service int
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pmsbflow", flag.ContinueOnError)
	var (
		groupsArg  = fs.String("groups", "1x0,8x1", "flow groups as COUNTxSERVICE, comma separated (SERVICE 0..63, at most 4096 flows in total)")
		weightsArg = fs.String("weights", "", "queue weights, comma separated (default: 1 per used queue)")
		schedArg   = fs.String("sched", "wfq", "scheduler: fifo, wrr, dwrr, wfq, sp, spwfq")
		markerArg  = fs.String("marker", "pmsb", "marker: none, perqueue, fractional, perport, mqecn, tcn, red, pmsb, pmsbe")
		portK      = fs.Int("portk", 16, "port/standard threshold in packets")
		gbps       = fs.Int("gbps", 10, "link rate in Gbps")
		delay      = fs.Duration("delay", 2*time.Microsecond, "per-link propagation delay")
		dur        = fs.Duration("dur", 100*time.Millisecond, "simulated duration")
		buffer     = fs.Int("buffer", 0, "per-port buffer in packets (0 = unlimited)")
		dequeue    = fs.Bool("dequeue", false, "mark at dequeue instead of enqueue")
		rttThresh  = fs.Duration("rttthresh", 40*time.Microsecond, "PMSB(e) RTT accept threshold")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	groups, maxService, err := parseGroups(*groupsArg)
	if err != nil {
		return err
	}
	weights, err := parseWeights(*weightsArg, maxService+1)
	if err != nil {
		return err
	}
	sc := scenario{
		groups:    groups,
		weights:   weights,
		schedName: *schedArg,
		marker:    *markerArg,
		portK:     *portK,
		rate:      units.Rate(*gbps) * units.Gbps,
		delay:     *delay,
		dur:       *dur,
		buffer:    *buffer,
		dequeue:   *dequeue,
		rttThresh: *rttThresh,
	}
	return simulate(sc, out)
}

const (
	// maxGroupService is the highest service a group may name: the
	// service is the packet's 6-bit DSCP field (pkt.Packet.Service), and
	// each service up to the highest one used gets its own queue.
	maxGroupService = 63
	// maxGroupFlows caps the flows across all groups. Every flow is a
	// sender host with its own access link on the dumbbell, so the
	// scenario's memory and run time grow with the count; 4096 is far
	// beyond any fairness experiment and far below what exhausts memory.
	maxGroupFlows = 4096
)

// parseGroups parses "1x0,8x1" into groups and the highest service.
func parseGroups(s string) ([]group, int, error) {
	var out []group
	maxService, flows := 0, 0
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		c, svc, ok := strings.Cut(part, "x")
		if !ok {
			return nil, 0, fmt.Errorf("group %q: want COUNTxSERVICE", part)
		}
		count, err := strconv.Atoi(c)
		if err != nil || count < 1 {
			return nil, 0, fmt.Errorf("group %q: bad count", part)
		}
		if count > maxGroupFlows-flows {
			return nil, 0, fmt.Errorf("group %q: more than %d flows in total", part, maxGroupFlows)
		}
		flows += count
		service, err := strconv.Atoi(svc)
		if err != nil || service < 0 || service > maxGroupService {
			return nil, 0, fmt.Errorf("group %q: bad service (want 0..%d)", part, maxGroupService)
		}
		if service > maxService {
			maxService = service
		}
		out = append(out, group{count: count, service: service})
	}
	if len(out) == 0 {
		return nil, 0, fmt.Errorf("no flow groups given")
	}
	return out, maxService, nil
}

// parseWeights parses "1,2,1" or defaults to n ones.
func parseWeights(s string, n int) ([]float64, error) {
	if strings.TrimSpace(s) == "" {
		return topo.EqualWeights(n), nil
	}
	parts := strings.Split(s, ",")
	if len(parts) < n {
		return nil, fmt.Errorf("%d weights for %d queues", len(parts), n)
	}
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		w, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("bad weight %q", p)
		}
		out = append(out, w)
	}
	return out, nil
}

// buildSched returns the scheduler factory for the named discipline.
func buildSched(name string, eng *sim.Engine) (topo.SchedFactory, error) {
	return schemes.Scheduler(name, eng)
}

// buildMarker returns the marker factory and the PMSB(e) transport
// filter (nil unless marker == pmsbe).
func buildMarker(sc scenario) (topo.MarkerFactory, func() transport.Filter, error) {
	return schemes.Marker(sc.marker, schemes.MarkerConfig{
		KBytes:       units.Packets(sc.portK),
		Rate:         sc.rate,
		Dequeue:      sc.dequeue,
		RTTThreshold: sc.rttThresh,
	})
}

func simulate(sc scenario, out io.Writer) error {
	eng := sim.NewEngine()
	schedF, err := buildSched(sc.schedName, eng)
	if err != nil {
		return err
	}
	markerF, filterF, err := buildMarker(sc)
	if err != nil {
		return err
	}

	senders := 0
	for _, g := range sc.groups {
		senders += g.count
	}
	d := topo.NewDumbbell(eng, topo.DumbbellConfig{
		Senders:    senders,
		AccessRate: sc.rate,
		Delay:      sc.delay,
		Bottleneck: topo.PortProfile{
			Weights:     sc.weights,
			NewSched:    schedF,
			NewMarker:   markerF,
			BufferBytes: units.Packets(sc.buffer),
		},
	})

	nq := len(sc.weights)
	series := make([]*stats.TimeSeries, nq)
	for i := range series {
		series[i] = stats.NewTimeSeries(time.Millisecond)
	}
	d.Bottleneck.OnDequeue(func(p *pkt.Packet, q int) {
		series[q].Add(eng.Now(), float64(p.Size))
	})

	var fid transport.FlowIDGen
	host := 0
	var flows []*transport.Flow
	for _, g := range sc.groups {
		for i := 0; i < g.count; i++ {
			cfg := transport.Config{}
			if filterF != nil {
				cfg.Filter = filterF()
			}
			f := transport.NewFlow(eng, d.Senders[host], d.Recv, fid.Next(), g.service, 0, cfg, nil)
			f.Sender.RecordRTT()
			f.Sender.Start()
			flows = append(flows, f)
			host++
		}
	}
	eng.RunUntil(sc.dur)

	// Report: steady state = last 60% of the run.
	warm := int(sc.dur / time.Millisecond * 2 / 5)
	end := int(sc.dur / time.Millisecond)
	fmt.Fprintf(out, "scenario: sched=%s marker=%s portK=%dpkt rate=%v queues=%d flows=%d dur=%v\n",
		sc.schedName, sc.marker, sc.portK, sc.rate, nq, senders, sc.dur)
	fmt.Fprintf(out, "%-7s %8s %12s %10s\n", "queue", "weight", "gbps", "fair_gbps")
	var rates []float64
	var total float64
	weightSum := 0.0
	for _, w := range sc.weights {
		weightSum += w
	}
	for q := 0; q < nq; q++ {
		r := float64(series[q].MeanRate(warm, end)) / float64(units.Gbps)
		rates = append(rates, r)
		total += r
		fair := sc.weights[q] / weightSum * float64(sc.rate) / float64(units.Gbps)
		fmt.Fprintf(out, "%-7d %8.1f %12.2f %10.2f\n", q+1, sc.weights[q], r, fair)
	}
	var rtt stats.Summary
	for _, f := range flows {
		for _, s := range f.Sender.RTTSamples() {
			rtt.Add(s.Seconds())
		}
		f.Sender.ReleaseRTTSamples()
	}
	fmt.Fprintf(out, "total: %.2f Gbps | weighted Jain index: %.3f | mark fraction: %.3f\n",
		total, stats.WeightedJainIndex(rates, sc.weights),
		markFraction(d))
	fmt.Fprintf(out, "rtt: avg %.1fus p99 %.1fus | drops: %d\n",
		rtt.Mean()*1e6, rtt.Percentile(99)*1e6, d.Bottleneck.DropPackets())
	return nil
}

func markFraction(d *topo.Dumbbell) float64 {
	if d.Bottleneck.TxPackets() == 0 {
		return 0
	}
	return float64(d.Bottleneck.MarkedPackets()) / float64(d.Bottleneck.TxPackets())
}
