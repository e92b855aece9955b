// Command pmsbtrace replays a CSV flow trace on the 48-host leaf-spine
// fabric under a chosen scheduler and marking scheme, reporting FCT
// statistics and (optionally) per-flow results.
//
// Trace format (see workload.ReadTrace):
//
//	start_us,src,dst,size_bytes,service
//
// Examples:
//
//	pmsbtrace -gen 500 > trace.csv            # generate a sample trace
//	pmsbtrace -trace trace.csv -marker pmsb -sched dwrr
//	pmsbtrace -trace trace.csv -marker tcn -flows flows.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"pmsb/internal/schemes"
	"pmsb/internal/sim"
	"pmsb/internal/stats"
	"pmsb/internal/topo"
	"pmsb/internal/transport"
	"pmsb/internal/units"
	"pmsb/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pmsbtrace:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pmsbtrace", flag.ContinueOnError)
	var (
		tracePath = fs.String("trace", "", "CSV flow trace to replay")
		gen       = fs.Int("gen", 0, "instead of replaying, emit a sample web-search trace with N flows")
		load      = fs.Float64("load", 0.5, "load for -gen")
		seed      = fs.Int64("seed", 1, "seed for -gen")
		schedArg  = fs.String("sched", "dwrr", "scheduler: fifo, wrr, dwrr, wfq, sp, spwfq")
		markerArg = fs.String("marker", "pmsb", "marker: none, perqueue, fractional, perport, mqecn, tcn, red, pmsb, pmsbe")
		portK     = fs.Int("portk", 12, "port/standard threshold in packets")
		queues    = fs.Int("queues", 8, "service queues per port")
		flowsOut  = fs.String("flows", "", "write per-flow results CSV to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *gen > 0 {
		flows := workload.Poisson(workload.PoissonConfig{
			Load:     *load,
			LinkRate: 10 * units.Gbps,
			Hosts:    48,
			Dist:     workload.WebSearch(),
			Services: *queues,
			NumFlows: *gen,
			Seed:     *seed,
		})
		return workload.WriteTrace(stdout, flows)
	}

	if *tracePath == "" {
		fs.Usage()
		return fmt.Errorf("either -trace or -gen is required")
	}
	f, err := os.Open(*tracePath)
	if err != nil {
		return fmt.Errorf("open trace: %w", err)
	}
	defer f.Close()
	flows, err := workload.ReadTrace(f)
	if err != nil {
		return err
	}
	if len(flows) == 0 {
		return fmt.Errorf("trace %s holds no flows", *tracePath)
	}

	eng := sim.NewEngine()
	schedF, err := schemes.Scheduler(*schedArg, eng)
	if err != nil {
		return err
	}
	if schemes.RoundBased(*markerArg) && *schedArg != "dwrr" && *schedArg != "wrr" {
		return fmt.Errorf("marker %q needs a round-based scheduler (dwrr/wrr)", *markerArg)
	}
	markerF, filterF, err := schemes.Marker(*markerArg, schemes.MarkerConfig{
		KBytes:       units.Packets(*portK),
		Rate:         10 * units.Gbps,
		RTTThreshold: 85200 * time.Nanosecond,
	})
	if err != nil {
		return err
	}

	ls := topo.NewLeafSpine(eng, topo.LeafSpineConfig{
		Ports: topo.PortProfile{
			Weights:     topo.EqualWeights(*queues),
			NewSched:    schedF,
			NewMarker:   markerF,
			BufferBytes: units.Packets(250),
		},
	})

	type record struct {
		spec workload.FlowSpec
		fct  time.Duration
		done bool
	}
	records := make([]record, len(flows))
	var fid transport.FlowIDGen
	var lastStart time.Duration
	var all, small stats.Summary
	completed := 0
	for i, spec := range flows {
		i, spec := i, spec
		if spec.Src < 0 || spec.Dst < 0 || spec.Src >= ls.NumHosts() || spec.Dst >= ls.NumHosts() {
			return fmt.Errorf("flow %d: host index out of range for the 48-host fabric", i)
		}
		records[i].spec = spec
		fl := transport.NewFlow(eng, ls.Host(spec.Src), ls.Host(spec.Dst), fid.Next(),
			spec.Service%*queues, spec.Size, transport.Config{InitWindow: 16, Filter: mkFilter(filterF)},
			func(s *transport.Sender) {
				records[i].fct = s.FCT()
				records[i].done = true
				completed++
				all.Add(s.FCT().Seconds())
				if workload.Classify(s.Size()) == workload.Small {
					small.Add(s.FCT().Seconds())
				}
			})
		eng.ScheduleAt(spec.Start, fl.Sender.Start)
		if spec.Start > lastStart {
			lastStart = spec.Start
		}
	}
	eng.RunUntil(lastStart + 2*time.Second)

	fmt.Fprintf(stdout, "replayed %s: %d flows, sched=%s marker=%s portK=%dpkt\n",
		*tracePath, len(flows), *schedArg, *markerArg, *portK)
	fmt.Fprintf(stdout, "completed: %d/%d\n", completed, len(flows))
	fmt.Fprintf(stdout, "overall FCT: avg %.3fms p99 %.3fms\n",
		all.Mean()*1e3, all.Percentile(99)*1e3)
	if small.Count() > 0 {
		fmt.Fprintf(stdout, "small-flow FCT: avg %.3fms p95 %.3fms p99 %.3fms (%d flows)\n",
			small.Mean()*1e3, small.Percentile(95)*1e3, small.Percentile(99)*1e3, small.Count())
	}

	if *flowsOut != "" {
		out, err := os.Create(*flowsOut)
		if err != nil {
			return fmt.Errorf("create flows output: %w", err)
		}
		defer out.Close()
		fmt.Fprintln(out, "start_us,src,dst,size_bytes,service,fct_us,completed")
		for _, r := range records {
			fct := ""
			if r.done {
				fct = fmt.Sprintf("%.3f", float64(r.fct)/float64(time.Microsecond))
			}
			fmt.Fprintf(out, "%.3f,%d,%d,%d,%d,%s,%v\n",
				float64(r.spec.Start)/float64(time.Microsecond),
				r.spec.Src, r.spec.Dst, r.spec.Size, r.spec.Service, fct, r.done)
		}
	}
	return nil
}

// mkFilter instantiates the per-flow filter (nil-safe).
func mkFilter(f func() transport.Filter) transport.Filter {
	if f == nil {
		return nil
	}
	return f()
}
