// Command pmsbstat analyzes an event trace exported by
// pmsbsim -tracefile, reconstructing the quantities the paper plots
// without rerunning the simulation:
//
//   - event counts by kind and trace segment count,
//   - per-queue occupancy percentiles at every observed port,
//   - the mark-rate timeline (marks and dequeues per time bin),
//   - the top flows by bytes with their congestion telemetry.
//
// The trace format (JSONL or binary) is auto-detected per file from
// its leading bytes, so no flag is needed when switching formats.
// Several files — e.g. the per-shard spill files of a sharded traced
// run — are merged into one deterministic timeline by (time, argument
// order, sequence number) before analysis.
//
// When the per-flow table is disabled (-top 0) and every input is
// binary, the reduction — counts, depths and the mark-rate timeline —
// streams column-by-column over the trace chunks without materializing
// events (obs.StreamStats): memory stays proportional to the topology
// plus the timeline's bins, not the trace, so full-run spill traces of
// any size analyze in one pass. The output is identical to the
// materializing path.
//
// Examples:
//
//	pmsbsim -experiment fig8 -quick -tracefile fig8.jsonl
//	pmsbstat fig8.jsonl                    # full report
//	pmsbstat -bin 500us fig8.jsonl         # finer mark-rate bins
//	pmsbstat -top 3 -depth=false fig8.jsonl
//	pmsbsim -experiment fct-dwrr -quick -shards 2 -tracefile fct.bin
//	pmsbstat fct.shard0.bin fct.shard1.bin # merged sharded trace
//
// Because trace events carry absolute occupancy, every statistic here
// is exact over the trace window even when the ring buffer wrapped and
// only the newest events survived (spill-backed traces never wrap).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"pmsb/internal/obs"
	obsrt "pmsb/internal/obs/runtime"
	"pmsb/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pmsbstat:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pmsbstat", flag.ContinueOnError)
	var (
		bin     = fs.Duration("bin", time.Millisecond, "bin width of the mark-rate timeline")
		top     = fs.Int("top", 10, "flows to list in the per-flow table (by bytes; 0 disables)")
		depth   = fs.Bool("depth", true, "print per-queue occupancy percentiles")
		marks   = fs.Bool("marks", true, "print the mark-rate timeline")
		counts  = fs.Bool("counts", true, "print event counts by kind")
		since   = fs.Duration("since", 0, "analyze only events at or after this virtual time (binary traces skip whole chunks before decoding)")
		until   = fs.Duration("until", 0, "analyze only events at or before this virtual time (0 = end of trace)")
		runtime = fs.Bool("runtime", false, "treat the argument as a pmsbsim -runtimestats dump and explain the run (shard imbalance, window widths, worker utilization, queue churn)")
	)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: pmsbstat [flags] trace[.jsonl|.bin] [more traces...]")
		fmt.Fprintln(fs.Output(), "       pmsbstat -runtime run.rtstats")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		return err
	}
	if fs.NArg() < 1 {
		fs.Usage()
		return fmt.Errorf("at least one trace file is required")
	}
	if *runtime {
		if fs.NArg() != 1 {
			return fmt.Errorf("-runtime takes exactly one dump file (got %d)", fs.NArg())
		}
		return runtimeReport(stdout, fs.Arg(0))
	}

	lo, hi := *since, *until
	if hi == 0 {
		hi = 1<<63 - 1
	}
	if hi < lo {
		return fmt.Errorf("-until %v precedes -since %v", *until, *since)
	}

	// Reports without the per-flow table stream the reductions over
	// binary traces instead of materializing events (counts, depths and
	// the mark-rate timeline all fold order-insensitively; only the flow
	// table needs the full merged event stream).
	if *top == 0 && allBinary(fs.Args()) {
		markBin := time.Duration(0)
		if *marks {
			markBin = *bin
		}
		return streamReport(stdout, fs.Args(), lo, hi, *counts, *depth, markBin)
	}

	// Each file's format is auto-detected; several files (per-shard
	// spill traces) merge into one deterministic timeline.
	streams := make([][]obs.Event, 0, fs.NArg())
	total := 0
	for _, path := range fs.Args() {
		stream, err := readTrace(path, lo, hi)
		if err != nil {
			return err
		}
		streams = append(streams, stream)
		total += len(stream)
	}
	if total == 0 {
		if *since != 0 || *until != 0 {
			return fmt.Errorf("trace %s holds no events in [%v, %v]", fs.Arg(0), lo, time.Duration(hi))
		}
		return fmt.Errorf("trace %s holds no events", fs.Arg(0))
	}
	events := streams[0]
	if len(streams) > 1 {
		events = obs.MergeEvents(streams...)
	}

	report(stdout, events, *bin, *top, *depth, *marks, *counts)
	return nil
}

// allBinary reports whether every path begins with the binary trace
// magic. Unreadable files return false so the materializing path can
// surface its usual error.
func allBinary(paths []string) bool {
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return false
		}
		ok := obs.LooksBinary(bufio.NewReader(f))
		f.Close()
		if !ok {
			return false
		}
	}
	return true
}

// streamReport runs the count/depth/mark-rate reductions column-wise
// over binary traces without materializing events, printing the same
// sections the materializing report would. markBin 0 omits the
// mark-rate section.
func streamReport(w io.Writer, paths []string, since, until time.Duration, counts, depth bool, markBin time.Duration) error {
	st := obs.NewStreamStats(obs.StreamOptions{
		Counts: counts, Depths: depth, MarkBin: markBin, Since: since, Until: until,
	})
	for _, path := range paths {
		if err := reduceTrace(st, path); err != nil {
			return err
		}
	}
	if st.Events == 0 {
		if since != 0 || until != 1<<63-1 {
			return fmt.Errorf("trace %s holds no events in [%v, %v]", paths[0], since, until)
		}
		return fmt.Errorf("trace %s holds no events", paths[0])
	}

	fmt.Fprintf(w, "# trace: %d events, %s span", st.Events, st.MaxT-st.MinT)
	// Several files merge into one time-sorted timeline, which never
	// restarts; a single file reports its own restarts.
	segs := 1
	if len(paths) == 1 {
		segs = st.Segments
	}
	if segs > 1 {
		fmt.Fprintf(w, ", %d segments (virtual time restarts; multi-run trace)", segs)
	}
	fmt.Fprintln(w)

	if counts {
		fmt.Fprintln(w, "\n## events by kind")
		for _, k := range obs.Kinds() {
			if n, ok := st.Kinds[k]; ok {
				fmt.Fprintf(w, "%-12s\t%d\n", k, n)
			}
		}
	}

	if depth {
		fmt.Fprintln(w, "\n## queue depth (bytes sampled at enqueue/dequeue)")
		fmt.Fprintln(w, "node\tport\tqueue\tsamples\tmean\tp50\tp90\tp99\tmax")
		for _, k := range st.DepthKeys() {
			s := st.Depths[k]
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\n",
				k.Node, k.Port, k.Queue, s.Count(), s.Mean(),
				s.Percentile(50), s.Percentile(90), s.Percentile(99), s.Max())
		}
	}

	if markBin > 0 {
		printMarkTimeline(w, st.Marks, st.Dequeues, markBin)
	}
	return nil
}

// printMarkTimeline renders the mark-rate section from its two binned
// series; both report paths share it so the streamed and materializing
// outputs stay byte-identical.
func printMarkTimeline(w io.Writer, ms, dq *stats.TimeSeries, bin time.Duration) {
	fmt.Fprintf(w, "\n## mark rate per %s bin (marks / dequeued packets)\n", bin)
	fmt.Fprintln(w, "t_ms\tmarks\tdequeues\tmark_frac")
	bins := dq.Bins()
	if ms.Bins() > bins {
		bins = ms.Bins()
	}
	for i := 0; i < bins; i++ {
		m, d := ms.Value(i), dq.Value(i)
		frac := 0.0
		if d > 0 {
			frac = m / d
		}
		fmt.Fprintf(w, "%.3f\t%.0f\t%.0f\t%.3f\n",
			float64(int64(bin)*int64(i))/1e6, m, d, frac)
	}
}

// reduceTrace folds one binary trace file into the accumulator.
func reduceTrace(st *obs.StreamStats, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("open trace: %w", err)
	}
	defer f.Close()
	if err := st.Reduce(f); err != nil {
		return fmt.Errorf("read trace %s: %w", path, err)
	}
	return nil
}

// readTrace loads one trace file in either format, keeping only events
// inside [since, until]. Binary traces skip whole out-of-range chunks
// using the per-chunk time deltas before materializing any events.
func readTrace(path string, since, until time.Duration) ([]obs.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("open trace: %w", err)
	}
	defer f.Close()
	events, err := obs.ReadTraceRange(f, since, until)
	if err != nil {
		return nil, fmt.Errorf("read trace %s: %w", path, err)
	}
	return events, nil
}

// runtimeReport renders a pmsbsim -runtimestats dump as a human
// explanation of the run.
func runtimeReport(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("open runtime dump: %w", err)
	}
	defer f.Close()
	vals, err := obsrt.ParseDump(f)
	if err != nil {
		return fmt.Errorf("read runtime dump %s: %w", path, err)
	}
	if len(vals) == 0 {
		return fmt.Errorf("runtime dump %s holds no metrics", path)
	}
	return obsrt.Report(w, vals)
}

// report prints the selected sections. Everything derives from the
// event slice via the analysis helpers in internal/obs.
func report(w io.Writer, events []obs.Event, bin time.Duration, top int, depth, marks, counts bool) {
	fmt.Fprintf(w, "# trace: %d events, %s span", len(events), span(events))
	if segs := obs.Segments(events); segs > 1 {
		fmt.Fprintf(w, ", %d segments (virtual time restarts; multi-run trace)", segs)
	}
	fmt.Fprintln(w)

	if counts {
		fmt.Fprintln(w, "\n## events by kind")
		byKind := obs.CountKinds(events)
		for _, k := range obs.Kinds() {
			if n, ok := byKind[k]; ok {
				fmt.Fprintf(w, "%-12s\t%d\n", k, n)
			}
		}
	}

	if depth {
		fmt.Fprintln(w, "\n## queue depth (bytes sampled at enqueue/dequeue)")
		fmt.Fprintln(w, "node\tport\tqueue\tsamples\tmean\tp50\tp90\tp99\tmax")
		sums, keys := obs.DepthSummaries(events)
		for _, k := range keys {
			s := sums[k]
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\n",
				k.Node, k.Port, k.Queue, s.Count(), s.Mean(),
				s.Percentile(50), s.Percentile(90), s.Percentile(99), s.Max())
		}
	}

	if marks {
		ms, dq := obs.MarkSeries(events, bin)
		printMarkTimeline(w, ms, dq, bin)
	}

	if top > 0 {
		fmt.Fprintf(w, "\n## top %d flows by bytes\n", top)
		fmt.Fprintln(w, "flow\tservice\tbytes\tmarks\tcuts\tretx\trtos\talpha\tfct")
		recs := obs.FlowsFromEvents(events)
		for _, r := range topFlows(recs, top) {
			fct := "-"
			if r.Finished {
				fct = r.FCT.String()
			}
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.4f\t%s\n",
				r.Flow, r.Service, r.Bytes, r.MarksSeen,
				r.CwndCuts, r.Retransmits, r.RTOs, r.LastAlpha, fct)
		}
	}
}

// topFlows sorts records by descending bytes (flow-ID tiebreak) and
// truncates to k.
func topFlows(recs []*obs.FlowRecord, k int) []*obs.FlowRecord {
	out := append([]*obs.FlowRecord(nil), recs...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		return out[i].Flow < out[j].Flow
	})
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// span formats the trace's covered virtual-time window.
func span(events []obs.Event) time.Duration {
	min, max := events[0].T, events[0].T
	for i := range events {
		if events[i].T < min {
			min = events[i].T
		}
		if events[i].T > max {
			max = events[i].T
		}
	}
	return max - min
}
