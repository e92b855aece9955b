package runtime

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
	"time"
)

// Report renders a human explanation of a runtime dump: the per-shard
// table, then the derived diagnoses — shard imbalance, window widths,
// worker utilization, queue churn, pool pressure. vals is a ParseDump
// result (from a -runtimestats file).
func Report(w io.Writer, vals map[string]int64) error {
	bw := &strings.Builder{}

	if shards, ok := vals["runtime.coord.shards"]; ok {
		shards := int(shards)
		fmt.Fprintf(bw, "# coordinator: %d shards\n", shards)
		wall := dur(vals["runtime.coord.wall_ns"])
		blocked := dur(vals["runtime.coord.blocked_ns"])
		fmt.Fprintf(bw, "wall %v", wall.Round(time.Microsecond))
		if wall > 0 {
			fmt.Fprintf(bw, ", coordinator blocked %v (%.0f%%)",
				blocked.Round(time.Microsecond), pct(int64(blocked), int64(wall)))
		}
		fmt.Fprintln(bw)
		shardTable(bw, vals, shards)
		imbalance(bw, vals, shards)
		windows(bw, vals, shards)
		workerUtilization(bw, vals, shards)
	} else {
		fmt.Fprintf(bw, "# serial run (no coordinator stats)\n")
	}
	queueChurn(bw, vals)
	poolPressure(bw, vals)

	_, err := io.WriteString(w, bw.String())
	return err
}

func shardKey(vals map[string]int64, i int, field string) int64 {
	return vals[fmt.Sprintf("runtime.shard.%d.%s", i, field)]
}

func workerKey(vals map[string]int64, i int, field string) int64 {
	return vals[fmt.Sprintf("runtime.worker.%d.%s", i, field)]
}

func shardTable(w io.Writer, vals map[string]int64, shards int) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "shard\tgrants\toutbox\tevents\tbusy\tbusy-share")
	var totalBusy int64
	for i := 0; i < shards; i++ {
		totalBusy += shardKey(vals, i, "busy_ns")
	}
	for i := 0; i < shards; i++ {
		busy := shardKey(vals, i, "busy_ns")
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%v\t%.0f%%\n",
			i,
			shardKey(vals, i, "grants"),
			shardKey(vals, i, "outbox_sent"),
			shardKey(vals, i, "events"),
			dur(busy).Round(time.Microsecond),
			pct(busy, totalBusy))
	}
	tw.Flush()
}

// imbalance reports max/mean ratios of per-shard busy time and event
// counts: 1.0 is perfectly balanced; a shard at N× the mean is the
// straggler gating the conservative windows.
func imbalance(w io.Writer, vals map[string]int64, shards int) {
	if shards == 0 {
		return
	}
	busyRatio, busyMax := maxOverMean(vals, shards, "busy_ns")
	evRatio, evMax := maxOverMean(vals, shards, "events")
	fmt.Fprintf(w, "imbalance: busy max/mean %.2f (shard %d), events max/mean %.2f (shard %d)\n",
		busyRatio, busyMax, evRatio, evMax)
}

func maxOverMean(vals map[string]int64, shards int, field string) (float64, int) {
	var sum, max int64
	maxAt := 0
	for i := 0; i < shards; i++ {
		v := shardKey(vals, i, field)
		sum += v
		if v > max {
			max, maxAt = v, i
		}
	}
	if sum == 0 {
		return 0, maxAt
	}
	mean := float64(sum) / float64(shards)
	return float64(max) / mean, maxAt
}

// windows reports the barrier rounds: how many shards each round kept
// busy (the parallelism the lookahead allowed) and how wide the
// granted windows were, from each shard's earliest event to the window
// end.
func windows(w io.Writer, vals map[string]int64, shards int) {
	rounds := vals["runtime.coord.grant_calls"]
	if rounds == 0 {
		return
	}
	var grants, width int64
	for i := 0; i < shards; i++ {
		grants += shardKey(vals, i, "grants")
		width += shardKey(vals, i, "grant_width_ns")
	}
	fmt.Fprintf(w, "windows: %d rounds, %.2f of %d shards active per round, mean grant width %v\n",
		rounds, ratio(grants, rounds), shards, dur(width/max(grants, 1)))
}

func workerUtilization(w io.Writer, vals map[string]int64, shards int) {
	var busy, blocked, idle int64
	for i := 0; i < shards; i++ {
		busy += workerKey(vals, i, "busy_ns")
		blocked += workerKey(vals, i, "blocked_ns")
		idle += workerKey(vals, i, "idle_ns")
	}
	total := busy + blocked + idle
	if total == 0 {
		return
	}
	fmt.Fprintf(w, "workers: busy %.0f%% / blocked %.0f%% / idle %.0f%% (aggregate over %d workers)\n",
		pct(busy, total), pct(blocked, total), pct(idle, total), shards)
}

// queueChurn aggregates the calendar-queue rebuild and overflow
// migration counters across engines, normalized per 1k events, and the
// queue's health: chain-walk steps per bucket insert.
func queueChurn(w io.Writer, vals map[string]int64) {
	var grows, shrinks, retunes, migr, inserts, steps, events int64
	seen := false
	for n, v := range vals {
		switch {
		case strings.HasSuffix(n, ".queue.grows"):
			grows += v
			seen = true
		case strings.HasSuffix(n, ".queue.shrinks"):
			shrinks += v
		case strings.HasSuffix(n, ".queue.retunes"):
			retunes += v
		case strings.HasSuffix(n, ".queue.migrations"):
			migr += v
		case strings.HasSuffix(n, ".queue.inserts"):
			inserts += v
		case strings.HasSuffix(n, ".queue.scan_steps"):
			steps += v
		case strings.HasSuffix(n, ".processed") && strings.HasPrefix(n, "runtime.engine."):
			events += v
		}
	}
	if !seen {
		return
	}
	fmt.Fprintf(w, "queue churn: %d grows, %d shrinks, %d retunes, %.2f overflow migrations/1k events\n",
		grows, shrinks, retunes, 1000*ratio(migr, events))
	fmt.Fprintf(w, "queue health: %.3f scan/insert (%d chain-walk steps over %d bucket inserts)\n",
		ratio(steps, inserts), steps, inserts)
}

func poolPressure(w io.Writer, vals map[string]int64) {
	gets, ok := vals["runtime.pool.gets"]
	if !ok || gets == 0 {
		return
	}
	fmt.Fprintf(w, "packet pool: %d gets, %d releases, in-use high water %d\n",
		gets, vals["runtime.pool.releases"], vals["runtime.pool.inuse_hiwater"])
}

func pct(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
