// Command benchjson converts `go test -bench -benchmem` output on stdin
// into a stable JSON file mapping benchmark name to its metrics, so the
// repository can track the perf trajectory across PRs (BENCH_1.json was
// the first recorded point, BENCH_3.json the current one; `make bench`
// regenerates it). When a benchmark appears multiple times on stdin
// (`go test -count N`, the default in `make bench`), the fastest run is
// kept — min-of-N suppresses one-off scheduler noise, which on shared
// runners commonly inflates single runs by 5-15%.
//
// With -baseline FILE the run is also compared against an earlier
// report: per-benchmark ns/op deltas are printed, and regressions
// beyond -tolerance in ns/op, B/op or allocs/op are flagged (the memory
// metrics are near-deterministic, so those flags are trustworthy even
// on noisy runners). The comparison is fail-soft — it never sets a
// non-zero exit status — because shared runners make timings noisy;
// treat it as a trend line, not a gate.
//
// Input lines it understands look like:
//
//	BenchmarkPacketForwarding-8   9512162   255.2 ns/op   192 B/op   5 allocs/op
//
// Everything else (goos/goarch/pkg headers, PASS, ok) is passed through
// to stdout untouched, so benchjson can sit at the end of a pipe
// without hiding the human-readable run.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Metrics holds one benchmark's parsed results. Zero B/op and allocs/op
// are meaningful values (the whole point of the zero-allocation work),
// so they are always emitted.
type Metrics struct {
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Extra carries custom units reported via b.ReportMetric (e.g. the
	// build benchmarks' bytes/port), keyed by unit string.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// envInfo records the machine and source state a report was produced
// under, embedded as the report's "_env" entry. Perf numbers are only
// comparable across reports from the same hardware and parallelism; the
// git SHA ties the numbers to the code they measured, and git_dirty
// says whether the work tree had changes the SHA does not name. The
// underscore
// key cannot collide with a benchmark name (they all start with
// "Benchmark"), and the baseline comparison, which decodes entries as
// Metrics, ignores it by construction.
type envInfo struct {
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitSHA     string `json:"git_sha,omitempty"`
	GitDirty   *bool  `json:"git_dirty,omitempty"`
}

// captureEnv snapshots the environment. The git lookup is fail-soft: a
// run outside a work tree (or without git) just omits the SHA and the
// dirty flag.
func captureEnv() envInfo {
	e := envInfo{
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	e.GitSHA, e.GitDirty = gitState("")
	return e
}

// gitState returns the short HEAD SHA of the work tree at dir ("" is
// the current directory) and whether the tree has changes, untracked
// files included, like the vcs.modified flag Go stamps into binaries.
// Outside a work tree both are zero.
func gitState(dir string) (sha string, dirty *bool) {
	git := func(args ...string) ([]byte, error) {
		cmd := exec.Command("git", args...)
		cmd.Dir = dir
		return cmd.Output()
	}
	out, err := git("rev-parse", "--short", "HEAD")
	if err != nil {
		return "", nil
	}
	sha = strings.TrimSpace(string(out))
	if st, err := git("status", "--porcelain"); err == nil {
		d := len(strings.TrimSpace(string(st))) > 0
		dirty = &d
	}
	return sha, dirty
}

func main() {
	out := flag.String("out", "", "write the JSON report to this file (default stdout only)")
	baseline := flag.String("baseline", "", "compare ns/op against this earlier report (fail-soft: never changes the exit status)")
	tolerance := flag.Float64("tolerance", 10, "flag regressions beyond this percentage in the -baseline comparison")
	flag.Parse()
	if err := run(os.Stdin, os.Stdout, *out, *baseline, *tolerance); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(in io.Reader, echo io.Writer, outPath, baselinePath string, tolerance float64) error {
	results, err := parse(in, echo)
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("no benchmark lines found on stdin")
	}
	body, err := render(results)
	if err != nil {
		return err
	}
	if outPath == "" {
		fmt.Fprintln(echo, body)
	} else {
		if err := os.WriteFile(outPath, []byte(body+"\n"), 0o644); err != nil {
			return fmt.Errorf("write %s: %w", outPath, err)
		}
		fmt.Fprintf(echo, "benchjson: wrote %d benchmarks to %s\n", len(results), outPath)
	}
	if baselinePath != "" {
		compare(echo, results, baselinePath, tolerance)
	}
	return nil
}

// compare prints per-benchmark ns/op deltas against an earlier report
// and flags time and memory regressions. Every failure mode (missing file, bad JSON, new benchmark) degrades
// to a note instead of an error so a perf trend can never block a
// functional build.
func compare(echo io.Writer, results map[string]Metrics, baselinePath string, tolerance float64) {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintf(echo, "benchjson: no baseline comparison (%v)\n", err)
		return
	}
	var base map[string]Metrics
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(echo, "benchjson: no baseline comparison (parse %s: %v)\n", baselinePath, err)
		return
	}
	names := make([]string, 0, len(results))
	for n := range results {
		names = append(names, n)
	}
	sort.Strings(names)
	regressions := 0
	fmt.Fprintf(echo, "benchjson: comparison vs %s (tolerance %.0f%%)\n", baselinePath, tolerance)
	for _, n := range names {
		cur := results[n]
		b, ok := base[n]
		if !ok || b.NsPerOp == 0 {
			fmt.Fprintf(echo, "  %-40s %10.2f ns/op  (no baseline)\n", n, cur.NsPerOp)
			continue
		}
		delta := (cur.NsPerOp - b.NsPerOp) / b.NsPerOp * 100
		flag := ""
		if delta > tolerance {
			flag = "  ** regression **"
			regressions++
		}
		// Memory metrics regress too — and unlike timings they are
		// near-deterministic, so a flagged growth is real, not runner
		// noise. Held to the same fail-soft tolerance; a benchmark whose
		// baseline sat at zero (the zero-allocation guards) flags on any
		// growth at all.
		for _, mem := range []struct {
			unit      string
			cur, base float64
		}{
			{"B/op", cur.BytesPerOp, b.BytesPerOp},
			{"allocs/op", cur.AllocsPerOp, b.AllocsPerOp},
		} {
			switch {
			case mem.base == 0 && mem.cur > 0:
				flag += fmt.Sprintf("  ** %s regression: 0 -> %.0f **", mem.unit, mem.cur)
				regressions++
			case mem.base > 0:
				if d := (mem.cur - mem.base) / mem.base * 100; d > tolerance {
					flag += fmt.Sprintf("  ** %s regression: %+.1f%% **", mem.unit, d)
					regressions++
				}
			}
		}
		fmt.Fprintf(echo, "  %-40s %10.2f ns/op  %+6.1f%%%s\n", n, cur.NsPerOp, delta, flag)
	}
	if regressions > 0 {
		fmt.Fprintf(echo, "benchjson: %d regression flag(s) beyond tolerance — investigate before trusting this machine's numbers\n", regressions)
	}
}

// parse scans the stream for benchmark result lines, echoing every line
// so the pipe stays transparent. A benchmark appearing multiple times
// (go test -count N) keeps its fastest run: the minimum is the standard
// noise estimator for benchmarks — slower repeats measure scheduler
// interference, not the code — so min-of-N is what gets recorded and
// compared.
func parse(in io.Reader, echo io.Writer) (map[string]Metrics, error) {
	results := make(map[string]Metrics)
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line)
		m, name, ok := parseLine(line)
		if !ok {
			continue
		}
		if old, seen := results[name]; !seen || m.NsPerOp < old.NsPerOp {
			results[name] = m
		}
	}
	return results, sc.Err()
}

// parseLine extracts one benchmark result. The -N GOMAXPROCS suffix is
// stripped from the name so the JSON is comparable across machines.
func parseLine(line string) (Metrics, string, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Metrics{}, "", false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Metrics{}, "", false
	}
	m := Metrics{Iterations: iters}
	// The remaining fields come in (value, unit) pairs.
	seenNs := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Metrics{}, "", false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			m.NsPerOp = v
			seenNs = true
		case "B/op":
			m.BytesPerOp = v
		case "allocs/op":
			m.AllocsPerOp = v
		default:
			// Custom b.ReportMetric units (always of the form x/y).
			if strings.Contains(unit, "/") {
				if m.Extra == nil {
					m.Extra = make(map[string]float64)
				}
				m.Extra[unit] = v
			}
		}
	}
	if !seenNs {
		return Metrics{}, "", false
	}
	return m, name, true
}

// render produces deterministic (sorted-key) JSON so diffs between
// BENCH_N.json files stay readable. The "_env" entry leads so a reader
// sees the provenance before the numbers.
func render(results map[string]Metrics) (string, error) {
	names := make([]string, 0, len(results))
	for n := range results {
		names = append(names, n)
	}
	sort.Strings(names)
	env, err := json.Marshal(captureEnv())
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("{\n")
	fmt.Fprintf(&b, "  \"_env\": %s,\n", env)
	for i, n := range names {
		entry, err := json.Marshal(results[n])
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "  %q: %s", n, entry)
		if i < len(names)-1 {
			b.WriteString(",")
		}
		b.WriteString("\n")
	}
	b.WriteString("}")
	return b.String(), nil
}
