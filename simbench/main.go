// Command simbench is the simulator's end-to-end benchmark. It runs one
// of four workloads (see README.md) for a fixed wall-clock budget, each
// sample a batch simulation in a fresh process, checks the outputs, and
// prints the metrics as one JSON object on the last line of stdout:
//
//	simbench --workload leafspine-sweep --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics of untraced samples;
// --trace 1 pairs each untraced sample with a traced one (every layer
// probe on) and reports the per-layer metrics. --workload all runs every
// workload in turn and prints a table. Run it through run.sh, which
// builds it from the enclosing checkout.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"pmsb/internal/pkt"
)

// seedsPerRun is how many samples every --trace 0 run completes even
// past its time budget; their digests make up the run's FCT digest, so
// it repeats exactly across runs of one seed.
const seedsPerRun = 4

// spanDir is where runs keep the digest ledger and traced runs write
// their spans, relative to the working directory (the repository root
// under run.sh).
const spanDir = ".bench_build/simbench"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("simbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload name, or all")
	seed := fl.Int64("seed", 1, "workload seed (20261017 is held out for rechecking a claimed gain)")
	seconds := fl.Int("seconds", 10, "measurement budget per workload, in seconds")
	trace := fl.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	variant := fl.String("sample", "", "internal: run one sample of this variant (plain, traced, nobus) and print it")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *variant != "" {
		w, ok := lookupWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "simbench: unknown workload %q\n", *name)
			return 2
		}
		if err := runSample(w, *seed, *variant, stdout); err != nil {
			fmt.Fprintf(stderr, "simbench: sample: %v\n", err)
			return 1
		}
		return 0
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "simbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	var list []workloadDef
	if *name == "all" {
		list = workloads
	} else if w, ok := lookupWorkload(*name); ok {
		list = []workloadDef{w}
	} else {
		fmt.Fprintf(stderr, "simbench: unknown workload %q (want one of %s, or all)\n", *name, workloadNames())
		return 2
	}
	budget := time.Duration(*seconds) * time.Second
	reports := map[string]*report{}
	ok := true
	for _, w := range list {
		rep, err := measure(w, *seed, budget, *trace == 1, stdout, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "simbench: %s: %v\n", w.name, err)
			return 1
		}
		reports[w.name] = rep
		ok = ok && rep.Correct
	}
	var last any = reports[list[0].name]
	if len(list) > 1 {
		printTable(stdout, list, reports)
		last = reports
	}
	line, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintf(stderr, "simbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !ok {
		fmt.Fprintln(stderr, "simbench: output check FAILED (see the problems above)")
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// sampleOut is one sample process's report to the measuring process.
type sampleOut struct {
	Seed      int64              `json:"seed"`
	Digest    string             `json:"digest"`
	Flows     int                `json:"flows"`
	Completed int                `json:"completed"`
	Problems  []string           `json:"problems,omitempty"`
	E2E       map[string]float64 `json:"e2e"`
	Layer     map[string]float64 `json:"layer,omitempty"`
	Spans     []span             `json:"spans,omitempty"`
}

// runSample runs one batch simulation in this process and prints its
// sampleOut as JSON.
func runSample(w workloadDef, seed int64, variant string, stdout io.Writer) error {
	e := &env{seed: seed, sp: newSpans()}
	var clockCost time.Duration
	switch variant {
	case "plain":
	case "nobus":
		e.noBus = true
	case "traced":
		e.probes = newProbeSet()
		pkt.EnablePoolStats(true)
		clockCost = measureClockCost()
	default:
		return fmt.Errorf("unknown variant %q", variant)
	}
	e.root = e.sp.begin(spanSample, 0)
	e.win = openWindow()
	r, err := w.run(e)
	if err != nil {
		return err
	}
	e.sp.end(e.root)
	if e.win.rssKB == 0 {
		return errors.New("workload did not close its measurement window")
	}
	out := sampleOut{
		Seed:      seed,
		Digest:    r.digest.String(),
		Flows:     r.flows,
		Completed: r.completed,
		Problems:  r.problems,
		E2E: map[string]float64{
			"run_s":       e.sp.sum(runSpans...),
			"setup_s":     e.sp.sum(setupSpans...),
			"cpu_s":       e.win.cpu.Seconds(),
			"peak_rss_mb": float64(e.win.rssKB) / 1024,
			"alloc_mb":    mib(float64(e.win.alloc)),
		},
	}
	out.Layer = layerMetrics(r, e, clockCost)
	if e.probes != nil {
		out.Spans = e.sp.list
	}
	return json.NewEncoder(stdout).Encode(out)
}

// layerMetrics turns a sample's raw counters into per-layer metrics. The
// probe-based ones are zero unless the sample is traced; measure adds
// the ones that compare the samples of an iteration.
func layerMetrics(r *result, e *env, clockCost time.Duration) map[string]float64 {
	t := r.layer
	m := map[string]float64{}
	for k, v := range t {
		m[k] = v
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m["topo.build_s"] = e.sp.sum(spanTopo)
	m["topo.bytes_per_port"] = ratio(t["topo.build_bytes"], t["topo.ports"])
	m["workload.gen_s"] = e.sp.sum(spanWorkload)
	m["workload.flows"] = float64(r.flows)
	m["transport.new_flow_s"] = e.sp.sum(spanFlows)
	m["transport.retx_per_flow"] = ratio(t["transport.retransmits"], float64(r.flows))
	m["transport.accept_ratio"] = ratio(t["filter.accepted"], t["filter.seen"])
	m["netsim.mark_ratio"] = ratio(t["netsim.marks"], t["netsim.tx_pkts"])
	m["netsim.pkts_per_event"] = ratio(t["netsim.tx_pkts"], t["sim.events"])
	ps := e.probes
	if ps == nil {
		ps = newProbeSet()
	}
	m["netsim.depth_p99_pkts"] = depthQuantile(ps.depth, 0.99)
	for _, k := range schedKinds {
		tot := total(ps.sched, k)
		b := tot.busySeconds(clockCost)
		m["sched."+k+".ops"] = float64(tot.calls)
		m["sched."+k+".busy_s"] = b
		m["sched."+k+".ns_per_op"] = ratio(b*1e9, float64(tot.calls))
	}
	for _, k := range markerKinds {
		tot := total(ps.markers, k)
		b := tot.busySeconds(clockCost)
		p := "marker." + k
		m[p+".decisions"] = float64(tot.calls)
		m[p+".marks"] = float64(tot.hits)
		m[p+".mark_ratio"] = ratio(float64(tot.hits), float64(tot.calls))
		m[p+".busy_s"] = b
		m[p+".ns_per_decision"] = ratio(b*1e9, float64(tot.calls))
	}
	pool := pkt.ReadPoolStats()
	m["pkt.gets"] = float64(pool.Gets)
	m["pkt.inuse_hiwater"] = float64(pool.HiWater)
	reduce := e.sp.sum(spanReduce)
	m["obs.bytes_per_event"] = ratio(t["obs.bytes"], t["obs.events"])
	m["obs.reduce_s"] = reduce
	m["obs.decode_mevents_per_s"] = ratio(t["obs.events"]/1e6, reduce)
	m["trace_mb"] = mib(t["obs.bytes"])
	m["analyze_s"] = reduce
	m["flows_failed"] = ratio(float64(r.flows-r.completed), float64(r.flows))
	m["traced.run_s"] = e.sp.sum(runSpans...)
	return m
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// deriveSeed derives the seed of part i of a seeded whole: sample i of a
// run, or cell i of a sweep sample. Every sample of a run simulates
// different inputs, so a run's median averages over as many independent
// batches as its time allows, and every run of one seed begins with the
// same samples.
func deriveSeed(seed int64, i int) int64 {
	return int64(mix64(uint64(seed)*0x9e3779b97f4a7c15+uint64(i)) >> 1)
}

// measure runs one workload for budget and aggregates its samples.
func measure(w workloadDef, seed int64, budget time.Duration, trace bool, stdout, stderr io.Writer) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate own binary: %w", err)
	}
	led, err := openLedger(exe)
	if err != nil {
		return nil, err
	}
	variants := []string{"plain"}
	minIters := seedsPerRun
	if trace {
		variants = append(variants, "traced")
		if w.name == "fattree8-incast-traced" {
			variants = append(variants, "nobus")
		}
		minIters = 1
	}
	var (
		runs     [][]*sampleOut // per iteration, one sample per variant
		problems []string
		run      digest // over the first minIters iterations
	)
	// Start another iteration only while it would end, at its last
	// duration, less than half an iteration past the budget, so a run
	// lasts about its budget whatever a sample costs.
	start := time.Now()
	var last time.Duration
	for i := 0; i < minIters || time.Since(start)+last/2 < budget; i++ {
		t0 := time.Now()
		s := deriveSeed(seed, i)
		var iter []*sampleOut
		for _, v := range variants {
			out, err := spawn(exe, w, s, v, stderr)
			if err != nil {
				return nil, err
			}
			for _, p := range out.Problems {
				problems = append(problems, fmt.Sprintf("seed %d %s: %s", s, v, p))
			}
			if prev := led.record(w.name, s, out.Digest); prev != "" {
				problems = append(problems, fmt.Sprintf("seed %d %s: FCT digest %s differs from %s recorded earlier by this binary",
					s, v, out.Digest, prev))
			}
			iter = append(iter, out)
		}
		if i < minIters {
			d, _ := strconv.ParseUint(iter[0].Digest, 16, 64)
			run.combine(digest(d), uint64(i))
		}
		runs = append(runs, iter)
		last = time.Since(t0)
	}
	if err := led.save(); err != nil {
		return nil, err
	}
	rep := &report{Metrics: map[string]metric{}}
	// Plain samples are scored with tracing off; traced samples give
	// the per-layer numbers.
	scored := plainOf(runs)
	if trace {
		scored = nil
		for _, iter := range runs {
			scored = append(scored, iter[1])
		}
	}
	for _, s := range scored {
		rep.Attempted += s.Flows
		rep.Failed += s.Flows - s.Completed
	}
	if trace {
		layer := medianOf(scored, func(s *sampleOut) map[string]float64 { return s.Layer })
		plain := medianOf(plainOf(runs), func(s *sampleOut) map[string]float64 { return s.Layer })
		// The probes allocate while the topology is built, so the build
		// is measured on the untraced samples.
		for _, k := range []string{"topo.build_s", "topo.bytes_per_port"} {
			layer[k] = plain[k]
		}
		// Metrics comparing the variants of one iteration (same inputs).
		perIter := func(f func(plain, traced *sampleOut, extra []*sampleOut) float64) float64 {
			var v []float64
			for _, iter := range runs {
				v = append(v, f(iter[0], iter[1], iter[2:]))
			}
			return median(v)
		}
		layer["sim.ns_per_event"] = perIter(func(p, t *sampleOut, _ []*sampleOut) float64 {
			if t.Layer["sim.events"] == 0 {
				return 0
			}
			return p.E2E["run_s"] * 1e9 / t.Layer["sim.events"]
		})
		layer["traced.overhead"] = perIter(func(p, t *sampleOut, _ []*sampleOut) float64 {
			return t.E2E["run_s"] / p.E2E["run_s"]
		})
		layer["obs.record_s"] = perIter(func(p, _ *sampleOut, x []*sampleOut) float64 {
			if len(x) == 0 {
				return 0
			}
			return p.E2E["run_s"] - x[0].E2E["run_s"]
		})
		// What the probes cannot split from outside: the reported busy
		// times plus other.self_s make up traced.run_s exactly.
		layer["other.self_s"] = layer["traced.run_s"]
		for _, k := range busyMetrics {
			layer["other.self_s"] -= layer[k]
		}
		for _, m := range perLayer {
			rep.Metrics[m.name] = metric{layer[m.name], m.unit}
		}
		if err := writeSpans(w, seed, scored); err != nil {
			return nil, err
		}
	} else {
		e2e := medianOf(scored, func(s *sampleOut) map[string]float64 { return s.E2E })
		for _, m := range endToEnd {
			rep.Metrics[m.name] = metric{e2e[m.name], m.unit}
		}
	}
	for _, p := range problems {
		fmt.Fprintf(stderr, "simbench: %s: %s\n", w.name, p)
	}
	rep.Correct = len(problems) == 0
	fmt.Fprintf(stdout, "# %s seed=%d samples=%d fct_digest=%s (first %d samples)\n", w.name, seed, len(runs), run, minIters)
	fmt.Fprintf(stdout, "# env %s\n", provenance(w.gomaxprocs()))
	return rep, nil
}

// ledger remembers the FCT digest of every (workload, sample seed) one
// binary has simulated, across runs, so that a run disagreeing with an
// earlier run of the same code and inputs fails loudly. The binary is
// identified by the hash of its bytes.
type ledger struct {
	path    string
	digests map[string]string
}

func openLedger(exe string) (*ledger, error) {
	b, err := os.ReadFile(exe)
	if err != nil {
		return nil, fmt.Errorf("hash own binary: %w", err)
	}
	sum := sha256.Sum256(b)
	l := &ledger{
		path:    filepath.Join(spanDir, fmt.Sprintf("digests-%x.json", sum[:8])),
		digests: map[string]string{},
	}
	data, err := os.ReadFile(l.path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
	case err != nil:
		return nil, fmt.Errorf("read digest ledger: %w", err)
	default:
		if err := json.Unmarshal(data, &l.digests); err != nil {
			return nil, fmt.Errorf("read digest ledger %s: %w", l.path, err)
		}
	}
	return l, nil
}

// record stores a sample's digest and returns the earlier one when it
// differs ("" when it matches or is new).
func (l *ledger) record(name string, seed int64, d string) string {
	key := fmt.Sprintf("%s/%d", name, seed)
	if prev, ok := l.digests[key]; ok && prev != d {
		return prev
	}
	l.digests[key] = d
	return ""
}

func (l *ledger) save() error {
	b, err := json.Marshal(l.digests)
	if err == nil {
		if err = os.MkdirAll(spanDir, 0o755); err == nil {
			err = os.WriteFile(l.path, b, 0o644)
		}
	}
	if err != nil {
		return fmt.Errorf("write digest ledger: %w", err)
	}
	return nil
}

// plainOf returns the untraced sample of every iteration.
func plainOf(runs [][]*sampleOut) []*sampleOut {
	var out []*sampleOut
	for _, iter := range runs {
		out = append(out, iter[0])
	}
	return out
}

// spawn runs one sample of w in a fresh process with w's GOMAXPROCS.
func spawn(exe string, w workloadDef, seed int64, variant string, stderr io.Writer) (*sampleOut, error) {
	cmd := exec.Command(exe, "-sample", variant, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10))
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", w.gomaxprocs()))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("sample %s seed %d: %w", variant, seed, err)
	}
	var s sampleOut
	if err := json.Unmarshal(out.Bytes(), &s); err != nil {
		return nil, fmt.Errorf("sample %s seed %d: decode: %w", variant, seed, err)
	}
	return &s, nil
}

// medianOf takes, for every key, the median over the samples.
func medianOf(samples []*sampleOut, get func(*sampleOut) map[string]float64) map[string]float64 {
	vals := map[string][]float64{}
	for _, s := range samples {
		for k, v := range get(s) {
			vals[k] = append(vals[k], v)
		}
	}
	out := map[string]float64{}
	for k, v := range vals {
		out[k] = median(v)
	}
	return out
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// provenance identifies the machine and the code a result came from,
// with the GOMAXPROCS its samples ran at.
func provenance(gomaxprocs int) string {
	sha, dirty := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				sha = s.Value
			case "vcs.modified":
				dirty = s.Value
			}
		}
	}
	b, _ := json.Marshal(map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": gomaxprocs,
		"go":         runtime.Version(),
		"git_sha":    sha,
		"git_dirty":  dirty,
	})
	return string(b)
}

// writeSpans stores the traced samples' spans, with provenance, once
// the run has ended.
func writeSpans(w workloadDef, seed int64, traced []*sampleOut) error {
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	type sampleSpans struct {
		Seed  int64  `json:"seed"`
		Spans []span `json:"spans"`
	}
	doc := struct {
		Workload string          `json:"workload"`
		Seed     int64           `json:"seed"`
		Env      json.RawMessage `json:"env"`
		Samples  []sampleSpans   `json:"samples"`
	}{Workload: w.name, Seed: seed, Env: json.RawMessage(provenance(w.gomaxprocs()))}
	for _, s := range traced {
		doc.Samples = append(doc.Samples, sampleSpans{s.Seed, s.Spans})
	}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	path := filepath.Join(spanDir, fmt.Sprintf("spans-%s-seed%d.json", w.name, seed))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// printTable prints every workload's metrics by name and unit.
func printTable(w io.Writer, list []workloadDef, reports map[string]*report) {
	for _, wl := range list {
		rep := reports[wl.name]
		fmt.Fprintf(w, "\n%s (correct=%v, flows %d, failed %d)\n", wl.name, rep.Correct, rep.Attempted, rep.Failed)
		names := make([]string, 0, len(rep.Metrics))
		for k := range rep.Metrics {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(w, "  %-34s %14.6g %s\n", k, rep.Metrics[k].Value, rep.Metrics[k].Unit)
		}
	}
}
