package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pmsb/internal/obs"
)

func capture(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var buf bytes.Buffer
	err := run(args, &buf)
	return buf.String(), err
}

func TestRunList(t *testing.T) {
	out, err := capture(t, "-list")
	if err != nil {
		t.Fatalf("-list: %v", err)
	}
	for _, want := range []string{"fig1", "fig27", "table1", "fct-dwrr", "incast"} {
		if !strings.Contains(out, want) {
			t.Fatalf("-list output missing %q", want)
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	out, err := capture(t, "-experiment", "table1", "-quick")
	if err != nil {
		t.Fatalf("-experiment table1: %v", err)
	}
	if !strings.Contains(out, "pmsb(e)") || !strings.Contains(out, "wall time") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestRunJSONFormat(t *testing.T) {
	out, err := capture(t, "-experiment", "table1", "-quick", "-format", "json")
	if err != nil {
		t.Fatalf("json: %v", err)
	}
	var res struct {
		ID   string     `json:"id"`
		Rows [][]string `json:"rows"`
	}
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if res.ID != "table1" || len(res.Rows) != 4 {
		t.Fatalf("JSON content wrong: %+v", res)
	}
}

func TestRunBadFormat(t *testing.T) {
	if _, err := capture(t, "-experiment", "table1", "-format", "xml"); err == nil {
		t.Fatal("bad format must error")
	}
}

func TestRunOutFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.tsv")
	if _, err := capture(t, "-experiment", "table1", "-quick", "-out", path); err != nil {
		t.Fatalf("-out: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read output: %v", err)
	}
	if !strings.Contains(string(data), "table1") {
		t.Fatal("output file missing experiment data")
	}
}

func TestRunOutFileBadPath(t *testing.T) {
	if _, err := capture(t, "-experiment", "table1", "-out", "/nonexistent/dir/x.tsv"); err == nil {
		t.Fatal("unwritable -out must error")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := capture(t, "-experiment", "nope"); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

func TestRunNoArgs(t *testing.T) {
	if _, err := capture(t); err == nil {
		t.Fatal("missing mode must error")
	}
}

func TestRunBadFlag(t *testing.T) {
	if _, err := capture(t, "-bogus"); err == nil {
		t.Fatal("bad flag must error")
	}
}

func TestRunWithSeries(t *testing.T) {
	out, err := capture(t, "-experiment", "fig5", "-quick", "-series")
	if err != nil {
		t.Fatalf("-series: %v", err)
	}
	if !strings.Contains(out, "## series") {
		t.Fatal("series output missing")
	}
}

func TestRunWithoutSeriesOmitsThem(t *testing.T) {
	out, err := capture(t, "-experiment", "fig5", "-quick")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "## series") {
		t.Fatal("series must be omitted by default")
	}
}

func TestRunMultipleExperiments(t *testing.T) {
	out, err := capture(t, "-experiment", "table1, fig5", "-quick")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "# table1:") || !strings.Contains(out, "# fig5:") {
		t.Fatalf("multi-experiment output incomplete:\n%s", out)
	}
}

// -h is a request for the usage text, not a misuse: run must report
// success so shells see exit status 0.
func TestRunHelpSucceeds(t *testing.T) {
	if _, err := capture(t, "-h"); err != nil {
		t.Fatalf("-h returned error: %v", err)
	}
	if _, err := capture(t, "-help"); err != nil {
		t.Fatalf("-help returned error: %v", err)
	}
}

// More than one experiment in JSON mode must produce a single parseable
// document (an array), not concatenated bare objects.
func TestRunJSONArrayForMultipleExperiments(t *testing.T) {
	out, err := capture(t, "-experiment", "table1,fig5", "-quick", "-format", "json")
	if err != nil {
		t.Fatalf("json multi: %v", err)
	}
	var results []struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal([]byte(out), &results); err != nil {
		t.Fatalf("multi-experiment JSON is not one array: %v\n%s", err, out)
	}
	if len(results) != 2 || results[0].ID != "table1" || results[1].ID != "fig5" {
		t.Fatalf("array content wrong: %+v", results)
	}
}

func TestRunSummaryBlock(t *testing.T) {
	out, err := capture(t, "-experiment", "table1", "-quick")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "# summary:") {
		t.Fatalf("default TSV output missing '# summary' block:\n%s", out)
	}

	out, err = capture(t, "-experiment", "table1", "-quick", "-summary=false")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "# summary:") {
		t.Fatalf("-summary=false must suppress the manifest:\n%s", out)
	}
}

// TestJobsDeterminism is the parallel-runner smoke: the output payload
// must be byte-identical no matter how many workers simulate. The
// sample spans the static dumbbell (table1, fig5), the queue-buildup
// ablation (ablation-average), incast and the weighted scheduler
// figure, so scheduler, marker and transport paths all execute under
// both job counts. -summary=false removes the only intentionally
// nondeterministic bytes (wall times).
func TestJobsDeterminism(t *testing.T) {
	args := []string{
		"-experiment", "table1,fig5,fig4,incast,ablation-average",
		"-quick", "-summary=false",
	}
	serial, err := capture(t, append(args, "-jobs", "1")...)
	if err != nil {
		t.Fatalf("-jobs 1: %v", err)
	}
	parallel, err := capture(t, append(args, "-jobs", "8")...)
	if err != nil {
		t.Fatalf("-jobs 8: %v", err)
	}
	if serial != parallel {
		t.Fatalf("-jobs 8 output differs from -jobs 1:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s", serial, parallel)
	}
	if !strings.Contains(serial, "# table1:") || !strings.Contains(serial, "# ablation-average:") {
		t.Fatalf("determinism sample incomplete:\n%s", serial)
	}
}

// The coordinator has one window protocol and no flag to pick one:
// -par with any value, a protocol name or not, is an unknown flag.
func TestParBadValue(t *testing.T) {
	for _, v := range []string{"channel", "global", "frobnicate"} {
		_, err := capture(t, "-experiment", "fct-dwrr", "-quick", "-shards", "2", "-par", v)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -par") {
			t.Fatalf("-par %s: err = %v, want an unknown-flag error", v, err)
		}
	}
}

// TestTraceExport drives the observability path end to end: a traced
// fig8 run must produce a parseable JSONL event trace covering the
// bottleneck port and a metrics dump naming its per-queue counters.
func TestTraceExport(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "fig8.jsonl")
	metrics := filepath.Join(dir, "fig8.metrics")
	if _, err := capture(t, "-experiment", "fig8", "-quick",
		"-tracefile", trace, "-metrics", metrics); err != nil {
		t.Fatalf("traced run: %v", err)
	}

	f, err := os.Open(trace)
	if err != nil {
		t.Fatalf("open trace: %v", err)
	}
	defer f.Close()
	events, err := obs.ReadJSONL(f)
	if err != nil {
		t.Fatalf("parse trace: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("trace is empty")
	}
	kinds := obs.CountKinds(events)
	for _, k := range []obs.Kind{obs.KindEnqueue, obs.KindDequeue, obs.KindMark, obs.KindFlowStart} {
		if kinds[k] == 0 {
			t.Errorf("trace has no %v events", k)
		}
	}
	// fig8 runs PMSB on a two-queue port: the selective-blindness filter
	// must fire (queue 1's single flow stays under its share).
	if kinds[obs.KindBlind] == 0 {
		t.Error("trace has no blind events (PMSB filter never engaged)")
	}

	m, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatalf("read metrics: %v", err)
	}
	for _, want := range []string{"port.1000.0.tx_pkts", "port.1000.0.q1.marks", "pmsb.blind_suppressions", "flows.started\t5"} {
		if !strings.Contains(string(m), want) {
			t.Errorf("metrics dump missing %q:\n%s", want, m)
		}
	}
}

// TestTraceRestrictions: tracing an unsynchronized bus must refuse
// multi-experiment and multi-repeat invocations; the metrics registry
// is still per-bus, so -metrics refuses sharded runs.
func TestTraceRestrictions(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "t.jsonl")
	if _, err := capture(t, "-experiment", "table1,fig5", "-quick", "-tracefile", trace); err == nil {
		t.Error("tracing two experiments must fail")
	}
	if _, err := capture(t, "-experiment", "fig8", "-quick", "-repeats", "3", "-tracefile", trace); err == nil {
		t.Error("tracing with -repeats > 1 must fail")
	}
	if _, err := capture(t, "-experiment", "fct-dwrr", "-quick", "-shards", "2",
		"-metrics", filepath.Join(t.TempDir(), "m")); err == nil {
		t.Error("-metrics with -shards > 1 must fail")
	}
	if _, err := capture(t, "-experiment", "fig8", "-quick",
		"-tracefile", trace, "-traceformat", "xml"); err == nil {
		t.Error("unknown -traceformat must fail")
	}
}

// TestTraceBinaryExport: a .bin trace path defaults to the binary
// format and parses back with the auto-detecting reader.
func TestTraceBinaryExport(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "fig8.bin")
	if _, err := capture(t, "-experiment", "fig8", "-quick", "-tracefile", trace); err != nil {
		t.Fatalf("traced run: %v", err)
	}
	raw, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(raw, []byte("PMSBTRC1")) {
		t.Fatalf(".bin trace does not start with the binary magic: %q", raw[:8])
	}
	events, err := obs.ReadTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("parse trace: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("trace is empty")
	}
	// The same run forced to JSONL via -traceformat must decode to the
	// identical event sequence (codec differential at the CLI level).
	jtrace := filepath.Join(t.TempDir(), "fig8.bin")
	if _, err := capture(t, "-experiment", "fig8", "-quick",
		"-tracefile", jtrace, "-traceformat", "jsonl"); err != nil {
		t.Fatalf("JSONL traced run: %v", err)
	}
	jf, err := os.Open(jtrace)
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()
	jevents, err := obs.ReadTrace(jf)
	if err != nil {
		t.Fatalf("parse JSONL trace: %v", err)
	}
	if len(jevents) != len(events) {
		t.Fatalf("binary trace has %d events, JSONL %d", len(events), len(jevents))
	}
	for i := range events {
		if events[i] != jevents[i] {
			t.Fatalf("event %d differs between formats:\n bin %+v\njsonl %+v",
				i, events[i], jevents[i])
		}
	}
}

// TestTraceSpillLossless: the exported trace must be identical at any
// -tracebuf, because a full ring spills instead of overwriting.
func TestTraceSpillLossless(t *testing.T) {
	dir := t.TempDir()
	small := filepath.Join(dir, "small.bin")
	big := filepath.Join(dir, "big.bin")
	if _, err := capture(t, "-experiment", "fig8", "-quick",
		"-tracefile", small, "-tracebuf", "64"); err != nil {
		t.Fatalf("small-ring run: %v", err)
	}
	if _, err := capture(t, "-experiment", "fig8", "-quick",
		"-tracefile", big, "-tracebuf", "1048576"); err != nil {
		t.Fatalf("big-ring run: %v", err)
	}
	a, err := os.ReadFile(small)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(big)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("trace depends on ring size: %d vs %d bytes", len(a), len(b))
	}
}

// TestTraceShardedExport: -shards 2 writes one spill file per shard;
// both parse, and together they hold switch and flow events.
func TestTraceShardedExport(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "fct.bin")
	if _, err := capture(t, "-experiment", "fct-dwrr", "-quick", "-seed", "3",
		"-shards", "2", "-tracefile", trace); err != nil {
		t.Fatalf("sharded traced run: %v", err)
	}
	// The shard files hold ~11 M events between them. Reduce them in a
	// streaming pass, as pmsbstat does: materializing them (plus a
	// merged copy) took over 3 GB under -race. Event counts by kind are
	// order-insensitive, so the per-shard sums equal the merged
	// timeline's.
	kinds := make(map[obs.Kind]int)
	for i := 0; i < 2; i++ {
		path := obs.ShardTracePath(trace, i)
		f, err := os.Open(path)
		if err != nil {
			t.Fatalf("shard %d trace missing: %v", i, err)
		}
		st := obs.NewStreamStats(obs.StreamOptions{Counts: true})
		err = st.Reduce(f)
		f.Close()
		if err != nil {
			t.Fatalf("parse shard %d trace: %v", i, err)
		}
		if st.Events == 0 {
			t.Fatalf("shard %d trace is empty", i)
		}
		for k, n := range st.Kinds {
			kinds[k] += n
		}
	}
	for _, k := range []obs.Kind{obs.KindEnqueue, obs.KindDequeue, obs.KindFlowStart, obs.KindFlowFinish} {
		if kinds[k] == 0 {
			t.Errorf("merged sharded trace has no %v events", k)
		}
	}
}
