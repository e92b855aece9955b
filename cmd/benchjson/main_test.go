package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: pmsb
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkPacketForwarding-8   	 9512162	       255.2 ns/op	     192 B/op	       5 allocs/op
BenchmarkDCTCPFlow            	     982	   2204541 ns/op	  554840 B/op	   16522 allocs/op
BenchmarkZeroAlloc-16         	12345678	        99.9 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	pmsb	7.704s
`

func TestParseLine(t *testing.T) {
	m, name, ok := parseLine("BenchmarkPacketForwarding-8   \t 9512162\t       255.2 ns/op\t     192 B/op\t       5 allocs/op")
	if !ok {
		t.Fatal("line not recognized")
	}
	if name != "BenchmarkPacketForwarding" {
		t.Fatalf("name = %q, want suffix stripped", name)
	}
	if m.Iterations != 9512162 || m.NsPerOp != 255.2 || m.BytesPerOp != 192 || m.AllocsPerOp != 5 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestParseLineCustomUnits(t *testing.T) {
	m, name, ok := parseLine("BenchmarkFatTreeBuild/packet/k8-8   12   9500000 ns/op   2048 bytes/port   100 B/op   3 allocs/op")
	if !ok {
		t.Fatal("line not recognized")
	}
	if name != "BenchmarkFatTreeBuild/packet/k8" {
		t.Fatalf("name = %q", name)
	}
	if m.Extra["bytes/port"] != 2048 {
		t.Fatalf("custom unit not captured: %+v", m)
	}
	if m.NsPerOp != 9500000 || m.BytesPerOp != 100 {
		t.Fatalf("standard units mishandled: %+v", m)
	}
}

func TestParseLineRejectsNonBenchmarks(t *testing.T) {
	for _, line := range []string{
		"goos: linux",
		"PASS",
		"ok  	pmsb	7.704s",
		"Benchmark", // no fields
		"BenchmarkBroken-8 notanumber 1 ns/op",
	} {
		if _, _, ok := parseLine(line); ok {
			t.Fatalf("line %q should not parse", line)
		}
	}
}

// TestParseKeepsMinOfN: `go test -count N` repeats each benchmark line;
// the recorded entry must be the fastest run.
func TestParseKeepsMinOfN(t *testing.T) {
	const repeated = `BenchmarkChurn-8   	 1000	       300.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkChurn-8   	 1200	       250.0 ns/op	       2 B/op	       0 allocs/op
BenchmarkChurn-8   	 1100	       280.0 ns/op	       0 B/op	       0 allocs/op
`
	var echo strings.Builder
	results, err := parse(strings.NewReader(repeated), &echo)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := results["BenchmarkChurn"]
	if !ok {
		t.Fatal("benchmark missing from results")
	}
	if m.NsPerOp != 250.0 {
		t.Fatalf("ns/op = %v, want the 250.0 minimum of three runs", m.NsPerOp)
	}
	if m.Iterations != 1200 || m.BytesPerOp != 2 {
		t.Fatalf("metrics = %+v, want the whole fastest-run record kept together", m)
	}
}

func TestRunWritesSortedJSON(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "bench.json")
	var echo strings.Builder
	if err := run(strings.NewReader(sample), &echo, outPath, "", 10); err != nil {
		t.Fatal(err)
	}
	// The pipe stays transparent: every input line is echoed.
	if !strings.Contains(echo.String(), "BenchmarkDCTCPFlow") || !strings.Contains(echo.String(), "PASS") {
		t.Fatal("input not echoed to stdout")
	}
	body, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	got := string(body)
	// Keys sorted, suffixes stripped, zero metrics present.
	wantOrder := []string{"BenchmarkDCTCPFlow", "BenchmarkPacketForwarding", "BenchmarkZeroAlloc"}
	last := -1
	for _, name := range wantOrder {
		i := strings.Index(got, name)
		if i < 0 {
			t.Fatalf("missing %s in output:\n%s", name, got)
		}
		if i < last {
			t.Fatalf("keys not sorted:\n%s", got)
		}
		last = i
	}
	if !strings.Contains(got, `"allocs_per_op":0`) {
		t.Fatalf("zero allocs/op not emitted:\n%s", got)
	}
	if strings.Contains(got, "BenchmarkZeroAlloc-16") {
		t.Fatalf("GOMAXPROCS suffix not stripped:\n%s", got)
	}
}

// TestEnvEntry: every report embeds the machine/source provenance as
// "_env", and a baseline carrying one still compares cleanly (the
// entry decodes to a zero Metrics and no benchmark shares its name).
func TestEnvEntry(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "bench.json")
	var echo strings.Builder
	if err := run(strings.NewReader(sample), &echo, outPath, "", 10); err != nil {
		t.Fatal(err)
	}
	body, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var report map[string]json.RawMessage
	if err := json.Unmarshal(body, &report); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, body)
	}
	var env struct {
		NumCPU     int    `json:"num_cpu"`
		GoMaxProcs int    `json:"gomaxprocs"`
		GoVersion  string `json:"go_version"`
		GitSHA     string `json:"git_sha"`
		GitDirty   *bool  `json:"git_dirty"`
	}
	if err := json.Unmarshal(report["_env"], &env); err != nil {
		t.Fatalf("_env entry missing or malformed: %v\n%s", err, body)
	}
	if env.NumCPU < 1 || env.GoMaxProcs < 1 || env.GoVersion == "" {
		t.Fatalf("_env not populated: %+v", env)
	}
	if env.GitSHA != "" && env.GitDirty == nil {
		t.Fatalf("_env names SHA %s without a dirty flag:\n%s", env.GitSHA, body)
	}

	// A baseline produced by this version (with "_env") compares
	// without tripping over the extra key.
	echo.Reset()
	if err := run(strings.NewReader(sample), &echo, "", outPath, 10); err != nil {
		t.Fatalf("comparison against env-bearing baseline: %v", err)
	}
	if strings.Contains(echo.String(), "no baseline comparison") {
		t.Fatalf("env-bearing baseline rejected:\n%s", echo.String())
	}
	// No comparison row for the provenance entry (rows are indented and
	// unquoted; the echoed report's own `"_env"` key is quoted).
	if strings.Contains(echo.String(), "\n  _env") {
		t.Fatalf("_env compared as a benchmark:\n%s", echo.String())
	}
}

func TestRunNoBenchmarks(t *testing.T) {
	var echo strings.Builder
	if err := run(strings.NewReader("PASS\n"), &echo, "", "", 10); err == nil {
		t.Fatal("expected error when no benchmark lines present")
	}
}

// TestBaselineCompare: the -baseline report prints per-benchmark
// deltas, flags regressions beyond tolerance, and degrades to a note —
// never an error — when the baseline is missing or unreadable.
func TestBaselineCompare(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	// Baseline: forwarding at 100 ns, no entry for DCTCPFlow's name.
	if err := os.WriteFile(base, []byte(`{"BenchmarkPacketForwarding":{"iterations":1,"ns_per_op":100}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	in := "BenchmarkPacketForwarding-8 1000 255.2 ns/op 0 B/op 0 allocs/op\n" +
		"BenchmarkDCTCPFlow 10 5000 ns/op\n"
	var echo strings.Builder
	if err := run(strings.NewReader(in), &echo, "", base, 10); err != nil {
		t.Fatalf("comparison must be fail-soft: %v", err)
	}
	out := echo.String()
	if !strings.Contains(out, "+155.2%") || !strings.Contains(out, "** regression **") {
		t.Fatalf("regression not flagged:\n%s", out)
	}
	if !strings.Contains(out, "(no baseline)") {
		t.Fatalf("new benchmark not noted:\n%s", out)
	}
	if !strings.Contains(out, "1 regression flag(s) beyond tolerance") {
		t.Fatalf("summary line missing:\n%s", out)
	}

	// Memory regressions flag independently of timing: same ns/op, but
	// B/op and allocs/op grew past tolerance (and from a zero baseline,
	// which must flag on any growth).
	echo.Reset()
	memBase := filepath.Join(dir, "membase.json")
	if err := os.WriteFile(memBase,
		[]byte(`{"BenchmarkPacketForwarding":{"iterations":1,"ns_per_op":255.2,"bytes_per_op":100,"allocs_per_op":0}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	in = "BenchmarkPacketForwarding-8 1000 255.2 ns/op 200 B/op 5 allocs/op\n"
	if err := run(strings.NewReader(in), &echo, "", memBase, 10); err != nil {
		t.Fatalf("comparison must be fail-soft: %v", err)
	}
	out = echo.String()
	if !strings.Contains(out, "** B/op regression: +100.0% **") {
		t.Fatalf("B/op regression not flagged:\n%s", out)
	}
	if !strings.Contains(out, "** allocs/op regression: 0 -> 5 **") {
		t.Fatalf("allocs/op zero-baseline regression not flagged:\n%s", out)
	}
	if !strings.Contains(out, "2 regression flag(s) beyond tolerance") {
		t.Fatalf("summary line missing:\n%s", out)
	}

	// Within tolerance: no flags.
	echo.Reset()
	in = "BenchmarkPacketForwarding-8 1000 104 ns/op\n"
	if err := run(strings.NewReader(in), &echo, "", base, 10); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(echo.String(), "regression") {
		t.Fatalf("4%% delta flagged at 10%% tolerance:\n%s", echo.String())
	}

	// Missing baseline file: still no error.
	echo.Reset()
	if err := run(strings.NewReader(in), &echo, "", filepath.Join(dir, "absent.json"), 10); err != nil {
		t.Fatalf("missing baseline must be fail-soft: %v", err)
	}
	if !strings.Contains(echo.String(), "no baseline comparison") {
		t.Fatalf("missing-baseline note absent:\n%s", echo.String())
	}

	// Corrupt baseline: fail-soft too.
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	echo.Reset()
	if err := run(strings.NewReader(in), &echo, "", bad, 10); err != nil {
		t.Fatalf("corrupt baseline must be fail-soft: %v", err)
	}
	if !strings.Contains(echo.String(), "no baseline comparison") {
		t.Fatalf("corrupt-baseline note absent:\n%s", echo.String())
	}
}

// TestGitDirty: the _env dirty flag tracks the work tree — false on a
// clean checkout, true once a tracked file changes or an untracked one
// appears — and both git fields are absent outside a work tree.
func TestGitDirty(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git not installed")
	}
	if sha, dirty := gitState(t.TempDir()); sha != "" || dirty != nil {
		t.Fatalf("outside a work tree: sha %q, dirty %v; want both unset", sha, dirty)
	}
	dir := t.TempDir()
	git := func(args ...string) {
		t.Helper()
		cmd := exec.Command("git", append([]string{"-c", "user.name=t", "-c", "user.email=t@t",
			"-c", "commit.gpgsign=false"}, args...)...)
		cmd.Dir = dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("git %v: %v\n%s", args, err, out)
		}
	}
	file := filepath.Join(dir, "a.go")
	write := func(path, body string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	git("init", "-q")
	write(file, "package a\n")
	git("add", "a.go")
	git("commit", "-q", "-m", "init")
	check := func(want bool) {
		t.Helper()
		sha, dirty := gitState(dir)
		if sha == "" || dirty == nil || *dirty != want {
			t.Fatalf("gitState = %q, %v; want a SHA and dirty=%v", sha, dirty, want)
		}
	}
	check(false)
	write(file, "package a // edited\n")
	check(true)
	git("checkout", "-q", "--", "a.go")
	check(false)
	write(filepath.Join(dir, "b.go"), "package a\n")
	check(true)

	// The flag lands in the report's _env entry next to the SHA.
	b, err := json.Marshal(envInfo{GitSHA: "abc1234", GitDirty: new(bool)})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"git_dirty":false`) {
		t.Fatalf("clean tree not recorded: %s", b)
	}
}
