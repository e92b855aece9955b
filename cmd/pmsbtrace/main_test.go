package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestGenerateAndReplay(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.csv")
	flows := filepath.Join(dir, "flows.csv")

	var buf bytes.Buffer
	if err := run([]string{"-gen", "60", "-seed", "3"}, &buf); err != nil {
		t.Fatalf("-gen: %v", err)
	}
	if err := os.WriteFile(trace, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	err := run([]string{"-trace", trace, "-marker", "pmsb", "-flows", flows}, &out)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !strings.Contains(out.String(), "completed: 60/60") {
		t.Fatalf("not all flows completed:\n%s", out.String())
	}
	data, err := os.ReadFile(flows)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(string(data), "\n")
	if lines != 61 { // header + 60 flows
		t.Fatalf("flows file has %d lines, want 61", lines)
	}
	if strings.Contains(string(data), ",false") {
		t.Fatal("per-flow output reports incomplete flows")
	}
}

func TestReplayDeterministic(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.csv")
	var buf bytes.Buffer
	if err := run([]string{"-gen", "40"}, &buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(trace, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := run([]string{"-trace", trace, "-marker", "tcn"}, &a); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-trace", trace, "-marker", "tcn"}, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("replay not deterministic")
	}
}

func TestReplayErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(nil, &buf); err == nil {
		t.Fatal("missing -trace/-gen must error")
	}
	if err := run([]string{"-trace", "/nonexistent.csv"}, &buf); err == nil {
		t.Fatal("missing file must error")
	}
	// MQ-ECN on WFQ is rejected up front.
	dir := t.TempDir()
	trace := filepath.Join(dir, "t.csv")
	os.WriteFile(trace, []byte("start_us,src,dst,size_bytes,service\n1.0,0,1,1000,0\n"), 0o644)
	if err := run([]string{"-trace", trace, "-marker", "mqecn", "-sched", "wfq"}, &buf); err == nil {
		t.Fatal("mqecn over wfq must be rejected")
	}
	// Host index out of range.
	os.WriteFile(trace, []byte("start_us,src,dst,size_bytes,service\n1.0,0,99,1000,0\n"), 0o644)
	if err := run([]string{"-trace", trace}, &buf); err == nil {
		t.Fatal("out-of-range host must error")
	}
	// A negative host or a start outside time.Duration is an error, not
	// a panic or a silent replay at t=0.
	for _, row := range []string{"0,-1,3,1000,0", "NaN,0,1,1000,0", "1e300,0,1,1000,0"} {
		os.WriteFile(trace, []byte("start_us,src,dst,size_bytes,service\n"+row+"\n"), 0o644)
		if err := run([]string{"-trace", trace}, &buf); err == nil {
			t.Fatalf("row %q must error", row)
		}
	}
}
