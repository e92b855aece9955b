package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// badGroups lists -groups values parseGroups must reject; it also seeds
// FuzzParseGroups.
var badGroups = []string{
	"", "x1", "1x", "0x1", "-1x0", "1x-2", "ax b",
	"1x64",                   // service past the 6-bit DSCP field
	"1x0,1x2147483647",       // service far past it
	"99999999999x0",          // one group past the flow limit
	"4096x0,1x1",             // the sum past the flow limit
	"9223372036854775807x0",  // count at the int limit
	"4000x0,4000x1,4000x2",   // sum that must not wrap
	"1x99999999999999999999", // service past int
	"99999999999999999999x0", // count past int
}

func TestParseGroups(t *testing.T) {
	groups, maxSvc, err := parseGroups("1x0, 8x1,2x3")
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 3 || maxSvc != 3 {
		t.Fatalf("groups = %+v, maxSvc = %d", groups, maxSvc)
	}
	if groups[1].count != 8 || groups[1].service != 1 {
		t.Fatalf("group[1] = %+v", groups[1])
	}
	for _, bad := range badGroups {
		if _, _, err := parseGroups(bad); err == nil {
			t.Fatalf("parseGroups(%q) should fail", bad)
		}
	}
	// The limits themselves are accepted.
	for _, ok := range []string{"1x63", "4096x0", "4095x0,1x63"} {
		if _, _, err := parseGroups(ok); err != nil {
			t.Fatalf("parseGroups(%q): %v", ok, err)
		}
	}
}

// FuzzParseGroups: any -groups string either fails with an error or
// yields groups inside the limits that keep a scenario's memory
// bounded — never a panic.
func FuzzParseGroups(f *testing.F) {
	for _, s := range append([]string{"1x0,8x1", "1x0, 8x1,2x3", "4096x63"}, badGroups...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		groups, maxSvc, err := parseGroups(s)
		if err != nil {
			return
		}
		if len(groups) == 0 {
			t.Fatalf("parseGroups(%q) accepted no groups", s)
		}
		flows, top := 0, 0
		for _, g := range groups {
			if g.count < 1 || g.service < 0 || g.service > maxGroupService {
				t.Fatalf("parseGroups(%q) accepted group %+v", s, g)
			}
			flows += g.count
			top = max(top, g.service)
		}
		if flows > maxGroupFlows {
			t.Fatalf("parseGroups(%q) accepted %d flows", s, flows)
		}
		if maxSvc != top {
			t.Fatalf("parseGroups(%q) max service %d, groups say %d", s, maxSvc, top)
		}
	})
}

func TestParseWeights(t *testing.T) {
	w, err := parseWeights("", 3)
	if err != nil || len(w) != 3 || w[0] != 1 {
		t.Fatalf("default weights = %v, %v", w, err)
	}
	w, err = parseWeights("1, 2.5 ,4", 3)
	if err != nil || w[1] != 2.5 {
		t.Fatalf("weights = %v, %v", w, err)
	}
	for _, bad := range []string{"1", "1,0", "1,-2", "a,b"} {
		if _, err := parseWeights(bad, 2); err == nil {
			t.Fatalf("parseWeights(%q) should fail", bad)
		}
	}
}

func TestRunScenarios(t *testing.T) {
	// One quick scenario per scheduler and per marker: the command must
	// complete and report a full-link total.
	for _, args := range [][]string{
		{"-groups", "1x0,4x1", "-sched", "wfq", "-marker", "pmsb", "-dur", "20ms"},
		{"-groups", "1x0,4x1", "-sched", "dwrr", "-marker", "mqecn", "-dur", "20ms"},
		{"-groups", "1x0,4x1", "-sched", "wrr", "-marker", "tcn", "-dur", "20ms"},
		{"-groups", "2x0", "-sched", "fifo", "-marker", "perqueue", "-dur", "20ms"},
		{"-groups", "1x0,1x1", "-sched", "sp", "-marker", "fractional", "-dur", "20ms"},
		{"-groups", "1x0,1x1,1x2", "-sched", "spwfq", "-marker", "pmsbe", "-dur", "20ms"},
		{"-groups", "2x0", "-marker", "red", "-dur", "20ms"},
		{"-groups", "2x0", "-marker", "none", "-buffer", "50", "-dur", "20ms"},
		{"-groups", "2x0", "-marker", "pmsb", "-dequeue", "-dur", "20ms"},
	} {
		var buf bytes.Buffer
		if err := run(args, &buf); err != nil {
			t.Fatalf("run(%v): %v", args, err)
		}
		out := buf.String()
		if !strings.Contains(out, "total:") || !strings.Contains(out, "rtt:") {
			t.Fatalf("run(%v) incomplete output:\n%s", args, out)
		}
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	for _, args := range [][]string{
		{"-groups", "zzz"},
		{"-sched", "nope"},
		{"-marker", "nope"},
		{"-weights", "1", "-groups", "1x0,1x1"},
		{"-bogus"},
	} {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Fatalf("run(%v) should fail", args)
		}
	}
}

func TestPMSBRestoresFairnessEndToEnd(t *testing.T) {
	// The library's headline behaviour through the CLI: per-port
	// marking violates fairness, PMSB restores it.
	share := func(marker string) float64 {
		var buf bytes.Buffer
		err := run([]string{"-groups", "1x0,8x1", "-marker", marker, "-portk", "16", "-dur", "40ms"}, &buf)
		if err != nil {
			t.Fatal(err)
		}
		// Parse the Jain index off the "total:" line.
		for _, line := range strings.Split(buf.String(), "\n") {
			if !strings.Contains(line, "Jain index:") {
				continue
			}
			rest := line[strings.Index(line, "Jain index:")+len("Jain index:"):]
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				t.Fatalf("no value after Jain index in %q", line)
			}
			v, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				t.Fatalf("parse %q: %v", fields[0], err)
			}
			return v
		}
		t.Fatal("no Jain index line")
		return 0
	}
	perPort := share("perport")
	pmsb := share("pmsb")
	if pmsb <= perPort {
		t.Fatalf("PMSB Jain index (%.3f) must beat per-port (%.3f)", pmsb, perPort)
	}
	if pmsb < 0.98 {
		t.Fatalf("PMSB Jain index = %.3f, want ~1", pmsb)
	}
}
