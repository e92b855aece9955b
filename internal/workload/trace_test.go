package workload

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"pmsb/internal/units"
)

func TestReadTrace(t *testing.T) {
	in := `start_us,src,dst,size_bytes,service
0.000,0,1,1000,0
12.500,3,7,250000,5
`
	flows, err := ReadTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 2 {
		t.Fatalf("flows = %d", len(flows))
	}
	if flows[0].Start != 0 || flows[0].Src != 0 || flows[0].Dst != 1 || flows[0].Size != 1000 {
		t.Fatalf("flow 0 = %+v", flows[0])
	}
	if flows[1].Start != 12500*time.Nanosecond || flows[1].Service != 5 {
		t.Fatalf("flow 1 = %+v", flows[1])
	}
}

func TestReadTraceNoHeader(t *testing.T) {
	flows, err := ReadTrace(strings.NewReader("5.0,1,2,100,0\n"))
	if err != nil || len(flows) != 1 {
		t.Fatalf("headerless trace: %v, %d flows", err, len(flows))
	}
}

// badTraces lists inputs ReadTrace must reject; it also seeds
// FuzzReadTrace.
var badTraces = []string{
	"1.0,1,2,100\n",                          // 4 columns
	"1.0,2,2,100,0\n",                        // src == dst
	"1.0,1,2,0,0\n",                          // zero size
	"1.0,1,2,100,-1\n",                       // negative service
	"1.0,a,2,100,0\n",                        // bad src
	"x,1,2,100,0\nx,1,2,100,0\n",             // bad start beyond header
	"1.0,-1,2,100,0\n",                       // negative src
	"0,-1,3,1000,0\n",                        // negative src, start 0
	"1.0,1,-2,100,0\n",                       // negative dst
	"NaN,1,2,100,0\n",                        // NaN start
	"Inf,1,2,100,0\n",                        // +Inf start
	"-Inf,1,2,100,0\n",                       // -Inf start
	"-1.0,1,2,100,0\n",                       // negative start
	"1e300,1,2,100,0\n",                      // start past time.Duration
	"9223372036854776,1,2,100,0\n",           // start just past time.Duration
	"start_us\n0,1,2,100,0\nnan,1,2,100,0\n", // NaN start after a header
}

func TestReadTraceErrors(t *testing.T) {
	for _, in := range badTraces {
		if _, err := ReadTrace(strings.NewReader(in)); err == nil {
			t.Fatalf("ReadTrace(%q) should fail", in)
		}
	}
}

// A start just under time.Duration's limit is accepted, and -0
// reads as zero.
func TestReadTraceStartBounds(t *testing.T) {
	flows, err := ReadTrace(strings.NewReader("9223372036854000,1,2,100,0\n-0,1,2,100,0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if flows[0].Start <= 0 || flows[1].Start != 0 {
		t.Fatalf("starts = %v, %v", flows[0].Start, flows[1].Start)
	}
}

// FuzzReadTrace: any input either fails with an error or yields flows
// a simulator can replay — never a panic.
func FuzzReadTrace(f *testing.F) {
	f.Add("start_us,src,dst,size_bytes,service\n0.000,0,1,1000,0\n12.500,3,7,250000,5\n")
	f.Add("5.0,1,2,100,0\n")
	for _, in := range badTraces {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		flows, err := ReadTrace(strings.NewReader(in))
		if err != nil {
			return
		}
		for i, fl := range flows {
			if fl.Src < 0 || fl.Dst < 0 || fl.Src == fl.Dst || fl.Size < 1 || fl.Start < 0 {
				t.Fatalf("ReadTrace(%q) accepted flow %d: %+v", in, i, fl)
			}
		}
	})
}

// A header is detected by its first cell, not its width: exporters
// that add or drop columns in the header row must still round-trip.
func TestReadTraceHeaderAnyWidth(t *testing.T) {
	for _, in := range []string{
		"start_us,src,dst,size_bytes,service,comment\n1.0,1,2,100,0\n", // wider header
		"start_us,src\n1.0,1,2,100,0\n",                                // narrower header
		"t\n1.0,1,2,100,0\n",                                           // single-cell header
	} {
		flows, err := ReadTrace(strings.NewReader(in))
		if err != nil {
			t.Fatalf("ReadTrace(%q): %v", in, err)
		}
		if len(flows) != 1 || flows[0].Size != 100 {
			t.Fatalf("ReadTrace(%q): flows = %+v", in, flows)
		}
	}
}

// A malformed first data row must be an error, not silently dropped as
// a header: "12x3" begins numerically, so it is bad data.
func TestReadTraceMalformedFirstRow(t *testing.T) {
	for _, in := range []string{
		"12x3,1,2,100,0\n2.0,1,2,100,0\n", // bad start, begins with digit
		"-x,1,2,100,0\n",                  // bad start, begins with sign
		",1,2,100,0\n",                    // empty start cell
	} {
		_, err := ReadTrace(strings.NewReader(in))
		if err == nil {
			t.Fatalf("ReadTrace(%q) silently dropped a malformed first data row", in)
		}
		if !strings.Contains(err.Error(), "line 1") {
			t.Fatalf("ReadTrace(%q) error %q does not name line 1", in, err)
		}
	}
}

// Header detection applies to row 1 only: a header-like row later in
// the file is a malformed data row.
func TestReadTraceHeaderBeyondRow1(t *testing.T) {
	in := "1.0,1,2,100,0\nstart_us,src,dst,size_bytes,service\n"
	_, err := ReadTrace(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("mid-file header-like row: err = %v, want line 2 error", err)
	}
}

// Error messages must reference physical line numbers: blank lines and
// the header are invisible to the CSV record count but not to a user
// jumping to the reported line in an editor.
func TestReadTraceLineNumbersWithBlankLines(t *testing.T) {
	in := "start_us,src,dst,size_bytes,service\n" + // line 1
		"0.0,0,1,1000,0\n" + // line 2
		"\n" + // line 3: blank, skipped by the CSV reader
		"\n" + // line 4: blank
		"bad,1,2,100,0\n" // line 5
	_, err := ReadTrace(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "line 5") {
		t.Fatalf("err = %v, want a 'line 5' error", err)
	}

	in = "0.0,0,1,1000,0\n" + // line 1
		"\n" + // line 2
		"1.0,1,2,100\n" // line 3: four columns
	_, err = ReadTrace(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("err = %v, want a 'line 3' error", err)
	}

	// Good traces with interior blank lines still parse fully.
	flows, err := ReadTrace(strings.NewReader("1.0,1,2,100,0\n\n\n2.0,2,3,200,1\n"))
	if err != nil || len(flows) != 2 {
		t.Fatalf("blank-line trace: %v, %d flows", err, len(flows))
	}
}

func TestTraceRoundTrip(t *testing.T) {
	orig := Poisson(PoissonConfig{
		Load: 0.5, LinkRate: 10 * units.Gbps, Hosts: 8,
		Dist: WebSearch(), Services: 4, NumFlows: 50, Seed: 9,
	})
	var buf bytes.Buffer
	if err := WriteTrace(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(orig) {
		t.Fatalf("round trip lost flows: %d vs %d", len(got), len(orig))
	}
	for i := range orig {
		if got[i].Src != orig[i].Src || got[i].Dst != orig[i].Dst ||
			got[i].Size != orig[i].Size || got[i].Service != orig[i].Service {
			t.Fatalf("flow %d mismatch: %+v vs %+v", i, got[i], orig[i])
		}
		// Start times survive to sub-microsecond rounding.
		diff := got[i].Start - orig[i].Start
		if diff < -time.Microsecond || diff > time.Microsecond {
			t.Fatalf("flow %d start drift %v", i, diff)
		}
	}
}
