package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
)

// Phase span names. Setup phases sum to setup_s and run phases to run_s;
// the rest are post-run work that neither metric includes.
const (
	spanSample    = "sample"
	spanCell      = "cell"
	spanTopo      = "topo.build"
	spanWorkload  = "workload.gen"
	spanFlows     = "transport.new_flow"
	spanFlowStart = "flowsim.start"
	spanRun       = "run"
	spanFlush     = "trace.flush"
	spanReduce    = "obs.reduce"
	spanFCTErr    = "flowsim.err_pass"
)

var (
	setupSpans = []string{spanTopo, spanWorkload, spanFlows, spanFlowStart}
	runSpans   = []string{spanRun, spanFlush}
)

// span is one recorded phase. Times are seconds since the sample began;
// Parent is the ID of the enclosing span (0 for the root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// spans records the coarse phases of one sample in memory.
type spans struct {
	t0   time.Time
	list []span
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// begin opens a span under parent and returns its ID.
func (s *spans) begin(name string, parent int) int {
	s.list = append(s.list, span{
		ID: len(s.list) + 1, Parent: parent, Name: name,
		Start: time.Since(s.t0).Seconds(),
	})
	return len(s.list)
}

// end closes span id.
func (s *spans) end(id int) {
	s.list[id-1].End = time.Since(s.t0).Seconds()
}

// timed runs fn inside a span named name under parent.
func (s *spans) timed(name string, parent int, fn func()) {
	id := s.begin(name, parent)
	fn()
	s.end(id)
}

// sum totals the durations of every span whose name is in names.
func (s *spans) sum(names ...string) float64 {
	var t float64
	for _, sp := range s.list {
		for _, n := range names {
			if sp.Name == n {
				t += sp.End - sp.Start
			}
		}
	}
	return t
}

// window brackets the part of a sample the process-level metrics cover
// (setup and run): CPU time, bytes allocated and peak resident memory.
type window struct {
	cpu0   time.Duration
	alloc0 uint64
	cpu    time.Duration
	alloc  uint64
	rssKB  int64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func openWindow() *window {
	return &window{alloc0: totalAlloc(), cpu0: cpuTime()}
}

// close ends the window. Peak RSS is the process high-water mark so
// far, which covers setup and run because nothing else ran before.
func (w *window) close() {
	w.cpu = cpuTime() - w.cpu0
	w.alloc = totalAlloc() - w.alloc0
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	w.rssKB = ru.Maxrss // kilobytes on Linux
}

// mib converts bytes to MiB, the unit of every *_mb metric.
func mib(b float64) float64 { return b / (1 << 20) }
