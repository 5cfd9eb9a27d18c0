package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// wallNow is the benchmark's only wall-clock read. It times real work
// on the host; nothing it returns reaches the program under test.
func wallNow() time.Time {
	return time.Now() //caribou:allow wallclock the benchmark times real work on the host; the value never reaches simulated state
}

// since is wallNow().Sub(t).
func since(t time.Time) time.Duration { return wallNow().Sub(t) }

// usage is a snapshot of process CPU time and cumulative heap
// allocation, taken at the edges of a measured window.
type usage struct {
	cpu   time.Duration
	alloc uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) reads this process's own CPU accounting;
	// it cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: ms.TotalAlloc,
	}
}

// perOp charges a window's CPU and allocation to n operations.
func perOp(o *outcome, from, to usage, n int) {
	if n < 1 {
		n = 1
	}
	o.add("cpu_ms_per_op", "ms", float64(to.cpu-from.cpu)/1e6/float64(n))
	o.add("alloc_mb_per_op", "MB", float64(to.alloc-from.alloc)/(1<<20)/float64(n))
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// How many times each workload builds its set-up in a run; setup_s is
// the median. Cheap set-ups repeat more, so the median is steady.
const (
	cpSetupReps      = 5   // ~0.5 s each
	solveSetupReps   = 9   // ~10-20 ms each
	figuresSetupReps = 100 // ~2.5 ms each
)

// tracer records spans (name, start, end, parent) around the
// benchmark's own calls into each layer and writes them out when the run
// ends. A nil *tracer records nothing and reads no clock.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: wallNow()} }

// spanRef is an open span: end it exactly once.
type spanRef struct {
	t     *tracer
	id    int
	start time.Time
}

// begin opens a span under parent (0 for a root span).
func (t *tracer) begin(name string, parent spanRef) spanRef {
	if t == nil {
		return spanRef{}
	}
	now := wallNow()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent.id, Name: name,
		Start: int64(now.Sub(t.t0)), End: -1,
	})
	return spanRef{t: t, id: len(t.spans), start: now}
}

// end closes the span and returns its duration.
func (s spanRef) end() time.Duration {
	if s.t == nil {
		return 0
	}
	now := wallNow()
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	s.t.spans[s.id-1].End = int64(now.Sub(s.t.t0))
	return now.Sub(s.start)
}

// durations returns the closed durations of every span named name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// medianMS is the median duration of the spans named name, in ms.
func (t *tracer) medianMS(name string) float64 { return median(t.durations(name)) / 1e6 }

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
	}
	return f.Close()
}
