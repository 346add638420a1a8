package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"prodigy/internal/obs"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place. It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// median of xs (sorted in place).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user+system CPU time so far (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// counters is a flat snapshot of every obs.Default series, keyed by
// name{label values}. Per-layer counts are deltas of two snapshots, so the
// benchmark reads the program's own telemetry without changing it.
type counters map[string]float64

func snapshot() counters {
	c := counters{}
	obs.Default.Collect(func(p obs.SamplePoint) {
		c[p.Name+"{"+strings.Join(p.Values, ",")+"}"] = p.Value
	})
	return c
}

// delta returns after−before for one series key.
func (c counters) delta(before counters, key string) float64 { return c[key] - before[key] }

// sumPrefix returns after−before summed over every series whose key starts
// with prefix (all label values of one family).
func (c counters) sumPrefix(before counters, prefix string) float64 {
	s := 0.0
	for k, v := range c {
		if strings.HasPrefix(k, prefix) {
			s += v - before[k]
		}
	}
	return s
}

// heapPeak samples the live heap (as of the last GC) every few
// milliseconds until stopped and reports the largest value seen.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

const liveHeapMetric = "/gc/heap/live:bytes"

// liveHeap returns the heap marked live by the last GC, in bytes.
func liveHeap() uint64 {
	sample := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return sample[0].Value.Uint64()
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	read := func() {
		v := liveHeap()
		h.mu.Lock()
		if v > h.peak {
			h.peak = v
		}
		h.mu.Unlock()
	}
	read()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return h
}

// end stops the sampler and returns the peak live heap in MiB.
func (h *heapPeak) end() float64 {
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / (1 << 20)
}

// phase brackets one measured phase: wall time, process CPU time, peak
// live heap and the obs counters at its start.
type phase struct {
	start time.Time
	cpu0  time.Duration
	heap  *heapPeak
	c0    counters
}

func beginPhase() *phase {
	runtime.GC() // start from a fresh live-heap reading, not set-up garbage
	return &phase{c0: snapshot(), heap: startHeapPeak(), cpu0: cpuTime(), start: time.Now()}
}

// phaseEnd is what a phase measured.
type phaseEnd struct {
	wall, cpu time.Duration
	// peakMB is the largest live heap seen during the phase; retainedMB is
	// the live heap after it with the scratch pools drained (two GCs empty
	// every sync.Pool), which does not depend on how many pooled buffers
	// the last GC happened to find checked out.
	peakMB, retainedMB float64
	c0, c1             counters
}

func (p *phase) end() phaseEnd {
	wall := time.Since(p.start)
	cpu := cpuTime() - p.cpu0
	pe := phaseEnd{wall: wall, cpu: cpu, c0: p.c0, c1: snapshot(), peakMB: p.heap.end()}
	runtime.GC()
	runtime.GC()
	pe.retainedMB = float64(liveHeap()) / (1 << 20)
	return pe
}
