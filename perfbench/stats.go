package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"time"
)

// dist is a sorted sample of one measured quantity.
type dist struct{ v []float64 }

func newDist(samples []float64) dist {
	v := append([]float64(nil), samples...)
	sort.Float64s(v)
	return dist{v}
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// N is the sample count.
func (d dist) N() int { return len(d.v) }

// Q returns the p-th percentile by nearest rank (0 for an empty sample).
func (d dist) Q(p float64) float64 {
	if len(d.v) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(d.v))-1e-9)) - 1
	return d.v[max(0, min(i, len(d.v)-1))]
}

// Mean is the arithmetic mean (0 for an empty sample).
func (d dist) Mean() float64 {
	if len(d.v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range d.v {
		s += x
	}
	return s / float64(len(d.v))
}

// MidMean is the mean of the middle half of the sample, the values from
// the first to the third quartile by rank (0 for an empty sample). When the
// host switches between speeds during a run, a median lands in one speed
// or the other, while the mid-mean moves with the share of each.
func (d dist) MidMean() float64 {
	n := len(d.v)
	if n == 0 {
		return 0
	}
	lo, hi := n/4, n-n/4
	return dist{d.v[lo:hi]}.Mean()
}

// percentileLadder is the set of percentiles a tail is reported at.
var percentileLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// Supports reports whether at least ten samples lie beyond the p-th
// percentile.
func (d dist) Supports(p float64) bool {
	return float64(len(d.v))*(1-p/100) >= minBeyond-1e-9
}

// Tail is the highest percentile of the ladder with at least ten samples
// beyond it, and its value; ok is false when even the median is
// unsupported.
func (d dist) Tail() (p, value float64, ok bool) {
	for _, p := range percentileLadder {
		if d.Supports(p) {
			return p, d.Q(p), true
		}
	}
	return 0, 0, false
}

// heapSampleEvery is how often heapPeak reads the heap.
const heapSampleEvery = 2 * time.Millisecond

// heapPeak samples the bytes held by heap objects, live and not yet
// collected, from a goroutine of its own until stop is called, so
// transient allocations count and not just what survives the window.
type heapPeak struct {
	stop chan struct{}
	done chan []float64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan []float64)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var mb []float64
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			metrics.Read(s)
			mb = append(mb, float64(s[0].Value.Uint64())/(1<<20))
			select {
			case <-h.stop:
				h.done <- mb
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stopMB stops the sampler, waits for it to exit and returns the heap
// samples in MiB.
func (h *heapPeak) stopMB() dist {
	close(h.stop)
	return newDist(<-h.done)
}
