package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// A stall in one request must show up as latency on the requests queued
// behind it, because the open loop times each request from its due time
// rather than from when it was finally sent.
func TestOpenLoopCountsStallFromDueTime(t *testing.T) {
	const stall = 30 * time.Millisecond
	res := openLoop(1000, 60*time.Millisecond, func(i int, _ time.Time) (time.Time, error) {
		if i == 5 {
			time.Sleep(stall)
		}
		return time.Now(), nil
	})
	if len(res.lat) < 50 {
		t.Fatalf("sent %d requests in 60ms at 1000/s", len(res.lat))
	}
	if res.lat[5] < stall {
		t.Errorf("stalled request latency %v, want at least %v", res.lat[5], stall)
	}
	// Request 6 fell due 1ms after request 5 started, so it waited about
	// 29ms before it could be sent.
	if res.lat[6] < stall-5*time.Millisecond || res.late[6] < stall-5*time.Millisecond {
		t.Errorf("request behind the stall: latency %v, late %v; want both near %v", res.lat[6], res.late[6], stall)
	}
	if res.lat[0] > 10*time.Millisecond {
		t.Errorf("request before the stall took %v", res.lat[0])
	}
}

func TestSameSeedSameOperations(t *testing.T) {
	freqs := []float64{10, 0.5, 0.8, 5}
	a := newQuerySeq(7, freqs, namedShare, 539)
	b := newQuerySeq(7, freqs, namedShare, 539)
	c := newQuerySeq(8, freqs, namedShare, 539)
	named, differ := 0, 0
	for i := 0; i < 5000; i++ {
		if a.at(i) != b.at(i) {
			t.Fatalf("request %d: %d and %d from the same seed", i, a.at(i), b.at(i))
		}
		if a.at(i) != c.at(i) {
			differ++
		}
		if a.at(i) < len(freqs) {
			named++
		}
		if a.at(i) < 0 || a.at(i) >= len(freqs)+539 {
			t.Fatalf("request %d out of range: %d", i, a.at(i))
		}
	}
	if differ < 4000 {
		t.Errorf("seeds 7 and 8 agree on %d of 5000 requests", 5000-differ)
	}
	if share := float64(named) / 5000; share < namedShare-0.03 || share > namedShare+0.03 {
		t.Errorf("named share %.3f, want about %.2f", share, namedShare)
	}
	if !reflect.DeepEqual(starSchema(10, 32, 3).queries, starSchema(10, 32, 3).queries) {
		t.Error("star queries differ for the same seed")
	}
	if reflect.DeepEqual(starSchema(10, 32, 3).queries, starSchema(10, 32, 4).queries) {
		t.Error("star queries equal for different seeds")
	}
}

func TestMidMeanDropsOutliers(t *testing.T) {
	if m := newDist([]float64{8, 1, 7, 2, 6, 3, 5, 4}).MidMean(); m != 4.5 {
		t.Errorf("mid-mean of 1..8 is %g, want 4.5", m)
	}
	if m := newDist([]float64{1, 1, 1, 100}).MidMean(); m != 1 {
		t.Errorf("mid-mean with one outlier is %g, want 1", m)
	}
}

func TestPercentileReportsSamplesAndSupportedTail(t *testing.T) {
	sample := func(n int) dist {
		v := make([]float64, n)
		for i := range v {
			v[n-1-i] = float64(i + 1) // unsorted on purpose
		}
		return newDist(v)
	}
	cases := []struct {
		n        int
		tail     float64
		value    float64
		hasTail  bool
		median   float64
		supports map[float64]bool
	}{
		{1000, 99, 990, true, 500, map[float64]bool{99: true, 99.9: false}},
		{999, 95, 950, true, 500, map[float64]bool{99: false, 95: true}},
		{100, 90, 90, true, 50, map[float64]bool{90: true, 95: false}},
		{20, 50, 10, true, 10, map[float64]bool{50: true, 75: false}},
		{19, 0, 0, false, 10, map[float64]bool{50: false}},
	}
	for _, c := range cases {
		d := sample(c.n)
		if d.N() != c.n {
			t.Errorf("N() = %d, want %d", d.N(), c.n)
		}
		p, v, ok := d.Tail()
		if p != c.tail || v != c.value || ok != c.hasTail {
			t.Errorf("n=%d: Tail() = p%g %g %v, want p%g %g %v", c.n, p, v, ok, c.tail, c.value, c.hasTail)
		}
		if m := d.MidMean(); c.n >= 4 && (m < d.Q(25) || m > d.Q(75)) {
			t.Errorf("n=%d: mid-mean %g outside the quartiles %g..%g", c.n, m, d.Q(25), d.Q(75))
		}
		if m := d.Q(50); m != c.median {
			t.Errorf("n=%d: median %g, want %g", c.n, m, c.median)
		}
		for p, want := range c.supports {
			if d.Supports(p) != want {
				t.Errorf("n=%d: Supports(%g) = %v, want %v", c.n, p, !want, want)
			}
		}
	}
}

func TestSelfTimeAndStageCheck(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "a", Start: 0, End: 40},
		{ID: 3, Parent: 1, Op: 1, Name: "b", Start: 30, End: 95}, // overlaps a
		{ID: 4, Parent: 3, Op: 1, Name: "c", Start: 50, End: 60},
		{ID: 5, Op: 2, Name: "root", Start: 200, End: 10_000_200},
		{ID: 6, Parent: 5, Op: 2, Name: "a", Start: 200, End: 300},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{1: 5, 2: 40, 3: 55, 4: 10, 6: 100} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	sc := stageCheck(spans, map[string]bool{"root": true}, map[string]bool{"a": true, "b": true})
	if sc.checked != 2 || sc.bad != 1 || sc.worst < 0.99 || sc.ok() {
		t.Errorf("stageCheck = %+v; want 2 checked, 1 bad, worst ~1, not ok", sc)
	}
	if sc := stageCheck(spans[:4], map[string]bool{"root": true}, map[string]bool{"a": true, "b": true}); !sc.ok() {
		t.Errorf("stageCheck over the covered operation = %+v, want ok", sc)
	}
	// One descheduled operation in a hundred of its kind passes; two do not.
	descheduled := func(n int64) stageResult {
		var ops []span
		for op := int64(1); op <= 100; op++ {
			gap := int64(0)
			if op <= n {
				gap = 5_000_000
			}
			start := op * 100_000_000
			ops = append(ops,
				span{ID: 2*op - 1, Op: op, Name: "root", Start: start, End: start + 10_000_000 + gap},
				span{ID: 2 * op, Parent: 2*op - 1, Op: op, Name: "a", Start: start + gap, End: start + 10_000_000 + gap})
		}
		return stageCheck(ops, map[string]bool{"root": true}, map[string]bool{"a": true})
	}
	if sc := descheduled(1); !sc.ok() || sc.bad != 1 {
		t.Errorf("stageCheck with 1 of 100 operations descheduled = %+v, want ok", sc)
	}
	if sc := descheduled(2); sc.ok() || sc.bad != 2 {
		t.Errorf("stageCheck with 2 of 100 operations uncovered = %+v, want not ok", sc)
	}
	if got := wallPerOp(spans, "a"); got != (40+100)/2/1e3 {
		t.Errorf("wallPerOp(a) = %g us, want %g", got, (40+100)/2/1e3)
	}
}

// A request that returns an error is left out of the latency figures, so a
// fast failure cannot lower them, and counts as missing the goodput limit.
func TestFailedRequestsLeaveLatencyAndMissGoodput(t *testing.T) {
	res := openLoop(1000, 40*time.Millisecond, func(i int, due time.Time) (time.Time, error) {
		if i%2 == 1 {
			return due, errors.New("refused")
		}
		time.Sleep(2 * time.Millisecond)
		return time.Now(), nil
	})
	ok := res.answered()
	if len(ok) != (len(res.lat)+1)/2 {
		t.Fatalf("answered %d of %d requests, want every other one", len(ok), len(res.lat))
	}
	for _, d := range ok {
		if d < 2*time.Millisecond {
			t.Fatalf("answered latency %v includes a failed request", d)
		}
	}
	if g := res.goodput(time.Hour); g > 0.51 {
		t.Errorf("goodput %.2f with half the requests failed, want at most 0.5", g)
	}
}

// A run whose operations all return errors is not correct, even when no
// answer was checked as wrong.
func TestFailedOperationsFailTheRun(t *testing.T) {
	cfg := &config{workload: "fake", seed: 1, seconds: 1, gomaxprocs: 1}
	if code := benchmark(cfg, fakeRun(10, 10, false)); code == 0 {
		t.Error("a run in which every operation failed exited 0")
	}
	if code := benchmark(cfg, fakeRun(10, 0, false)); code != 0 {
		t.Errorf("a run with no failures exited %d", code)
	}
}

// fakeRun is a workload that reports every end-to-end metric, or all but
// one, after counting its operations.
func fakeRun(attempted, failed int, dropOne bool) func(*config, *tracer) (*outcome, error) {
	return func(*config, *tracer) (*outcome, error) {
		o := newOutcome()
		o.count(attempted, failed, 0)
		for _, m := range endToEnd[:len(endToEnd)-1] {
			if !dropOne || m.name != "setup_s" {
				o.add(m.name, "", m.unit, 1)
			}
		}
		o.finish()
		return o, nil
	}
}

// Every workload must report every end-to-end metric; a result that lacks
// one fails the run instead of printing a line the contract refuses.
func TestMissingMetricFailsTheRun(t *testing.T) {
	cfg := &config{workload: "fake", seed: 1, seconds: 1, gomaxprocs: 1}
	if code := benchmark(cfg, fakeRun(10, 0, true)); code == 0 {
		t.Error("a run that did not report setup_s exited 0")
	}
	got, zero, err := resultMetrics(perLayer, []metric{{name: "core.vertices", unit: "count", value: 7}}, true)
	if err != nil || len(got) != len(perLayer) || len(zero) != len(perLayer)-1 {
		t.Fatalf("per-layer result: %d metrics, %d zero, err %v", len(got), len(zero), err)
	}
	if _, _, err := resultMetrics(endToEnd, []metric{{name: "setup_s", unit: "ms"}}, false); err == nil {
		t.Error("setup_s in ms was accepted")
	}
}

// The metric lists the program reports are BENCHMARK.json's, name for name
// and unit for unit, in its order.
func TestMetricsMatchManifest(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no manifest beside the benchmark: %v", err)
	}
	var manifest struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, specs []metricSpec, listed []struct{ Name, Unit string }) {
		if len(specs) != len(listed) {
			t.Errorf("%s: the program has %d metrics, the manifest %d", kind, len(specs), len(listed))
		}
		for i := range min(len(specs), len(listed)) {
			if specs[i].name != listed[i].Name || specs[i].unit != listed[i].Unit {
				t.Errorf("%s %d: program %v, manifest %v", kind, i, specs[i], listed[i])
			}
		}
	}
	check("end_to_end", endToEnd, manifest.EndToEnd)
	check("per_layer", perLayer, manifest.PerLayer)
}

// heapPeak sees a transient allocation that is garbage by the time it stops.
func TestHeapPeakSeesTransientAllocation(t *testing.T) {
	peak := startHeapPeak()
	buf := make([]byte, 32<<20)
	for i := range buf {
		buf[i] = byte(i)
	}
	time.Sleep(10 * heapSampleEvery)
	sink = buf
	sink = nil
	runtime.GC()
	if mb := peak.stopMB().Q(100); mb < 32 {
		t.Errorf("peak %.1f MiB, want at least the 32 MiB allocated", mb)
	}
}

var sink []byte
