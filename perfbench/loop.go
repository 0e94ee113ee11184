package main

import (
	"runtime"
	"sync"
	"time"
)

// loopResult is what a load loop measured, per request in send order.
type loopResult struct {
	// lat is each request's latency. In an open loop it is timed from the
	// request's due time, so a stall shows up as latency on every request
	// queued behind it.
	lat []time.Duration
	// late is how far behind its due time the open-loop generator sent each
	// request (empty for a closed loop).
	late []time.Duration
	// failed[i] reports that request i's send returned an error.
	failed  []bool
	elapsed time.Duration
}

// answered is the latency of every request that returned without an
// error. Latency figures leave failed requests out, since one that fails
// fast would otherwise lower them; goodput counts them as over the limit.
func (res loopResult) answered() []time.Duration {
	var out []time.Duration
	for i, d := range res.lat {
		if !res.failed[i] {
			out = append(out, d)
		}
	}
	return out
}

// goodput is the share of requests answered without an error within limit.
func (res loopResult) goodput(limit time.Duration) float64 {
	good := 0
	for _, d := range res.answered() {
		if d <= limit {
			good++
		}
	}
	return float64(good) / float64(max(len(res.lat), 1))
}

// merge appends other's requests to res.
func (res *loopResult) merge(other loopResult) {
	res.lat = append(res.lat, other.lat...)
	res.late = append(res.late, other.late...)
	res.failed = append(res.failed, other.failed...)
	res.elapsed += other.elapsed
}

// A measured window is cut into measureRounds rounds. Each round spends
// latencyShare of its time on a latency segment and the rest on a
// closed-loop capacity segment with nproc clients, so both figures sample
// the whole window and a slow spell of the host moves a part of each.
const (
	measureRounds = 6
	latencyShare  = 0.7
)

// spinWindow is how long before a due time the open loop stops sleeping
// and yields in a loop instead: the timer's wake-up overshoot would
// otherwise be counted as latency.
const spinWindow = 200 * time.Microsecond

// sender issues request i, due at due, and returns when its answer
// arrived. Work it does after that instant, such as checking the answer,
// is not part of the request's latency.
type sender func(i int, due time.Time) (time.Time, error)

// openLoop sends request i at start + i/rate from the calling goroutine
// until window has elapsed. A request that is still running when the next
// one falls due delays it; that wait is part of the next request's latency.
func openLoop(rate float64, window time.Duration, send sender) loopResult {
	var res loopResult
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	for i := 0; ; i++ {
		offset := time.Duration(i) * interval
		if offset >= window {
			break
		}
		due := start.Add(offset)
		if d := time.Until(due) - spinWindow; d > 0 {
			time.Sleep(d)
		}
		for time.Now().Before(due) {
			runtime.Gosched()
		}
		sent := time.Now()
		done, err := send(i, due)
		res.late = append(res.late, sent.Sub(due))
		res.lat = append(res.lat, done.Sub(due))
		res.failed = append(res.failed, err != nil)
	}
	res.elapsed = time.Since(start)
	return res
}

// closedLoop runs clients goroutines that each send their next request as
// soon as the previous one returns, until window has elapsed. Request
// numbers are shared, so the sequence is the same whatever the timing.
func closedLoop(clients int, window time.Duration, send sender) loopResult {
	var (
		mu   sync.Mutex
		res  loopResult
		next int
		wg   sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(window)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				t := time.Now()
				done, err := send(i, t)
				mu.Lock()
				res.lat = append(res.lat, done.Sub(t))
				res.failed = append(res.failed, err != nil)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// querySeq is the request stream of the serving workloads, drawn from a
// seed: request i is a named query (index < len(freqs)), picked in
// proportion to its frequency, with probability namedShare, and otherwise
// one of adhoc ad-hoc variants (index len(freqs)+k), drawn uniformly.
// Request i depends only on the seed and i, so concurrent clients and
// timing never change the sequence.
type querySeq struct {
	seed       uint64
	freqs      []float64
	total      float64
	namedShare float64
	adhoc      int
}

func newQuerySeq(seed int64, freqs []float64, namedShare float64, adhoc int) querySeq {
	q := querySeq{seed: uint64(seed), freqs: freqs, namedShare: namedShare, adhoc: adhoc}
	for _, f := range freqs {
		q.total += f
	}
	return q
}

// splitmix64 is a 64-bit mixing function (Steele, Lea and Flood, 2014).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps a hash to [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

func (q querySeq) at(i int) int {
	h := splitmix64(q.seed*0x100000001b3 + uint64(i))
	if unit(h) >= q.namedShare {
		return len(q.freqs) + int(splitmix64(h)%uint64(q.adhoc))
	}
	x := unit(splitmix64(h^0x5bd1e995)) * q.total
	k := 0
	for k < len(q.freqs)-1 && x >= q.freqs[k] {
		x -= q.freqs[k]
		k++
	}
	return k
}
