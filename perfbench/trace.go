package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/warehousekit/mvpp/internal/obs"
)

// span is one timed region of a traced operation. Spans of one operation
// share Op; Parent is 0 for the operation's root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps every span in memory until the run ends. A nil *tracer is
// the untraced run: every method is a no-op.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	nextOp int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newOp allocates an operation ID.
func (t *tracer) newOp() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextOp++
	return t.nextOp
}

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent, op int64) int64 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: int64(len(t.spans) + 1), Parent: parent, Op: op, Name: name, Start: now})
	return int64(len(t.spans))
}

// end closes span id; closing twice keeps the first end.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := &t.spans[id-1]; s.End == 0 {
		s.End = now
	}
}

// around runs f inside a span.
func (t *tracer) around(name string, parent, op int64, f func() error) error {
	id := t.begin(name, parent, op)
	err := f()
	t.end(id)
	return err
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// obsSpan lets the program's existing instrumentation points (the
// Observer hooks the designer already calls) record into the tracer, so
// the traced run sees the design pipeline's stages without a span being
// added to the program.
type obsSpan struct {
	t   *tracer
	id  int64
	op  int64
	reg *obs.Registry
}

func (s *obsSpan) StartSpan(name string, _ ...obs.Attr) obs.Span {
	return &obsSpan{t: s.t, id: s.t.begin(name, s.id, s.op), op: s.op, reg: s.reg}
}
func (s *obsSpan) Event(obs.EventKind, ...obs.Attr) {}
func (s *obsSpan) Metrics() *obs.Registry           { return s.reg }
func (s *obsSpan) Annotate(...obs.Attr)             {}
func (s *obsSpan) End()                             { s.t.end(s.id) }

// selfTimes returns each span's duration minus the part of it that its
// children cover (children may overlap when they run in parallel).
func selfTimes(spans []span) map[int64]int64 {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered is the length of [lo, hi) that the union of spans covers.
func covered(lo, hi int64, spans []span) int64 {
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	return total + curHi - curLo
}

// Stage-sum tolerance. A checked operation's stage spans must cover its
// root span to within stageTolShare of the root plus stageTolAbs (the
// benchmark's own code between stages). Of each kind of operation (root
// span name), at most stageTolOps may miss that: on a shared host the
// benchmark's goroutine is sometimes descheduled for a millisecond or more
// between two stages, which leaves a gap no stage could cover, while a
// stage left untraced would open a gap in every operation of its kind.
// Across all checked operations the uncovered time must stay within
// stageTolTotal of the roots' total.
const (
	stageTolShare = 0.10
	stageTolAbs   = time.Millisecond
	stageTolOps   = 0.01
	stageTolTotal = 0.05
)

// stageResult is the outcome of the stage-sum check.
type stageResult struct {
	// bad counts the operations outside the per-operation tolerance, and
	// badKinds the operation kinds where they exceed stageTolOps.
	checked, bad, badKinds int
	// worst is the largest uncovered share of one operation; total is the
	// uncovered share of all checked operations together.
	worst, total float64
}

func (r stageResult) ok() bool { return r.checked > 0 && r.badKinds == 0 && r.total <= stageTolTotal }

// stageCheck compares, for every operation whose root span is named in
// roots, the root's duration with the time its stage spans (names in
// stages) cover.
func stageCheck(spans []span, roots, stages map[string]bool) stageResult {
	byOp := make(map[int64][]span)
	for _, s := range spans {
		byOp[s.Op] = append(byOp[s.Op], s)
	}
	var res stageResult
	var gaps, durs int64
	checked, bad := map[string]int{}, map[string]int{}
	for _, ops := range byOp {
		var root *span
		var st []span
		for i := range ops {
			if ops[i].Parent == 0 && roots[ops[i].Name] {
				root = &ops[i]
			} else if stages[ops[i].Name] {
				st = append(st, ops[i])
			}
		}
		if root == nil || len(st) == 0 {
			continue
		}
		res.checked++
		checked[root.Name]++
		gap := root.dur() - covered(root.Start, root.End, st)
		gaps += gap
		durs += root.dur()
		res.worst = max(res.worst, float64(gap)/float64(max(root.dur(), 1)))
		if float64(gap) > stageTolShare*float64(root.dur())+float64(stageTolAbs) {
			res.bad++
			bad[root.Name]++
		}
	}
	for name, n := range bad {
		if float64(n) > stageTolOps*float64(checked[name]) {
			res.badKinds++
		}
	}
	res.total = float64(gaps) / float64(max(durs, 1))
	return res
}

// layerRow is one line of the self-time table.
type layerRow struct {
	name       string
	count      int
	selfTotal  int64
	meanSelfUS float64
}

// selfTable sums self time per span name.
func selfTable(spans []span) []layerRow {
	self := selfTimes(spans)
	rows := make(map[string]*layerRow)
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{name: s.Name}
			rows[s.Name] = r
		}
		r.count++
		r.selfTotal += self[s.ID]
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		r.meanSelfUS = float64(r.selfTotal) / float64(r.count) / 1e3
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].selfTotal > out[j].selfTotal })
	return out
}

// meanSelf is the mean self time in microseconds of the spans named name.
func meanSelf(table []layerRow, name string) float64 {
	for _, r := range table {
		if r.name == name {
			return r.meanSelfUS
		}
	}
	return 0
}

// meanDur is the mean duration in microseconds of the spans named name.
func meanDur(spans []span, name string) float64 {
	var total int64
	n := 0
	for _, s := range spans {
		if s.Name == name {
			total += s.dur()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n) / 1e3
}

// countSpans counts the spans named name.
func countSpans(spans []span, name string) int {
	n := 0
	for _, s := range spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

// wallPerOp returns the mean over operations of the wall time during
// which at least one span named name was open, in microseconds. Spans that
// run in parallel (the designer's rotations) count once.
func wallPerOp(spans []span, name string) float64 {
	byOp := make(map[int64][]span)
	for _, s := range spans {
		if s.Name == name {
			byOp[s.Op] = append(byOp[s.Op], s)
		}
	}
	if len(byOp) == 0 {
		return 0
	}
	var total int64
	for _, ss := range byOp {
		lo, hi := ss[0].Start, ss[0].End
		for _, s := range ss {
			lo, hi = min(lo, s.Start), max(hi, s.End)
		}
		total += covered(lo, hi, ss)
	}
	return float64(total) / float64(len(byOp)) / 1e3
}

func writeSelfTable(w io.Writer, workload string, table []layerRow) {
	var all int64
	for _, r := range table {
		all += r.selfTotal
	}
	fmt.Fprintf(w, "self time by span, workload %s\n", workload)
	fmt.Fprintf(w, "  %-28s %8s %12s %12s %7s\n", "span", "count", "self_ms", "mean_self_us", "share")
	for _, r := range table {
		fmt.Fprintf(w, "  %-28s %8d %12.3f %12.1f %6.1f%%\n", r.name, r.count,
			float64(r.selfTotal)/1e6, r.meanSelfUS, 100*float64(r.selfTotal)/float64(max(all, 1)))
	}
}

// writeTraceFiles writes the span file (one JSON span per line) and the
// self-time table under dir.
func writeTraceFiles(dir, base, workload string, spans []span, table []layerRow) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(dir + "/" + base + ".spans.jsonl")
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	var sb strings.Builder
	writeSelfTable(&sb, workload, table)
	return os.WriteFile(dir+"/"+base+".selftime.txt", []byte(sb.String()), 0o644)
}
