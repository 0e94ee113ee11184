package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	mvpp "github.com/warehousekit/mvpp"
	"github.com/warehousekit/mvpp/internal/obs"
)

// design-star parameters.
const (
	starDims         = 10
	starQueries      = 32
	starSetupBatches = 45
	starSetupBatch   = 200
	// starSets is how many query sets one run designs in rotation. The
	// design of a single set depends on which subexpressions its queries
	// happen to share; averaging over forty-eight keeps a run's figures from
	// depending on the seed.
	starSets = 48
)

// designSignature identifies what a design chose: its views and their
// definitions, and its §4.1 total cost.
func designSignature(d *mvpp.Design) string {
	var views []string
	for _, v := range d.Views() {
		views = append(views, v.Name+"="+v.Definition)
	}
	sort.Strings(views)
	return fmt.Sprintf("%s|%.6f", strings.Join(views, ";"), d.Costs().TotalCost)
}

// designOp is one operation of the batch design job: bind every query and
// run Design. With a tracer it records a root span, one sqlparse.bind span
// per AddQuery, and the designer's own pipeline stages through obsSpan.
func designOp(cat *mvpp.Catalog, s *schema, tr *tracer, reg *obs.Registry) (*mvpp.Design, error) {
	op := tr.newOp()
	root := tr.begin("design.op", 0, op)
	defer tr.end(root)
	opts := mvpp.Options{}
	if tr != nil {
		opts.Observer = &obsSpan{t: tr, id: root, op: op, reg: reg}
	}
	d := mvpp.NewDesigner(cat, opts)
	for _, q := range s.queries {
		err := tr.around("sqlparse.bind", root, op, func() error { return d.AddQuery(q.Name, q.SQL, q.Frequency) })
		if err != nil {
			return nil, err
		}
	}
	return d.Design()
}

// runDesignStar runs the batch design job on a seeded star schema for the
// configured window, checking that every operation chooses the same views
// at the same cost.
func runDesignStar(cfg *config, tr *tracer) (*outcome, error) {
	out := newOutcome()
	out.params["dims"], out.params["queries"], out.params["zipf_s"] = starDims, starQueries, 1.0

	out.params["query_sets"] = starSets
	var sets []*schema
	for k := 0; k < starSets; k++ {
		sets = append(sets, starSchema(starDims, starQueries, cfg.seed*starSets+int64(k)))
	}
	// The program's set-up for a design job is the catalog build. One
	// build takes microseconds, so it is timed in batches and setup_s is
	// the median batch's time per build.
	var setups []float64
	var cat *mvpp.Catalog
	for i := 0; i < starSetupBatches; i++ {
		runtime.GC()
		t := time.Now()
		for j := 0; j < starSetupBatch; j++ {
			c, err := sets[0].publicCatalog()
			if err != nil {
				return nil, fmt.Errorf("star catalog: %w", err)
			}
			cat = c
		}
		setups = append(setups, time.Since(t).Seconds()/starSetupBatch)
	}

	// Design every set once before timing; the first design of a set is
	// the one later designs of it must reproduce.
	want := make([]string, starSets)
	costs := make([]float64, starSets)
	var last *mvpp.Design
	for k, s := range sets {
		d, err := designOp(cat, s, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("design of query set %d: %w", k, err)
		}
		want[k], costs[k], last = designSignature(d), d.Costs().TotalCost, d
	}

	reg := obs.NewRegistry()
	// design runs operation i: it designs query set i mod starSets and
	// checks the result against that set's first design. The capacity
	// segments run it on several goroutines at once.
	design := func(i int, _ time.Time) (time.Time, error) {
		k := i % starSets
		d, err := designOp(cat, sets[k], tr, reg)
		done := time.Now()
		if err != nil {
			out.count(1, 1, 0)
			out.notef("design failed: %v", err)
			return done, err
		}
		out.count(1, 0, 0)
		if sig := designSignature(d); sig != want[k] {
			out.count(0, 0, 1)
			out.notef("design %d of query set %d chose a different design: %s", i, k, sig)
		}
		return done, nil
	}
	from := func(base int) sender {
		return func(i int, due time.Time) (time.Time, error) { return design(base+i, due) }
	}

	// The window is measured in rounds, each a latency segment with one
	// client followed by a capacity segment with nproc clients, as on the
	// serving workloads. A capacity segment holds a dozen designs or more
	// and is not cut into slices.
	roundWin := cfg.window() / measureRounds
	latWin := time.Duration(latencyShare * float64(roundWin))
	var lat []time.Duration
	var caps []float64
	next := 0
	peak := startHeapPeak()
	for r := 0; r < measureRounds; r++ {
		seg := closedLoop(1, latWin, from(next))
		next += len(seg.lat)
		lat = append(lat, seg.answered()...)
		c := closedLoop(runtime.NumCPU(), roundWin-latWin, from(next))
		next += len(c.lat)
		caps = append(caps, float64(len(c.answered()))/c.elapsed.Seconds())
	}
	heap := peak.stopMB()

	ld := newDist(durationsMS(lat))
	out.notef("capacity per round, designs/s: %.2f", caps)
	out.add("setup_s", "", "s", newDist(setups).Q(50))
	out.add("latency_p50_ms", "design_p50_ms", "ms", ld.Q(50))
	out.add("latency_p75_ms", "design_p75_ms", "ms", ld.Q(75))
	out.show("design_p90_ms", "ms", out.tail("design_p90_ms", ld, 90))
	out.add("capacity_per_s", "designs/s", "1/s", newDist(caps).MidMean())
	out.add("design_cost_blocks", "", "blocks", newDist(costs).Mean())
	out.addHeap(heap)
	out.finish()

	if tr != nil {
		// Times are wall time within one design. Generation runs the
		// Figure-9 selection on every candidate, concurrently across
		// rotations, so core.generate_ms includes the wall time
		// core.select_ms reports.
		spans := tr.snapshot()
		queries := float64(next * starQueries)
		out.layer("sqlparse.bind_us", "us", meanDur(spans, "sqlparse.bind"))
		out.layer("optimizer.optimize_us", "us", meanDur(spans, "optimize.query"))
		out.layer("optimizer.plans_enumerated", "count", float64(reg.Counter(obs.CtrPlansEnumerated).Value())/queries)
		out.layer("core.generate_ms", "ms", wallPerOp(spans, "generate")/1e3)
		out.layer("core.select_ms", "ms", wallPerOp(spans, "select")/1e3)
		out.layer("core.evaluate_ms", "ms", wallPerOp(spans, "evaluate")/1e3)
		out.layer("core.candidates", "count", float64(last.Candidates()))
		out.layer("core.vertices", "count", float64(len(last.VertexNames())))
		out.stageRoots = map[string]bool{"design.op": true}
		out.stages = map[string]bool{"sqlparse.bind": true, "optimize": true, "generate": true, "evaluate": true}
	}
	return out, nil
}
