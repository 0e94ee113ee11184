package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	mvpp "github.com/warehousekit/mvpp"
	"github.com/warehousekit/mvpp/internal/obs"
	"github.com/warehousekit/mvpp/internal/serve"
)

// Serving-workload parameters.
const (
	// serveScale sizes the Table-1 warehouse (3,000 products, 5,000 orders,
	// 8,000 parts, ...).
	serveScale = 0.1
	// designDelta is the per-epoch insert fraction the design prices
	// incremental maintenance with (Options.Delta).
	designDelta = 0.01
	// writeFraction is the StreamDeltas fraction of one write: 19 rows
	// across the five tables at serveScale.
	writeFraction = 0.001
	// namedShare is the share of requests that are the named queries
	// Q1–Q4; the rest are ad-hoc variants.
	namedShare     = 0.15
	serveSetupReps = 15
	warmupQueries  = 1500
	warmupWrites   = 2 * checkpointEvery
	restartReps    = 25
	// restartGap spreads the reopens over more than a second, so a short
	// stall of the host moves a few of them and not their median.
	restartGap = 50 * time.Millisecond
	// capacitySlices is how many closed-loop slices each round's capacity
	// segment is cut into.
	capacitySlices  = 8
	replayEvery     = 8
	checkpointEvery = 8 // the server's default SnapshotEveryEpochs
	checkedAdhoc    = 48
)

// servingRun holds one serving pass's inputs and server.
type servingRun struct {
	cfg *config
	// dir holds this pass's warehouses, reference snapshot and replica.
	dir    string
	tr     *tracer
	mixed  bool
	s      *schema
	design *mvpp.Design
	srv    *mvpp.Server
	opts   mvpp.ServeOptions
	texts  []string
	freqs  []float64
	out    *outcome
	// Measured by finishMixed for the traced pass.
	recoverMS, bytesPerUserByte float64
}

func (r *servingRun) nameOf(idx int) string {
	if idx < len(r.s.queries) {
		return r.s.queries[idx].Name
	}
	return ""
}

// ask sends request idx (a named query or an ad-hoc text) to srv.
func (r *servingRun) ask(srv *mvpp.Server, idx int) (*mvpp.QueryResult, error) {
	if idx < len(r.s.queries) {
		return srv.Query(context.Background(), r.s.queries[idx].Name)
	}
	return srv.QuerySQL(context.Background(), r.texts[idx])
}

// designWarehouse designs the Table-1 workload with incremental
// maintenance priced in. An observer, when given, receives the designer's
// pipeline stages.
func (r *servingRun) designWarehouse(observer mvpp.Observer) (*mvpp.Design, error) {
	cat, err := r.s.publicCatalog()
	if err != nil {
		return nil, err
	}
	d := mvpp.NewDesigner(cat, mvpp.Options{Delta: &mvpp.DeltaOptions{DefaultFraction: designDelta}, Observer: observer})
	for _, q := range r.s.queries {
		if err := d.AddQuery(q.Name, q.SQL, q.Frequency); err != nil {
			return nil, err
		}
	}
	return d.Design()
}

// setup builds the warehouse: catalog, design, data generation, view
// materialization and, for serve-mixed, journal and snapshot store.
func (r *servingRun) setup(dir string) error {
	r.s = table1Schema()
	var err error
	if r.design, err = r.designWarehouse(nil); err != nil {
		return err
	}
	r.opts = mvpp.ServeOptions{Scale: serveScale, Seed: r.cfg.seed}
	if r.mixed {
		r.opts.JournalPath = filepath.Join(dir, "deltas.journal")
		r.opts.SnapshotDir = filepath.Join(dir, "snapshots")
	}
	r.srv, err = r.design.NewServer(r.opts)
	return err
}

// referenceDir checkpoints a second server built from the same design and
// seed and returns its snapshot directory: the seeded base data the oracle
// and the replica start from.
func (r *servingRun) referenceDir() (string, error) {
	dir := filepath.Join(r.dir, "reference")
	srv, err := r.design.NewServer(mvpp.ServeOptions{Scale: serveScale, Seed: r.cfg.seed, SnapshotDir: dir})
	if err != nil {
		return "", err
	}
	_, err = srv.Checkpoint()
	if cerr := srv.Close(); err == nil {
		err = cerr
	}
	return dir, err
}

func runServeRead(cfg *config, tr *tracer) (*outcome, error)  { return runServing(cfg, tr, false) }
func runServeMixed(cfg *config, tr *tracer) (*outcome, error) { return runServing(cfg, tr, true) }

func runServing(cfg *config, tr *tracer, mixed bool) (*outcome, error) {
	dir, err := os.MkdirTemp(cfg.workDir, "pass-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &servingRun{cfg: cfg, dir: dir, tr: tr, mixed: mixed, out: newOutcome()}
	out := r.out
	out.params["scale"], out.params["named_share"], out.params["cache_capacity"] = serveScale, namedShare, serve.DefaultCacheCapacity
	out.params["query_rate"], out.params["query_limit_ms"] = cfg.queryRate, float64(cfg.queryLimit)/1e6
	if mixed {
		out.params["write_rate"], out.params["write_fraction"] = cfg.writeRate, writeFraction
	}

	var setups []float64
	for i := 0; i < serveSetupReps; i++ {
		dir := filepath.Join(r.dir, fmt.Sprintf("warehouse-%d", i))
		// Each set-up starts from a collected heap, so the garbage of the
		// one before does not land in its time.
		runtime.GC()
		t := time.Now()
		if err := r.setup(dir); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
		if i < serveSetupReps-1 {
			if err := r.srv.Close(); err != nil {
				return nil, err
			}
			os.RemoveAll(dir)
		}
	}
	// finishMixed swaps r.srv for the restarted servers; close the last one.
	defer func() { r.srv.Close() }()
	if tr != nil {
		// The set-up's design step, replayed under the tracer for the core
		// layer. The server's own design has no Observer, because
		// NewServer would hand it on to the serving layer.
		reg := obs.NewRegistry()
		for i := 0; i < serveSetupReps; i++ {
			op := tr.newOp()
			root := tr.begin("replay.design", 0, op)
			_, err := r.designWarehouse(&obsSpan{t: tr, id: root, op: op, reg: reg})
			tr.end(root)
			if err != nil {
				return nil, fmt.Errorf("replayed design: %w", err)
			}
		}
	}

	r.texts = make([]string, 0, len(r.s.queries))
	for _, q := range r.s.queries {
		r.texts = append(r.texts, q.SQL)
		r.freqs = append(r.freqs, q.Frequency)
	}
	adhoc := adhocDomain()
	r.texts = append(r.texts, adhoc...)
	out.params["adhoc_domain"] = len(adhoc)

	refDir, err := r.referenceDir()
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	icat, err := r.s.internalCatalog()
	if err != nil {
		return nil, err
	}
	refDB, err := loadBaseDB(refDir)
	if err != nil {
		return nil, err
	}
	initialRows, err := baseRows(refDB)
	if err != nil {
		return nil, err
	}
	var want []fingerprint
	if !mixed {
		// Every reply of serve-read is checked against the base-relation
		// answer to its text over the same seeded data.
		orc := newOracle(icat, refDB)
		want = make([]fingerprint, len(r.texts))
		for i, sql := range r.texts {
			if want[i], err = orc.answer(sql); err != nil {
				return nil, fmt.Errorf("oracle: %w", err)
			}
		}
	}

	// Warm up: two checkpoint periods of writes on serve-mixed (the first
	// epochs and checkpoints grow the journal and snapshot files), then
	// enough queries to fill the result cache.
	w := &writer{r: r}
	for i := 0; mixed && i < warmupWrites; i++ {
		if _, err := w.cycle(i, time.Now()); err != nil {
			return nil, fmt.Errorf("warm-up write: %w", err)
		}
	}
	warm := newQuerySeq(cfg.seed+1, r.freqs, namedShare, len(adhoc))
	for i := 0; i < warmupQueries; i++ {
		if _, err := r.ask(r.srv, warm.at(i)); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}

	seq := newQuerySeq(cfg.seed, r.freqs, namedShare, len(adhoc))
	// mu guards what the query clients record for the traced pass.
	var mu sync.Mutex
	var sampled []int
	var hitSpans, missSpans []float64
	query := func(i int, _ time.Time) (time.Time, error) {
		idx := seq.at(i)
		op := r.tr.newOp()
		root := r.tr.begin("serve.query", 0, op)
		t := time.Now()
		res, err := r.ask(r.srv, idx)
		done := time.Now()
		r.tr.end(root)
		if err != nil {
			out.count(1, 1, 0)
			return done, err
		}
		out.count(1, 0, 0)
		if r.tr != nil {
			mu.Lock()
			if res.Cached {
				hitSpans = append(hitSpans, float64(done.Sub(t))/1e3)
			} else {
				missSpans = append(missSpans, float64(done.Sub(t))/1e3)
			}
			if i%replayEvery == 0 {
				sampled = append(sampled, idx)
			}
			mu.Unlock()
		}
		if want != nil {
			if got := resultFingerprint(res); got != want[idx] {
				out.count(0, 0, 1)
				out.notef("reply to %.50q: %v, want %v", r.texts[idx], got, want[idx])
			}
		}
		return done, nil
	}

	// The window is measured in measureRounds rounds, each an open-loop
	// segment followed by a closed-loop capacity segment with nproc clients
	// in total; on serve-mixed one client is the writer, which keeps its
	// fixed rate through the whole window. Latency figures pool the
	// open-loop requests of every round. Capacity is the mid-mean over short
	// slices of the closed-loop segments, so a burst of load from outside
	// the benchmark moves a few slices and not the result.
	roundWin := cfg.window() / measureRounds
	openWin := time.Duration(latencyShare * float64(roundWin))
	sliceWin := (roundWin - openWin) / capacitySlices
	clients := runtime.NumCPU()
	if mixed {
		clients = max(clients-1, 1)
	}
	var open loopResult
	// openSegs are the open-loop segments' spans of time. Latency figures,
	// the writer's too, come from these segments; the capacity segments
	// load the host to saturation and measure throughput only.
	var openSegs [][2]time.Time
	var p99s, roundCaps, caps []float64
	var hits, queries int64
	measure := func() {
		next := 0
		from := func(base int) sender {
			return func(i int, due time.Time) (time.Time, error) { return query(base+i, due) }
		}
		for k := 0; k < measureRounds; k++ {
			before := r.srv.Stats()
			segStart := time.Now()
			round := openLoop(cfg.queryRate, openWin, from(next))
			openSegs = append(openSegs, [2]time.Time{segStart, time.Now()})
			next += len(round.lat)
			after := r.srv.Stats()
			hits += after.CacheHits - before.CacheHits
			queries += after.Queries - before.Queries
			open.merge(round)
			p99s = append(p99s, newDist(durationsMS(round.answered())).Q(99))
			var slices []float64
			for j := 0; j < capacitySlices; j++ {
				c := closedLoop(clients, sliceWin, from(next))
				next += len(c.lat)
				slices = append(slices, float64(len(c.answered()))/c.elapsed.Seconds())
			}
			caps = append(caps, slices...)
			roundCaps = append(roundCaps, newDist(slices).Q(50))
		}
	}

	w.cycles = nil
	before := r.srv.Stats()
	peak := startHeapPeak()
	if mixed {
		w.run(cfg.writeRate, cfg.window(), measure)
	} else {
		measure()
	}
	heap := peak.stopMB()
	after := r.srv.Stats()

	lat := newDist(durationsMS(open.answered()))
	out.notef("per round: query_p99_ms %.3f, query_capacity_qps %.0f", p99s, roundCaps)
	out.add("setup_s", "", "s", newDist(setups).Q(50))
	// The query p99 is printed but not reported. On a 2-vCPU host shared
	// with other tenants, its interquartile range over ten seeds was
	// 0.5–0.6 of the median on serve-read, and 0.3–1.1 on serve-mixed,
	// where it also climbs within a run (from about 2 ms in the first round
	// to 5–14 ms in the last). Both are wider than the largest regression
	// bound the benchmark allows (0.25). query_goodput, the share within
	// --query-limit-ms, is printed beside it.
	if !lat.Supports(99) {
		out.notef("query_p99_ms rests on %d samples", lat.N())
	}
	queryP90 := out.tail("query_p90_ms", lat, 90)
	if mixed {
		// serve-mixed's latency is the writer's: how long a write takes to
		// become visible. Its queries' latency is printed beside it.
		acks, freshes := w.during(openSegs)
		out.notef("writer cycles: %d, %d of them due in open-loop segments", len(w.cycles), len(freshes))
		fresh := newDist(durationsMS(freshes))
		out.add("latency_p50_ms", "freshness_p50_ms", "ms", fresh.Q(50))
		out.add("latency_p75_ms", "freshness_p75_ms", "ms", fresh.Q(75))
		out.show("freshness_p90_ms", "ms", out.tail("freshness_p90_ms", fresh, 90))
		ack := newDist(durationsMS(acks))
		out.show("ingest_ack_p50_ms", "ms", ack.Q(50))
		out.show("ingest_ack_p90_ms", "ms", out.tail("ingest_ack_p90_ms", ack, 90))
		out.show("query_p50_ms", "ms", lat.Q(50))
		out.show("query_p75_ms", "ms", lat.Q(75))
	} else {
		out.add("latency_p50_ms", "query_p50_ms", "ms", lat.Q(50))
		out.add("latency_p75_ms", "query_p75_ms", "ms", lat.Q(75))
	}
	out.show("query_p90_ms", "ms", queryP90)
	out.show("query_p99_ms", "ms", lat.Q(99))
	out.show("query_goodput", "fraction", open.goodput(cfg.queryLimit))
	out.add("capacity_per_s", "query_capacity_qps", "1/s", newDist(caps).MidMean())
	out.add("design_cost_blocks", "", "blocks", r.design.Costs().TotalCost)
	if mixed {
		restart, err := r.finishMixed(initialRows + w.acked)
		if err != nil {
			return nil, err
		}
		out.show("restart_s", "s", restart)
	}
	out.addHeap(heap)
	out.finish()

	if r.tr == nil {
		return out, nil
	}
	// Per-layer metrics: counters read around the phases, outer spans, and
	// a replay of the sampled operations on the replica.
	out.layer("serve.cache_hit_rate", "fraction", float64(hits)/float64(queries))
	out.layer("serve.submit_hit_us", "us", newDist(hitSpans).Q(50))
	out.layer("serve.submit_miss_us", "us", newDist(missSpans).Q(50))
	out.layer("serve.backpressured_ratio", "fraction", float64(after.Backpressured-before.Backpressured)/float64(after.Queries-before.Queries))
	out.layer("harness.late_p99_ms", "ms", newDist(durationsMS(open.late)).Q(99))
	if mixed {
		epochs := float64(after.Epochs - before.Epochs)
		refreshes := float64(after.IncrementalRefreshes - before.IncrementalRefreshes)
		out.layer("serve.epoch_ms", "ms", meanDur(r.tr.snapshot(), "serve.flush")/1e3)
		out.layer("serve.rows_per_group_commit", "rows", float64(after.StreamRows-before.StreamRows)/float64(after.StreamGroups-before.StreamGroups))
		out.layer("serve.incremental_refresh_ratio", "fraction", refreshes/(refreshes+float64(after.Recomputes-before.Recomputes)))
		out.layer("engine.refresh_blocks_per_epoch", "blocks", float64(after.RefreshReads-before.RefreshReads+after.RefreshWrites-before.RefreshWrites)/epochs)
		out.layer("snapshot.checkpoint_ms", "ms", newDist(w.checkpointMS).Mean())
	}

	rep, err := newReplica(r.s, r.design, refDir, r.dir, serveScale, cfg.seed)
	if err != nil {
		return nil, err
	}
	defer rep.Close()
	var reads int64
	for _, idx := range sampled {
		n, err := rep.query(r.tr, r.nameOf(idx), r.texts[idx])
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		reads += n
	}
	if mixed {
		for i := 0; i < max(len(w.cycles)/4, checkpointEvery); i++ {
			if err := rep.write(r.tr, checkpointEvery); err != nil {
				return nil, fmt.Errorf("replay write: %w", err)
			}
		}
	}
	spans := r.tr.snapshot()
	table := selfTable(spans)
	out.layer("core.generate_ms", "ms", wallPerOp(spans, "generate")/1e3)
	out.layer("core.select_ms", "ms", wallPerOp(spans, "select")/1e3)
	out.layer("core.evaluate_ms", "ms", wallPerOp(spans, "evaluate")/1e3)
	out.layer("core.candidates", "count", float64(r.design.Candidates()))
	out.layer("core.vertices", "count", float64(len(r.design.VertexNames())))
	out.layer("sqlparse.bind_us", "us", meanSelf(table, "sqlparse.bind"))
	out.layer("optimizer.optimize_us", "us", meanSelf(table, "optimizer.optimize"))
	out.layer("optimizer.plans_enumerated", "count", float64(rep.reg.Counter(obs.CtrPlansEnumerated).Value())/float64(max(countSpans(spans, "optimizer.optimize"), 1)))
	out.layer("engine.rewrite_us", "us", meanSelf(table, "engine.rewrite"))
	out.layer("engine.execute_us", "us", meanSelf(table, "engine.execute"))
	out.layer("engine.blocks_read_per_query", "blocks", float64(reads)/float64(max(len(sampled), 1)))
	out.stageRoots = map[string]bool{"replay.query": true}
	out.stages = map[string]bool{"sqlparse.bind": true, "optimizer.optimize": true, "engine.rewrite": true, "engine.execute": true}
	if mixed {
		out.layer("engine.journal_append_us", "us", meanSelf(table, "engine.journal_append"))
		out.layer("engine.apply_deltas_ms", "ms", meanSelf(table, "engine.apply_deltas")/1e3)
		out.layer("engine.incremental_refresh_ms", "ms", wallPerOp(spans, "engine.incremental_refresh")/1e3)
		out.layer("snapshot.recover_ms", "ms", r.recoverMS)
		out.layer("snapshot.bytes_per_user_byte", "B/B", r.bytesPerUserByte)
		for _, n := range []string{"replay.write", "serve.write"} {
			out.stageRoots[n] = true
		}
		for _, n := range []string{"engine.journal_append", "engine.insert_delta", "engine.incremental_refresh",
			"engine.apply_deltas", "engine.journal_commit", "snapshot.checkpoint", "serve.stream_deltas", "serve.flush"} {
			out.stages[n] = true
		}
	}
	return out, nil
}

// writer is serve-mixed's single writer: each cycle streams one batch of
// deltas and flushes it into a maintenance epoch, on an open loop of its
// own.
type writer struct {
	r *servingRun
	// cycles holds every cycle that succeeded.
	cycles []writeCycle
	acked  int
	// checkpointMS holds the duration of every checkpoint the server
	// reported committing (traced pass only).
	checkpointMS []float64
	lastGen      uint64
}

// writeCycle is one successful write: its due time, and the time from
// then until StreamDeltas returned (accepted and journaled) and until
// Flush made the rows visible.
type writeCycle struct {
	due        time.Time
	ack, fresh time.Duration
}

// run writes at rate for window on a second goroutine while queries runs
// on the calling one.
func (w *writer) run(rate float64, window time.Duration, queries func()) {
	done := make(chan struct{})
	go func() {
		openLoop(rate, window, w.cycle)
		close(done)
	}()
	queries()
	<-done
}

// during returns the ack and freshness times of the cycles due within
// one of segs.
func (w *writer) during(segs [][2]time.Time) (ack, fresh []time.Duration) {
	for _, c := range w.cycles {
		for _, sg := range segs {
			if !c.due.Before(sg[0]) && c.due.Before(sg[1]) {
				ack = append(ack, c.ack)
				fresh = append(fresh, c.fresh)
				break
			}
		}
	}
	return ack, fresh
}

func (w *writer) cycle(_ int, due time.Time) (time.Time, error) {
	r, tr := w.r, w.r.tr
	op := tr.newOp()
	root := tr.begin("serve.write", 0, op)
	var n int
	err := tr.around("serve.stream_deltas", root, op, func() (err error) {
		n, err = r.srv.StreamDeltas(writeFraction)
		return err
	})
	w.acked += n
	var ack time.Duration
	if err == nil {
		ack = time.Since(due)
		err = tr.around("serve.flush", root, op, r.srv.Flush)
	}
	done := time.Now()
	tr.end(root)
	if err != nil {
		r.out.count(1, 1, 0)
		return done, err
	}
	r.out.count(1, 0, 0)
	w.cycles = append(w.cycles, writeCycle{due, ack, done.Sub(due)})
	if tr != nil {
		if st := r.srv.SnapshotStats(); st.Generation != w.lastGen {
			w.lastGen = st.Generation
			w.checkpointMS = append(w.checkpointMS, float64(st.LastDuration)/1e6)
		}
	}
	return done, nil
}

// finishMixed ends serve-mixed: a last flush, the answers of the named
// queries and a spread of ad-hoc texts, Close, then restartReps reopens
// over the same journal and snapshot directory, timed. The answers before
// and after the restart must equal the base-relation answers over the
// stored base tables, and those tables must hold every acknowledged row.
func (r *servingRun) finishMixed(wantRows int) (float64, error) {
	out := r.out
	out.count(1, 0, 0)
	if err := r.srv.Flush(); err != nil {
		return 0, fmt.Errorf("final flush: %w", err)
	}
	var idxs []int
	for i := range r.s.queries {
		idxs = append(idxs, i)
	}
	adhoc := len(r.texts) - len(r.s.queries)
	for k := 0; k < checkedAdhoc; k++ {
		idxs = append(idxs, len(r.s.queries)+k*adhoc/checkedAdhoc)
	}
	answers := func(srv *mvpp.Server) ([]fingerprint, error) {
		fps := make([]fingerprint, len(idxs))
		for i, idx := range idxs {
			out.count(1, 0, 0)
			res, err := r.ask(srv, idx)
			if err != nil {
				return nil, err
			}
			fps[i] = resultFingerprint(res)
		}
		return fps, nil
	}
	beforeRestart, err := answers(r.srv)
	if err != nil {
		return 0, err
	}
	if err := r.srv.Close(); err != nil {
		return 0, err
	}
	// A reopened server replays the journal suffix past its snapshot into
	// the next maintenance epoch, so the restart is timed until a Flush
	// has made every acknowledged write visible again.
	var restarts []float64
	var afterRestart []fingerprint
	for i := 0; i < restartReps; i++ {
		t := time.Now()
		srv, err := r.design.NewServer(r.opts)
		if err != nil {
			return 0, fmt.Errorf("restart: %w", err)
		}
		r.srv = srv
		if err := srv.Flush(); err != nil {
			return 0, fmt.Errorf("flush after restart: %w", err)
		}
		restarts = append(restarts, time.Since(t).Seconds())
		if i == 0 {
			out.notef("restart replays %d journaled rows past the snapshot", srv.Stats().ReplayedDeltaRows)
			if rec := srv.SnapshotStats().Recovery; rec != nil {
				r.recoverMS = float64(rec.Duration) / 1e6
			}
			if afterRestart, err = answers(srv); err != nil {
				return 0, err
			}
		}
		if i < restartReps-1 {
			if err := srv.Close(); err != nil {
				return 0, err
			}
			time.Sleep(restartGap)
		}
	}

	ck, err := r.srv.Checkpoint()
	if err != nil || ck == nil {
		return 0, fmt.Errorf("checkpoint for the oracle: %v", err)
	}
	db, err := loadBaseDB(r.opts.SnapshotDir)
	if err != nil {
		return 0, err
	}
	rows, err := baseRows(db)
	if err != nil {
		return 0, err
	}
	if rows != wantRows {
		out.count(0, 0, 1)
		out.notef("stored base tables hold %d rows, want %d (initial plus every acknowledged write)", rows, wantRows)
	}
	r.bytesPerUserByte = float64(ck.Bytes) / float64(max(userBytes(db), 1))
	cat, err := r.s.internalCatalog()
	if err != nil {
		return 0, err
	}
	orc := newOracle(cat, db)
	for i, idx := range idxs {
		want, err := orc.answer(r.texts[idx])
		if err != nil {
			return 0, err
		}
		if beforeRestart[i] != want || afterRestart[i] != want {
			out.count(0, 0, 1)
			out.notef("%.50q: before restart %v, after %v, want %v", r.texts[idx][:40], beforeRestart[i], afterRestart[i], want)
		}
	}
	out.notef("restart_s per reopen: %.4f", restarts)
	return newDist(restarts).Q(50), nil
}
