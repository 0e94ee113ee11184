package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"

	mvpp "github.com/warehousekit/mvpp"
	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/catalog"
	"github.com/warehousekit/mvpp/internal/core"
	"github.com/warehousekit/mvpp/internal/cost"
	"github.com/warehousekit/mvpp/internal/engine"
	"github.com/warehousekit/mvpp/internal/obs"
	"github.com/warehousekit/mvpp/internal/optimizer"
	"github.com/warehousekit/mvpp/internal/snapshot"
	"github.com/warehousekit/mvpp/internal/sqlparse"
)

// replica is the traced run's own warehouse: the same seeded base data as
// the server under test, the design's views materialized over it, and the
// module entry points the server calls, invoked directly so each stage of
// a sampled operation can be timed on its own.
type replica struct {
	cat     *catalog.Catalog
	db      *engine.DB
	opt     *optimizer.Optimizer
	reg     *obs.Registry
	named   map[string]algebra.Node
	views   []string
	journal *engine.FileJournal
	store   *snapshot.Store
	rng     *rand.Rand
	// deltaRows is how many rows one write adds per table, as StreamDeltas
	// would generate them.
	deltaRows map[string]int
	writes    int
}

// newReplica rebuilds the design's MVPP through the optimizer and core
// entry points, materializes the views the server runs with (matched by
// definition) over the base tables of the snapshot in baseDir, and opens a
// file journal and snapshot store under dir.
func newReplica(s *schema, d *mvpp.Design, baseDir, dir string, scale float64, seed int64) (*replica, error) {
	cat, err := s.internalCatalog()
	if err != nil {
		return nil, err
	}
	db, err := loadBaseDB(baseDir)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	est := cost.NewEstimator(cat, cost.DefaultOptions())
	model := &cost.PaperModel{}
	r := &replica{
		cat: cat, db: db, reg: reg, named: map[string]algebra.Node{},
		opt:       optimizer.New(est, model, optimizer.Options{Obs: obs.MetricsOnly(reg)}),
		rng:       rand.New(rand.NewSource(seed)),
		deltaRows: map[string]int{},
	}
	designOpt := optimizer.New(est, model, optimizer.Options{})
	plans := make([]core.QueryPlan, 0, len(s.queries))
	for _, q := range s.queries {
		bound, err := sqlparse.BindQuery(cat, q.Name, q.SQL)
		if err != nil {
			return nil, err
		}
		plan, _, err := designOpt.Optimize(bound)
		if err != nil {
			return nil, err
		}
		plans = append(plans, core.QueryPlan{Name: q.Name, Freq: q.Frequency, Plan: plan})
	}
	cands, err := core.Generate(est, model, plans, core.GenOptions{Delta: &cost.DeltaSpec{DefaultFraction: designDelta}})
	if err != nil {
		return nil, err
	}
	best := core.Best(cands)
	want := map[string]string{}
	for _, v := range d.Views() {
		want[v.Definition] = v.Name
	}
	for _, v := range best.MVPP.Vertices {
		name, ok := want[v.Op.Canonical()]
		if !ok {
			continue
		}
		if _, err := db.Materialize(name, v.Op); err != nil {
			return nil, err
		}
		r.views = append(r.views, name)
		delete(want, v.Op.Canonical())
	}
	if len(want) > 0 {
		return nil, fmt.Errorf("replica: %d design views not found in the rebuilt MVPP", len(want))
	}
	for name, root := range best.MVPP.Roots {
		r.named[name] = root.Op
	}
	for _, t := range s.tables {
		r.deltaRows[t.name] = int(math.Max(1, math.Round(t.stats.Rows*scale*writeFraction)))
	}
	if r.journal, err = engine.OpenFileJournal(filepath.Join(dir, "replica.journal")); err != nil {
		return nil, err
	}
	if r.store, err = snapshot.Open(filepath.Join(dir, "replica-snap")); err != nil {
		r.journal.Close()
		return nil, err
	}
	return r, nil
}

func (r *replica) Close() error { return r.journal.Close() }

// query replays one query the way the server answers a cache miss: an
// ad-hoc text is bound and optimized first; every query is rewritten over
// the views and executed. It returns the blocks the execution read.
func (r *replica) query(tr *tracer, name, sql string) (int64, error) {
	op := tr.newOp()
	root := tr.begin("replay.query", 0, op)
	defer tr.end(root)
	plan, ok := r.named[name]
	if !ok {
		var bound *sqlparse.Query
		err := tr.around("sqlparse.bind", root, op, func() (err error) {
			bound, err = sqlparse.BindQuery(r.cat, "adhoc", sql)
			return err
		})
		if err != nil {
			return 0, err
		}
		err = tr.around("optimizer.optimize", root, op, func() (err error) {
			plan, _, err = r.opt.Optimize(bound)
			return err
		})
		if err != nil {
			return 0, err
		}
	}
	var rewritten algebra.Node
	tr.around("engine.rewrite", root, op, func() error {
		rewritten = r.db.RewriteWithViewsSubsuming(plan)
		return nil
	})
	var res *engine.Result
	err := tr.around("engine.execute", root, op, func() (err error) {
		res, err = r.db.Execute(rewritten)
		return err
	})
	if err != nil {
		return 0, err
	}
	return res.TotalReads(), nil
}

// deltaBatch draws one write's rows per table, in table-name order so a
// seed always draws the same rows: existing rows picked at random, so join
// fan-out matches the data already stored.
func (r *replica) deltaBatch() (map[string][][]algebra.Value, error) {
	out := make(map[string][][]algebra.Value, len(r.deltaRows))
	for _, name := range r.db.Tables() {
		n := r.deltaRows[name]
		t, err := r.db.Table(name)
		if err != nil {
			return nil, err
		}
		rows := make([][]algebra.Value, n)
		for i := range rows {
			rows[i] = append([]algebra.Value(nil), t.Row(r.rng.Intn(t.NumRows())).Values...)
		}
		out[name] = rows
	}
	return out, nil
}

// write replays one maintenance cycle in the scheduler's order: journal
// append, staged delta, incremental refresh of every view, fold into the
// base tables, journal commit, and every checkpointEvery-th write a
// snapshot checkpoint.
func (r *replica) write(tr *tracer, checkpointEvery int) error {
	batch, err := r.deltaBatch()
	if err != nil {
		return err
	}
	op := tr.newOp()
	root := tr.begin("replay.write", 0, op)
	defer tr.end(root)
	var lsn uint64
	for _, name := range r.db.Tables() {
		rows := batch[name]
		if err := tr.around("engine.journal_append", root, op, func() (err error) {
			lsn, err = r.journal.Append(name, rows)
			return err
		}); err != nil {
			return err
		}
	}
	if err := tr.around("engine.insert_delta", root, op, func() error {
		for name, rows := range batch {
			if err := r.db.InsertDelta(name, rows...); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	for _, v := range r.views {
		if err := tr.around("engine.incremental_refresh", root, op, func() error {
			_, err := r.db.IncrementalRefresh(v)
			if errors.Is(err, engine.ErrNotIncremental) {
				_, err = r.db.Refresh(v)
			}
			return err
		}); err != nil {
			return err
		}
	}
	if err := tr.around("engine.apply_deltas", root, op, r.db.ApplyDeltas); err != nil {
		return err
	}
	if err := tr.around("engine.journal_commit", root, op, func() error { return r.journal.Commit(lsn) }); err != nil {
		return err
	}
	r.writes++
	if r.writes%checkpointEvery != 0 {
		return nil
	}
	return tr.around("snapshot.checkpoint", root, op, func() error {
		in := snapshot.CheckpointInput{Epoch: uint64(r.writes), Watermark: lsn}
		for _, name := range r.db.Tables() {
			t, err := r.db.Table(name)
			if err != nil {
				return err
			}
			in.Tables = append(in.Tables, t)
		}
		for _, name := range r.views {
			v, err := r.db.View(name)
			if err != nil {
				return err
			}
			in.Views = append(in.Views, snapshot.ViewData{Name: name, Plan: v.Plan, Table: v.Table(), Epoch: uint64(r.writes)})
		}
		_, err := r.store.Checkpoint(in)
		return err
	})
}
