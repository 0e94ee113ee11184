package engine

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/warehousekit/mvpp/internal/algebra"
)

// The copy-per-join reference: delta propagation where every join delta
// pairs against its own private copy of every base table extended by the
// pending rows, and ApplyDeltas copies each table once more. The shared
// new state must reproduce it row for row.

type copyPerJoinState struct {
	fresh, oldExtra, allPending map[string]*Table
}

func copyPerJoinSnapshot(db *DB, view string) *copyPerJoinState {
	ds := &copyPerJoinState{
		fresh:      make(map[string]*Table),
		oldExtra:   make(map[string]*Table),
		allPending: make(map[string]*Table),
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	for name, d := range db.deltas {
		n := d.NumRows()
		k := db.propagated[view][name]
		if k > n {
			k = n
		}
		ds.allPending[name] = d.sliceRows(0, n)
		ds.oldExtra[name] = d.sliceRows(0, k)
		ds.fresh[name] = d.sliceRows(k, n)
	}
	return ds
}

func copyPerJoinUnmetered(db *DB, n algebra.Node, extra map[string]*Table) (*Table, error) {
	db.mu.RLock()
	tables := make(map[string]*Table, len(db.tables))
	for name, t := range db.tables {
		if x := extra[name]; x != nil && x.NumRows() > 0 {
			tables[name] = t.cloneAppendTable(x)
		} else {
			tables[name] = t
		}
	}
	views := db.views
	db.mu.RUnlock()
	shadow := &DB{BlockRows: db.BlockRows, Counter: &Counter{}, tables: tables, views: views,
		deltas: make(map[string]*Table), propagated: make(map[string]map[string]int),
		joinAlgo: db.joinAlgo, execMode: db.execMode}
	var scratch Result
	return shadow.exec(n, &scratch)
}

func copyPerJoinDelta(db *DB, n algebra.Node, ds *copyPerJoinState, res *Result) (*Table, error) {
	switch v := n.(type) {
	case *algebra.Scan:
		if d, ok := ds.fresh[v.Relation]; ok {
			return d, nil
		}
		return NewTable("", v.Schema(), db.BlockRows), nil
	case *algebra.Select:
		din, err := copyPerJoinDelta(db, v.Input, ds, res)
		if err != nil {
			return nil, err
		}
		return db.opSelect(v, din, res)
	case *algebra.Project:
		din, err := copyPerJoinDelta(db, v.Input, ds, res)
		if err != nil {
			return nil, err
		}
		return db.opProject(v, din, res)
	case *algebra.Join:
		dl, err := copyPerJoinDelta(db, v.Left, ds, res)
		if err != nil {
			return nil, err
		}
		dr, err := copyPerJoinDelta(db, v.Right, ds, res)
		if err != nil {
			return nil, err
		}
		rightNew, err := copyPerJoinUnmetered(db, v.Right, ds.allPending)
		if err != nil {
			return nil, err
		}
		leftOld, err := copyPerJoinUnmetered(db, v.Left, ds.oldExtra)
		if err != nil {
			return nil, err
		}
		part1, err := db.opNLJoin(v, dl, rightNew, res)
		if err != nil {
			return nil, err
		}
		part2, err := db.opNLJoin(v, leftOld, dr, res)
		if err != nil {
			return nil, err
		}
		part1.appendTable(part2)
		return part1, nil
	}
	return nil, fmt.Errorf("copy-per-join reference: node %T", n)
}

// copyPerJoinRefresh is the view table IncrementalRefresh should produce,
// computed by the reference without changing the view.
func copyPerJoinRefresh(t *testing.T, db *DB, name string) *Table {
	t.Helper()
	v, err := db.View(name)
	if err != nil {
		t.Fatal(err)
	}
	ds := copyPerJoinSnapshot(db, name)
	var res Result
	if agg, ok := v.Plan.(*algebra.Aggregate); ok {
		din, err := copyPerJoinDelta(db, agg.Input, ds, &res)
		if err != nil {
			t.Fatal(err)
		}
		dagg, err := db.opAggregate(agg, din, &res)
		if err != nil {
			t.Fatal(err)
		}
		merged, err := db.mergeAggregate(v, agg, dagg, &res)
		if err != nil {
			t.Fatal(err)
		}
		return merged
	}
	droot, err := copyPerJoinDelta(db, v.Plan, ds, &res)
	if err != nil {
		t.Fatal(err)
	}
	return v.Table().cloneAppendTable(droot)
}

// orderedRowStrings renders a table's rows in storage order.
func orderedRowStrings(tb *Table) []string {
	out := make([]string, tb.NumRows())
	for i := range out {
		out[i] = fmt.Sprint(tb.rowValues(i))
	}
	return out
}

func sameRows(t *testing.T, label string, got, want *Table) {
	t.Helper()
	g, w := orderedRowStrings(got), orderedRowStrings(want)
	if fmt.Sprint(g) != fmt.Sprint(w) {
		t.Fatalf("%s: %d rows differ from the copy-per-join reference's %d\n got: %v\nwant: %v",
			label, len(g), len(w), g, w)
	}
}

// starDB builds a fact table F(a, b, v) over two dimensions D1(a, x) and
// D2(b, y), with small domains so deltas join old and new rows alike.
func starDB(t *testing.T, r *rand.Rand) *DB {
	t.Helper()
	db := NewDB(4)
	mk := func(name string, cols []algebra.Column, rows int, gen func(i int) []algebra.Value) {
		tb, err := db.CreateTable(name, algebra.NewSchema(cols...))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			if err := tb.Insert(gen(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	mk("F", []algebra.Column{
		{Relation: "F", Name: "a", Type: algebra.TypeInt},
		{Relation: "F", Name: "b", Type: algebra.TypeInt},
		{Relation: "F", Name: "v", Type: algebra.TypeInt},
	}, 40, func(int) []algebra.Value { return starFactRow(r) })
	mk("D1", []algebra.Column{
		{Relation: "D1", Name: "a", Type: algebra.TypeInt},
		{Relation: "D1", Name: "x", Type: algebra.TypeString},
	}, 8, func(i int) []algebra.Value { return starDimRow(r, i) })
	mk("D2", []algebra.Column{
		{Relation: "D2", Name: "b", Type: algebra.TypeInt},
		{Relation: "D2", Name: "y", Type: algebra.TypeString},
	}, 6, func(i int) []algebra.Value { return starDimRow(r, i) })
	return db
}

func starFactRow(r *rand.Rand) []algebra.Value {
	return []algebra.Value{algebra.IntVal(r.Int63n(12)), algebra.IntVal(r.Int63n(9)), algebra.IntVal(r.Int63n(100))}
}

func starDimRow(r *rand.Rand, key int) []algebra.Value {
	return []algebra.Value{algebra.IntVal(int64(key)), algebra.StringVal(fmt.Sprintf("c%d", r.Intn(3)))}
}

// starViews materializes three views over the star: F ⋈ D1, a filtered
// three-way join, and (when withAgg) a root aggregate over F ⋈ D2.
func starViews(t *testing.T, db *DB, withAgg bool) []string {
	t.Helper()
	scan := func(name string) *algebra.Scan {
		tb, err := db.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		return algebra.NewScan(name, tb.Schema)
	}
	fd1 := algebra.NewJoin(scan("F"), scan("D1"),
		[]algebra.JoinCond{{Left: algebra.Ref("F", "a"), Right: algebra.Ref("D1", "a")}})
	three := algebra.NewJoin(
		algebra.NewJoin(scan("F"), scan("D1"),
			[]algebra.JoinCond{{Left: algebra.Ref("F", "a"), Right: algebra.Ref("D1", "a")}}),
		algebra.NewSelect(scan("D2"), algebra.Eq(algebra.Ref("D2", "y"), algebra.StringVal("c1"))),
		[]algebra.JoinCond{{Left: algebra.Ref("F", "b"), Right: algebra.Ref("D2", "b")}})
	plans := map[string]algebra.Node{"fd1": fd1, "three": three}
	names := []string{"fd1", "three"}
	if withAgg {
		plans["byy"] = algebra.NewAggregate(
			algebra.NewJoin(scan("F"), scan("D2"),
				[]algebra.JoinCond{{Left: algebra.Ref("F", "b"), Right: algebra.Ref("D2", "b")}}),
			[]algebra.ColumnRef{algebra.Ref("D2", "y")},
			[]algebra.Aggregation{
				{Func: algebra.AggSum, Arg: algebra.Ref("F", "v"), Alias: "total"},
				{Func: algebra.AggCount, Alias: "n"},
				{Func: algebra.AggMax, Arg: algebra.Ref("F", "v"), Alias: "hi"},
			})
		names = append(names, "byy")
	}
	for _, name := range names {
		if _, err := db.Materialize(name, plans[name]); err != nil {
			t.Fatal(err)
		}
	}
	return names
}

// insertStarDeltas stages a random handful of rows on a random subset of
// the tables, extending the dimension keys past next.
func insertStarDeltas(t *testing.T, db *DB, r *rand.Rand, next map[string]int) {
	t.Helper()
	for _, name := range []string{"F", "D1", "D2"} {
		if r.Intn(3) == 0 {
			continue
		}
		var rows [][]algebra.Value
		for i := r.Intn(4) + 1; i > 0; i-- {
			if name == "F" {
				rows = append(rows, starFactRow(r))
				continue
			}
			rows = append(rows, starDimRow(r, next[name]))
			next[name]++
		}
		if err := db.InsertDelta(name, rows...); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSharedNewStateMatchesCopyPerJoin drives random multi-view epochs —
// views refreshed in random order, some twice, deltas arriving between
// refreshes — and checks every IncrementalRefresh result and every base
// table after ApplyDeltas against the copy-per-join reference, while a
// reader scans the pre-epoch base tables and must see them unchanged.
func TestSharedNewStateMatchesCopyPerJoin(t *testing.T) {
	for _, mode := range []ExecMode{ExecBatch, ExecRow} {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("mode%d/seed%d", mode, seed), func(t *testing.T) {
				r := rand.New(rand.NewSource(seed))
				db := starDB(t, r)
				db.SetExecMode(mode)
				views := starViews(t, db, seed%2 == 0)
				next := map[string]int{"D1": 8, "D2": 6}
				for epoch := 0; epoch < 8; epoch++ {
					runStarEpoch(t, db, r, views, next)
				}
			})
		}
	}
}

func runStarEpoch(t *testing.T, db *DB, r *rand.Rand, views []string, next map[string]int) {
	t.Helper()
	old := make(map[string]*Table)
	oldRows := make(map[string][]string)
	for _, name := range []string{"F", "D1", "D2"} {
		tb, err := db.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		old[name], oldRows[name] = tb, orderedRowStrings(tb)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, tb := range old {
				orderedRowStrings(tb)
			}
		}
	}()

	insertStarDeltas(t, db, r, next)
	for _, i := range r.Perm(len(views)) {
		for k := r.Intn(2) + 1; k > 0; k-- {
			if r.Intn(3) == 0 {
				insertStarDeltas(t, db, r, next)
			}
			want := copyPerJoinRefresh(t, db, views[i])
			res, err := db.IncrementalRefresh(views[i])
			if err != nil {
				t.Fatal(err)
			}
			sameRows(t, "IncrementalRefresh("+views[i]+")", res.Table, want)
		}
	}
	if r.Intn(4) == 0 {
		insertStarDeltas(t, db, r, next)
	}
	wantBase := make(map[string]*Table)
	db.mu.RLock()
	for name, d := range db.deltas {
		wantBase[name] = db.tables[name].cloneAppendTable(d)
	}
	db.mu.RUnlock()
	if err := db.ApplyDeltas(); err != nil {
		t.Fatal(err)
	}
	for name, want := range wantBase {
		got, err := db.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, "base "+name+" after ApplyDeltas", got, want)
	}
	close(stop)
	wg.Wait()
	for name, tb := range old {
		if got := orderedRowStrings(tb); fmt.Sprint(got) != fmt.Sprint(oldRows[name]) {
			t.Fatalf("pre-epoch %s changed under its reader", name)
		}
	}
}

// TestSharedNewStateConcurrentRefresh refreshes every view of an epoch
// from its own goroutine, so they race to build and share the new state;
// each result must still equal its copy-per-join reference.
func TestSharedNewStateConcurrentRefresh(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	db := starDB(t, r)
	views := starViews(t, db, true)
	next := map[string]int{"D1": 8, "D2": 6}
	for epoch := 0; epoch < 6; epoch++ {
		insertStarDeltas(t, db, r, next)
		want := make([]*Table, len(views))
		for i, name := range views {
			want[i] = copyPerJoinRefresh(t, db, name)
		}
		got := make([]*Table, len(views))
		errs := make([]error, len(views))
		var wg sync.WaitGroup
		for i, name := range views {
			wg.Add(1)
			go func(i int, name string) {
				defer wg.Done()
				res, err := db.IncrementalRefresh(name)
				if err == nil {
					got[i] = res.Table
				}
				errs[i] = err
			}(i, name)
		}
		wg.Wait()
		for i, name := range views {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			sameRows(t, "concurrent IncrementalRefresh("+name+")", got[i], want[i])
		}
		if err := db.ApplyDeltas(); err != nil {
			t.Fatal(err)
		}
	}
}
