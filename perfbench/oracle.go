package main

import (
	"fmt"
	"hash/fnv"
	"strconv"

	mvpp "github.com/warehousekit/mvpp"
	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/catalog"
	"github.com/warehousekit/mvpp/internal/cost"
	"github.com/warehousekit/mvpp/internal/engine"
	"github.com/warehousekit/mvpp/internal/optimizer"
	"github.com/warehousekit/mvpp/internal/snapshot"
	"github.com/warehousekit/mvpp/internal/sqlparse"
)

// fingerprint identifies a query answer as a multiset of rows: the row
// count and the wrapping sum of per-row hashes, so row order (which views
// and join orders change) does not matter.
type fingerprint struct {
	rows int
	sum  uint64
}

func (f fingerprint) String() string { return fmt.Sprintf("%d rows/%016x", f.rows, f.sum) }

// addRow folds one row, given as the values QueryResult.Values returns.
func (f *fingerprint) addRow(vals []any) {
	h := fnv.New64a()
	var buf []byte
	for _, v := range vals {
		switch x := v.(type) {
		case int64:
			buf = strconv.AppendInt(append(buf, 'i'), x, 10)
		case float64:
			buf = strconv.AppendFloat(append(buf, 'f'), x, 'g', 12, 64)
		case string:
			buf = append(append(buf, 's'), x...)
		}
		buf = append(buf, 0x1f)
	}
	h.Write(buf)
	f.rows++
	f.sum += h.Sum64()
}

func resultFingerprint(res *mvpp.QueryResult) fingerprint {
	var f fingerprint
	for _, row := range res.Values() {
		f.addRow(row)
	}
	return f
}

// plainValue maps an engine value the way QueryResult.Values does.
func plainValue(v algebra.Value) any {
	switch v.Kind {
	case algebra.TypeInt, algebra.TypeDate:
		return v.Int
	case algebra.TypeFloat:
		return v.Float
	default:
		return v.Str
	}
}

func tableFingerprint(t *engine.Table) fingerprint {
	var f fingerprint
	vals := make([]any, t.Schema.Len())
	for i := 0; i < t.NumRows(); i++ {
		for c, v := range t.Row(i).Values {
			vals[c] = plainValue(v)
		}
		f.addRow(vals)
	}
	return f
}

// oracle answers queries from base relations only: its database holds the
// base tables of a snapshot and no views, and nothing is cached.
type oracle struct {
	cat *catalog.Catalog
	db  *engine.DB
	opt *optimizer.Optimizer
}

// loadBaseDB restores the base tables of the newest snapshot generation in
// dir into a fresh database with no views.
func loadBaseDB(dir string) (*engine.DB, error) {
	st, err := snapshot.Open(dir)
	if err != nil {
		return nil, err
	}
	m, err := st.Manifest()
	if err != nil {
		return nil, err
	}
	if m == nil {
		return nil, fmt.Errorf("no snapshot generation in %s", dir)
	}
	tables, err := st.LoadBase(m)
	if err != nil {
		return nil, err
	}
	db := engine.NewDB(engine.DefaultBlockRows)
	for _, t := range tables {
		if err := db.RestoreTable(t); err != nil {
			return nil, err
		}
	}
	return db, nil
}

func newOracle(cat *catalog.Catalog, db *engine.DB) *oracle {
	est := cost.NewEstimator(cat, cost.DefaultOptions())
	return &oracle{cat: cat, db: db, opt: optimizer.New(est, &cost.PaperModel{}, optimizer.Options{})}
}

// answer executes sql's base-relation plan.
func (o *oracle) answer(sql string) (fingerprint, error) {
	q, err := sqlparse.BindQuery(o.cat, "oracle", sql)
	if err != nil {
		return fingerprint{}, err
	}
	plan, _, err := o.opt.Optimize(q)
	if err != nil {
		return fingerprint{}, err
	}
	res, err := o.db.Execute(plan)
	if err != nil {
		return fingerprint{}, err
	}
	return tableFingerprint(res.Table), nil
}

// baseRows is the number of rows across all base tables.
func baseRows(db *engine.DB) (int, error) {
	n := 0
	for _, name := range db.Tables() {
		t, err := db.Table(name)
		if err != nil {
			return 0, err
		}
		n += t.NumRows()
	}
	return n, nil
}

// userBytes is the logical size of the base tables' values: eight bytes
// per number or date and the length of each string.
func userBytes(db *engine.DB) int64 {
	var n int64
	for _, name := range db.Tables() {
		t, err := db.Table(name)
		if err != nil {
			continue
		}
		for i := 0; i < t.NumRows(); i++ {
			for _, v := range t.Row(i).Values {
				if s, ok := plainValue(v).(string); ok {
					n += int64(len(s))
				} else {
					n += 8
				}
			}
		}
	}
	return n
}
