package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	mvpp "github.com/warehousekit/mvpp"
	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/catalog"
	"github.com/warehousekit/mvpp/internal/sqlparse"
)

// tableSpec is one table of a benchmark schema in the public API's terms.
type tableSpec struct {
	name  string
	cols  []mvpp.Column
	stats mvpp.TableStats
}

// pinSpec is a selectivity the schema pins, as PinSelectivity takes it.
type pinSpec struct {
	cond  string
	sel   float64
	table string
}

// schema is a catalog plus its workload. The same description builds the
// public catalog the program designs over and the internal catalog the
// oracle and the traced replay plan over, so both price identical
// statistics.
type schema struct {
	tables  []tableSpec
	pins    []pinSpec
	queries []mvpp.Query
}

func (s *schema) publicCatalog() (*mvpp.Catalog, error) {
	cat := mvpp.NewCatalog()
	for _, t := range s.tables {
		if err := cat.AddTable(t.name, t.cols, t.stats); err != nil {
			return nil, err
		}
	}
	for _, p := range s.pins {
		if err := cat.PinSelectivity(p.cond, p.sel, p.table); err != nil {
			return nil, err
		}
	}
	return cat, nil
}

var internalTypes = map[mvpp.Type]algebra.Type{
	mvpp.Int: algebra.TypeInt, mvpp.Float: algebra.TypeFloat,
	mvpp.String: algebra.TypeString, mvpp.Date: algebra.TypeDate,
}

// internalCatalog mirrors publicCatalog with the program's internal types,
// statistic for statistic, the way mvpp.Catalog.AddTable converts them.
func (s *schema) internalCatalog() (*catalog.Catalog, error) {
	cat := catalog.New()
	for _, t := range s.tables {
		cols := make([]algebra.Column, len(t.cols))
		for i, c := range t.cols {
			cols[i] = algebra.Column{Relation: t.name, Name: c.Name, Type: internalTypes[c.Type]}
		}
		attrs := make(map[string]catalog.AttrStats)
		for col, ndv := range t.stats.DistinctValues {
			a := attrs[col]
			a.DistinctValues = ndv
			attrs[col] = a
		}
		for col, r := range t.stats.IntRanges {
			a := attrs[col]
			a.Min, a.Max = algebra.IntVal(r[0]), algebra.IntVal(r[1])
			attrs[col] = a
		}
		err := cat.AddRelation(&catalog.Relation{
			Name: t.name, Schema: algebra.NewSchema(cols...),
			Rows: t.stats.Rows, Blocks: t.stats.Blocks,
			UpdateFrequency: t.stats.UpdateFrequency, Attrs: attrs,
		})
		if err != nil {
			return nil, err
		}
	}
	for _, p := range s.pins {
		pred, err := sqlparse.ParseCondition(cat, []string{p.table}, p.cond)
		if err != nil {
			return nil, err
		}
		if err := cat.SetPredicateSelectivity(pred, p.sel); err != nil {
			return nil, err
		}
	}
	return cat, nil
}

func intCol(name string) mvpp.Column { return mvpp.Column{Name: name, Type: mvpp.Int} }
func strCol(name string) mvpp.Column { return mvpp.Column{Name: name, Type: mvpp.String} }

// table1Schema is the paper's Table-1 warehouse (Product, Division, Order,
// Customer, Part) with its four queries weighted by the paper's fq.
func table1Schema() *schema {
	return &schema{
		tables: []tableSpec{
			{"Product", []mvpp.Column{intCol("Pid"), strCol("name"), intCol("Did")},
				mvpp.TableStats{Rows: 30000, Blocks: 3000, UpdateFrequency: 1,
					DistinctValues: map[string]float64{"Pid": 30000, "name": 25000, "Did": 5000}}},
			{"Division", []mvpp.Column{intCol("Did"), strCol("name"), strCol("city")},
				mvpp.TableStats{Rows: 5000, Blocks: 500, UpdateFrequency: 1,
					DistinctValues: map[string]float64{"Did": 5000, "name": 4000, "city": 50}}},
			{"Order", []mvpp.Column{intCol("Pid"), intCol("Cid"), intCol("quantity"), {Name: "date", Type: mvpp.Date}},
				mvpp.TableStats{Rows: 50000, Blocks: 6000, UpdateFrequency: 1,
					DistinctValues: map[string]float64{"Pid": 30000, "Cid": 20000, "quantity": 200, "date": 365},
					IntRanges:      map[string][2]int64{"quantity": {1, 200}}}},
			{"Customer", []mvpp.Column{intCol("Cid"), strCol("name"), strCol("city")},
				mvpp.TableStats{Rows: 20000, Blocks: 2000, UpdateFrequency: 1,
					DistinctValues: map[string]float64{"Cid": 20000, "name": 18000, "city": 50}}},
			{"Part", []mvpp.Column{intCol("Tid"), strCol("name"), intCol("Pid"), strCol("supplier")},
				mvpp.TableStats{Rows: 80000, Blocks: 10000, UpdateFrequency: 1,
					DistinctValues: map[string]float64{"Tid": 80000, "name": 60000, "Pid": 30000, "supplier": 500}}},
		},
		pins: []pinSpec{
			{`city = 'LA'`, 0.02, "Division"},
			{`date > 7/1/96`, 0.5, "Order"},
			{`quantity > 100`, 0.5, "Order"},
		},
		queries: []mvpp.Query{
			{Name: "Q1", Frequency: 10, SQL: q1SQL("LA")},
			{Name: "Q2", Frequency: 0.5, SQL: q2SQL("LA")},
			{Name: "Q3", Frequency: 0.8, SQL: q3SQL("LA", "7/1/96")},
			{Name: "Q4", Frequency: 5, SQL: q4SQL(100)},
		},
	}
}

func q1SQL(city string) string {
	return fmt.Sprintf(`SELECT Product.name FROM Product, Division WHERE Division.city = '%s' AND Product.Did = Division.Did`, city)
}

func q2SQL(city string) string {
	return fmt.Sprintf(`SELECT Part.name FROM Product, Part, Division WHERE Division.city = '%s' AND Product.Did = Division.Did AND Part.Pid = Product.Pid`, city)
}

func q3SQL(city, date string) string {
	return fmt.Sprintf(`SELECT Customer.name, Product.name, quantity FROM Product, Division, Order, Customer WHERE Division.city = '%s' AND Product.Did = Division.Did AND Product.Pid = Order.Pid AND Order.Cid = Customer.Cid AND date > %s`, city, date)
}

func q4SQL(minQuantity int) string {
	return fmt.Sprintf(`SELECT Customer.city, date FROM Order, Customer WHERE quantity > %d AND Order.Cid = Customer.Cid`, minQuantity)
}

// adhocDomain lists the distinct ad-hoc variants of Q1–Q4 the serving
// workloads draw from: other cities (the generator names them
// city-v0001…city-v0049), other order dates, and Q4 restricted to one
// customer city at several quantity thresholds. None equals a named query,
// so a variant never shares its cache entry. Its size, about twice
// serve.DefaultCacheCapacity, holds the result-cache hit rate near one
// half.
func adhocDomain() []string {
	var out []string
	for c := 1; c < 50; c++ {
		city := fmt.Sprintf("city-v%04d", c)
		out = append(out, q1SQL(city), q2SQL(city))
		for _, date := range []string{"7/1/96", "8/1/96", "9/1/96", "10/1/96", "12/1/96"} {
			out = append(out, q3SQL(city, date))
		}
		for _, q := range []int{100, 120, 150, 180} {
			out = append(out, q4SQL(q)+fmt.Sprintf(" AND Customer.city = '%s'", city))
		}
	}
	return out
}

// starSchema is a star warehouse with dims dimensions around one fact
// table (the sizes of the program's workload.DefaultStar) and nq SPJ
// queries. Access frequencies follow Zipf (s = 1) over the queries in
// order; query k joins 1 + k mod 4 dimensions and filters round(0.6·joined)
// of them on their attr column. The seed picks which dimensions each query
// joins and filters and the filter values. Every dimension has the same
// statistics, so the seed changes which subexpressions the queries share
// but not their sizes or weights, and a design's cost and work vary little
// from seed to seed.
func starSchema(dims, nq int, seed int64) *schema {
	const (
		factRows, dimRows, rowsPerBlock, attrNDV = 100000, 5000, 10, 50
	)
	s := &schema{}
	fact := tableSpec{name: "Fact", cols: []mvpp.Column{intCol("id")}, stats: mvpp.TableStats{
		Rows: factRows, Blocks: factRows / rowsPerBlock, UpdateFrequency: 1,
		DistinctValues: map[string]float64{"id": factRows, "measure": 1000},
		IntRanges:      map[string][2]int64{"measure": {0, 1000}},
	}}
	for d := 0; d < dims; d++ {
		fk := fmt.Sprintf("fk%02d", d)
		fact.cols = append(fact.cols, intCol(fk))
		fact.stats.DistinctValues[fk] = dimRows
	}
	fact.cols = append(fact.cols, intCol("measure"))
	s.tables = append(s.tables, fact)
	for d := 0; d < dims; d++ {
		s.tables = append(s.tables, tableSpec{
			name: fmt.Sprintf("Dim%02d", d),
			cols: []mvpp.Column{intCol("id"), strCol("attr"), strCol("name")},
			stats: mvpp.TableStats{Rows: dimRows, Blocks: dimRows / rowsPerBlock, UpdateFrequency: 0.1,
				DistinctValues: map[string]float64{"id": dimRows, "attr": attrNDV, "name": dimRows}},
		})
	}
	r := rand.New(rand.NewSource(seed))
	for qi := 0; qi < nq; qi++ {
		nd := 1 + qi%min(4, dims)
		filtered := int(math.Round(0.6 * float64(nd)))
		sel := []string{"Fact.measure"}
		from := []string{"Fact"}
		var where []string
		for j, d := range r.Perm(dims)[:nd] {
			dim := fmt.Sprintf("Dim%02d", d)
			sel = append(sel, dim+".name")
			from = append(from, dim)
			where = append(where, fmt.Sprintf("Fact.fk%02d = %s.id", d, dim))
			if j < filtered {
				where = append(where, fmt.Sprintf("%s.attr = 'v%03d'", dim, r.Intn(attrNDV)))
			}
		}
		s.queries = append(s.queries, mvpp.Query{
			Name:      fmt.Sprintf("W%03d", qi+1),
			SQL:       "SELECT " + strings.Join(sel, ", ") + " FROM " + strings.Join(from, ", ") + " WHERE " + strings.Join(where, " AND "),
			Frequency: 10 / float64(qi+1),
		})
	}
	return s
}
