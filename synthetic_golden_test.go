package mvpp

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"testing"

	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/engine"
	"github.com/warehousekit/mvpp/internal/paper"
)

// Journals, snapshots and the golden answers all depend on the synthetic
// rows, so the generator's output is pinned bit for bit: the Table-1 base
// data at scale 0.1 and three successive delta epochs over it. A change to
// columnGenerator that draws a value differently, or consumes the random
// stream in another order, moves these fingerprints.
const (
	goldenBaseFingerprint   = "2cf9d6e1006dfdf121ecca49953e6ab17714925c86de816fc755c4d620021bd7"
	goldenDeltaFingerprint0 = "38679e06eef395f6d04a803f1b4cf136e00bc24835816edc25d33283bcde0dac"
	goldenDeltaFingerprint1 = "da68bcfe1232d9cac5ce376b437f5b3059d27053c407a336fa39e57791c0e3e6"
	goldenDeltaFingerprint2 = "6910f750054342963d287a5307d851e0c369573f23597cbd5e7ae68c9129ff14"
)

func paperInternalDesign(t *testing.T) *Design {
	t.Helper()
	cat, err := paper.NewCatalog()
	if err != nil {
		t.Fatal(err)
	}
	d := NewDesigner(&Catalog{inner: cat}, Options{})
	for _, q := range paper.QueryOrder {
		if err := d.AddQuery(q, paper.SQL[q], paper.Frequencies[q]); err != nil {
			t.Fatal(err)
		}
	}
	design, err := d.Design()
	if err != nil {
		t.Fatal(err)
	}
	return design
}

// hashValue writes one value's kind and exact payload.
func hashValue(h hash.Hash, v algebra.Value) {
	var buf [17]byte
	buf[0] = byte(v.Kind)
	binary.LittleEndian.PutUint64(buf[1:9], uint64(v.Int))
	binary.LittleEndian.PutUint64(buf[9:17], math.Float64bits(v.Float))
	h.Write(buf[:])
	fmt.Fprintf(h, "%d:%s", len(v.Str), v.Str)
}

func fingerprintDB(t *testing.T, d *Design, db *engine.DB) string {
	t.Helper()
	h := sha256.New()
	for _, name := range d.catalog.inner.Relations() {
		tab, err := db.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s/%d/%d;", name, tab.NumRows(), tab.BlockRows)
		for i := 0; i < tab.NumRows(); i++ {
			for _, v := range tab.Row(i).Values {
				hashValue(h, v)
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func fingerprintRows(d *Design, rows map[string][][]algebra.Value) string {
	h := sha256.New()
	for _, name := range d.catalog.inner.Relations() {
		fmt.Fprintf(h, "%s/%d;", name, len(rows[name]))
		for _, row := range rows[name] {
			for _, v := range row {
				hashValue(h, v)
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestSyntheticDataGolden(t *testing.T) {
	const scale, seed = 0.1, 42
	d := paperInternalDesign(t)
	db, err := d.buildSyntheticDB(scale, seed)
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprintDB(t, d, db); got != goldenBaseFingerprint {
		t.Errorf("buildSyntheticDB fingerprint = %s, want %s", got, goldenBaseFingerprint)
	}
	// Three epochs as a server runs them: each delta is generated past the
	// rows the previous epochs folded into the base tables.
	want := []string{goldenDeltaFingerprint0, goldenDeltaFingerprint1, goldenDeltaFingerprint2}
	for i, w := range want {
		rows, total, err := d.syntheticDeltaRows(db, scale, 0.01, seed+int64(i)+1)
		if err != nil {
			t.Fatal(err)
		}
		if got := fingerprintRows(d, rows); got != w {
			t.Errorf("syntheticDeltaRows call %d (%d rows) fingerprint = %s, want %s", i, total, got, w)
		}
		for _, name := range d.catalog.inner.Relations() {
			if err := db.InsertDelta(name, rows[name]...); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.ApplyDeltas(); err != nil {
			t.Fatal(err)
		}
	}
}
