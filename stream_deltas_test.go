package mvpp_test

import (
	"errors"
	"fmt"
	"testing"

	mvpp "github.com/warehousekit/mvpp"
	"github.com/warehousekit/mvpp/internal/algebra"
	"github.com/warehousekit/mvpp/internal/engine"
)

// failingJournal is an in-memory journal whose appends for one table fail
// with an injected fault.
type failingJournal struct {
	*engine.MemJournal
	failTable string
}

func (j *failingJournal) Append(table string, rows [][]algebra.Value) (uint64, error) {
	return j.AppendSource(table, "", rows)
}

func (j *failingJournal) AppendSource(table, source string, rows [][]algebra.Value) (uint64, error) {
	if table == j.failTable {
		return 0, fmt.Errorf("appending %s: %w", table, mvpp.ErrFaultInjected)
	}
	return j.MemJournal.AppendSource(table, source, rows)
}

// TestStreamDeltasOneGroupCommit: every table a StreamDeltas call writes
// shares one change-feed entry, so with one producer each call is exactly
// one group commit, and nothing is in flight once it returns.
func TestStreamDeltasOneGroupCommit(t *testing.T) {
	j := mvpp.NewMemJournal()
	_, srv := paperServer(t, mvpp.ServeOptions{DeltaBatch: 1 << 20, Journal: j})
	tables := len(paperCatalog(t).Tables())
	for i := 0; i < 3; i++ {
		before := srv.Stats()
		n, err := srv.StreamDeltas(0.01)
		if err != nil {
			t.Fatal(err)
		}
		after := srv.Stats()
		if got := after.StreamGroups - before.StreamGroups; got != 1 {
			t.Errorf("call %d: %d group commits, want 1", i, got)
		}
		if got := after.StreamRows - before.StreamRows; got != int64(n) {
			t.Errorf("call %d: group committed %d rows, StreamDeltas reported %d", i, got, n)
		}
		if acc, com := srv.IngestWatermarks(); acc != com {
			t.Errorf("call %d: watermarks %d/%d differ after the call returned", i, acc, com)
		}
	}
	recs, err := j.Pending()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3*tables {
		t.Errorf("journal holds %d records, want one per table per call (%d)", len(recs), 3*tables)
	}
}

// TestStreamDeltasJournalFaultKeepsPrefix: when the journal append of a
// later table fails, StreamDeltas returns the rows of the tables before it
// together with the error, and only journaled rows are staged.
func TestStreamDeltasJournalFaultKeepsPrefix(t *testing.T) {
	order := paperCatalog(t).Tables()
	failAt := 2
	j := &failingJournal{MemJournal: mvpp.NewMemJournal(), failTable: order[failAt]}
	_, srv := paperServer(t, mvpp.ServeOptions{DeltaBatch: 1 << 20, Journal: j})

	before := srv.Stats()
	n, err := srv.StreamDeltas(0.01)
	if !errors.Is(err, mvpp.ErrFaultInjected) {
		t.Fatalf("StreamDeltas = %d, %v; want the injected journal fault", n, err)
	}
	recs, perr := j.Pending()
	if perr != nil {
		t.Fatal(perr)
	}
	journaled := 0
	var tables []string
	for _, r := range recs {
		journaled += len(r.Rows)
		tables = append(tables, r.Table)
	}
	if fmt.Sprint(tables) != fmt.Sprint(order[:failAt]) {
		t.Errorf("journaled tables %v, want the ones before %s: %v", tables, order[failAt], order[:failAt])
	}
	if n == 0 || n != journaled {
		t.Errorf("StreamDeltas reported %d accepted rows, the journal holds %d", n, journaled)
	}
	if staged := srv.Stats().DeltaRows - before.DeltaRows; staged != int64(journaled) {
		t.Errorf("%d rows staged, want exactly the %d journaled", staged, journaled)
	}
	if acc, com := srv.IngestWatermarks(); acc != com {
		t.Errorf("watermarks %d/%d differ after the call returned", acc, com)
	}
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
}
