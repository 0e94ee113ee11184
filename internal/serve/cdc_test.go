package serve

import (
	"context"
	"errors"
	"sort"
	"testing"
	"time"

	"github.com/warehousekit/mvpp/internal/engine"
)

// waitBuffered polls the change feed until it holds want rows (the parked
// group of a concurrent StreamIngest) or the deadline expires.
func waitBuffered(t *testing.T, s *Server, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for s.feed.buffered() != want {
		if time.Now().After(deadline) {
			t.Fatalf("change feed never reached %d buffered rows (have %d)", want, s.feed.buffered())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestStreamIngestGroupCommitJournals: a StreamIngest call returns only
// after its group commit journaled (Source "stream") and staged the rows;
// the next Flush lands them in the views.
func TestStreamIngestGroupCommitJournals(t *testing.T) {
	j := engine.NewMemJournal()
	s, _ := serveFixture(t, Config{DeltaBatch: 1 << 20, Journal: j})
	ctx := context.Background()

	before, err := s.Query(ctx, "QLA")
	if err != nil {
		t.Fatal(err)
	}

	div, prod := deltaPair(1)
	if err := s.StreamIngest("Division", div); err != nil {
		t.Fatal(err)
	}
	if err := s.StreamIngest("Product", prod); err != nil {
		t.Fatal(err)
	}

	// A nil return means journaled: both batches are write-ahead records
	// tagged with the streaming source, not yet acked.
	recs, err := j.Pending()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("pending journal records = %d, want 2", len(recs))
	}
	for _, r := range recs {
		if r.Source != "stream" {
			t.Errorf("journal record for %s has source %q, want \"stream\"", r.Table, r.Source)
		}
	}
	accepted, committed := s.IngestWatermarks()
	if accepted != 2 || committed != 2 {
		t.Errorf("watermarks = %d/%d, want 2/2 (nothing in flight)", accepted, committed)
	}
	if st := s.Staleness()["tmp2"]; st.PendingRows == 0 {
		t.Error("group-committed rows are not staged for the next epoch")
	}
	if got := s.Stats(); got.StreamRows != 2 || got.StreamGroups != 2 {
		t.Errorf("stream stats = %d rows / %d groups, want 2/2", got.StreamRows, got.StreamGroups)
	}

	// The epoch lands the staged rows: the view gains the delta row and the
	// journal is acked.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	after, err := s.Query(ctx, "QLA")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := after.Table.NumRows(), before.Table.NumRows()+1; got != want {
		t.Errorf("view has %d rows after the epoch, want %d", got, want)
	}
	recs, err = j.Pending()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Errorf("journal still has %d pending records after the epoch landed", len(recs))
	}
}

// TestStreamBackpressureShedsAfterDeadline: a full change feed blocks the
// caller, then sheds it with ErrBackpressure once the deadline passes —
// while everything actually accepted is journaled exactly once.
func TestStreamBackpressureShedsAfterDeadline(t *testing.T) {
	j := engine.NewMemJournal()
	const deadline = 30 * time.Millisecond
	s, _ := serveFixture(t, Config{
		DeltaBatch: 1 << 20,
		Journal:    j,
		Ingest: IngestConfig{
			BufferRows:    4,
			BlockDeadline: deadline,
			GroupRows:     1000,                   // never fills: groups wait for the linger
			GroupLinger:   300 * time.Millisecond, // parks the filler long past the shed
		},
	})

	// Fill the feed to capacity from a helper goroutine; it parks on the
	// 300ms linger, holding the buffer full.
	fills := make(chan error, 1)
	go func() {
		div1, _ := deltaPair(1)
		div2, _ := deltaPair(2)
		div3, _ := deltaPair(3)
		div4, _ := deltaPair(4)
		fills <- s.StreamIngest("Division", div1, div2, div3, div4)
	}()
	waitBuffered(t, s, 4)

	// The fifth row does not fit: block, then shed at the deadline.
	div5, _ := deltaPair(5)
	start := time.Now()
	err := s.StreamIngest("Division", div5)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrBackpressure) {
		t.Fatalf("over-capacity StreamIngest = %v, want ErrBackpressure", err)
	}
	if elapsed < deadline-5*time.Millisecond {
		t.Errorf("shed after %v, want the caller to block for ~%v first", elapsed, deadline)
	}
	if st := s.Stats(); st.StreamBlocked != 1 || st.StreamShed != 1 {
		t.Errorf("blocked/shed = %d/%d, want 1/1", st.StreamBlocked, st.StreamShed)
	}

	// An oversized batch is shed without blocking.
	d1, _ := deltaPair(6)
	d2, _ := deltaPair(7)
	d3, _ := deltaPair(8)
	d4, _ := deltaPair(9)
	d5, _ := deltaPair(10)
	start = time.Now()
	if err := s.StreamIngest("Division", d1, d2, d3, d4, d5); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("oversized StreamIngest = %v, want ErrBackpressure", err)
	}
	if since := time.Since(start); since > deadline {
		t.Errorf("oversized batch blocked for %v before shedding; want an immediate refusal", since)
	}

	// The filler self-flushes after its linger and returns nil — and its 4
	// rows are journaled exactly once. The shed rows never reached the
	// journal: accepted ⇒ journaled, shed ⇒ nothing.
	if err := <-fills; err != nil {
		t.Fatalf("the accepted filler call failed: %v", err)
	}
	recs, err := j.Pending()
	if err != nil {
		t.Fatal(err)
	}
	var journaled int
	for _, r := range recs {
		if r.Source != "stream" {
			t.Errorf("journal record source %q, want \"stream\"", r.Source)
		}
		journaled += len(r.Rows)
	}
	if journaled != 4 {
		t.Errorf("journaled rows = %d, want exactly the 4 accepted", journaled)
	}
	accepted, committed := s.IngestWatermarks()
	if accepted != 1 || committed != 1 {
		t.Errorf("watermarks = %d/%d, want 1/1 (shed calls are never accepted)", accepted, committed)
	}
}

// TestStreamCloseDrainsFeed: Close flushes the final partial group first —
// parked callers get their (successful) outcome, the rows are journaled —
// and only then refuses new work. Close stays idempotent.
func TestStreamCloseDrainsFeed(t *testing.T) {
	j := engine.NewMemJournal()
	s, _ := serveFixture(t, Config{
		DeltaBatch: 1 << 20,
		Journal:    j,
		Ingest: IngestConfig{
			GroupRows:   1000,
			GroupLinger: time.Minute, // no self-flush: only Close drains
		},
	})

	done := make(chan error, 1)
	go func() {
		div1, _ := deltaPair(2)
		div2, _ := deltaPair(3)
		done <- s.StreamIngest("Division", div1, div2)
	}()
	waitBuffered(t, s, 2)

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("parked StreamIngest during Close = %v, want nil (drained)", err)
	}
	recs, err := j.Pending()
	if err != nil {
		t.Fatal(err)
	}
	var rows int
	for _, r := range recs {
		rows += len(r.Rows)
	}
	if rows != 2 {
		t.Errorf("journaled rows after the Close drain = %d, want 2", rows)
	}
	accepted, committed := s.IngestWatermarks()
	if accepted != committed {
		t.Errorf("watermarks diverge after Close: %d/%d", accepted, committed)
	}

	div, _ := deltaPair(4)
	if err := s.StreamIngest("Division", div); !errors.Is(err, ErrClosed) {
		t.Errorf("StreamIngest after Close = %v, want ErrClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close = %v, want nil", err)
	}
}

// ingestOutcomes returns, per finished ingest trace, the outcome of its
// ingest.stream span, and fails on any ingest trace left open or without
// exactly one such span.
func ingestOutcomes(t *testing.T, s *Server) []string {
	t.Helper()
	var out []string
	for _, tr := range s.RecentTraces() {
		if tr.Kind != "ingest" {
			continue
		}
		if !tr.Done {
			t.Errorf("ingest trace %d left open (spans %v)", tr.ID, tr.Spans)
		}
		var streams []PipelineSpan
		for _, sp := range tr.Spans {
			if sp.Name == "ingest.stream" {
				streams = append(streams, sp)
			}
		}
		if len(streams) != 1 {
			t.Errorf("ingest trace %d has %d ingest.stream spans, want 1", tr.ID, len(streams))
			continue
		}
		outcome, _ := streams[0].Detail["outcome"].(string)
		out = append(out, outcome)
	}
	return out
}

// TestStreamOversizedBatchFinishesTrace: a batch larger than the whole
// feed is shed at once, and its sampled trace is finished with an
// ingest.stream span marked shed.
func TestStreamOversizedBatchFinishesTrace(t *testing.T) {
	s, _ := serveFixture(t, Config{
		DeltaBatch:       1 << 20,
		TraceSampleEvery: 1,
		Ingest:           IngestConfig{BufferRows: 2},
	})
	d1, _ := deltaPair(1)
	d2, _ := deltaPair(2)
	d3, _ := deltaPair(3)
	if err := s.StreamIngest("Division", d1, d2, d3); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("oversized StreamIngest = %v, want ErrBackpressure", err)
	}
	if got := ingestOutcomes(t, s); len(got) != 1 || got[0] != "shed" {
		t.Errorf("ingest trace outcomes = %v, want [shed]", got)
	}
}

// TestStreamClosedFeedFinishesTrace: a caller blocked on a full feed when
// Close drains it returns ErrClosed, and its sampled trace is finished with
// an ingest.stream span marked closed; the drained caller's is committed.
func TestStreamClosedFeedFinishesTrace(t *testing.T) {
	s, _ := serveFixture(t, Config{
		DeltaBatch:       1 << 20,
		TraceSampleEvery: 1,
		Ingest: IngestConfig{
			BufferRows:    2,
			BlockDeadline: time.Minute, // only Close releases the blocked caller
			GroupRows:     1000,
			GroupLinger:   time.Minute,
		},
	})
	fills := make(chan error, 1)
	go func() {
		d1, _ := deltaPair(1)
		d2, _ := deltaPair(2)
		fills <- s.StreamIngest("Division", d1, d2)
	}()
	waitBuffered(t, s, 2)
	blocked := make(chan error, 1)
	go func() {
		d3, _ := deltaPair(3)
		blocked <- s.StreamIngest("Division", d3)
	}()
	deadline := time.Now().Add(2 * time.Second)
	for s.Stats().StreamBlocked != 1 {
		if time.Now().After(deadline) {
			t.Fatal("the second caller never blocked on the full feed")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-fills; err != nil {
		t.Fatalf("drained StreamIngest = %v, want nil", err)
	}
	if err := <-blocked; !errors.Is(err, ErrClosed) {
		t.Fatalf("blocked StreamIngest during Close = %v, want ErrClosed", err)
	}
	got := ingestOutcomes(t, s)
	sort.Strings(got)
	if len(got) != 2 || got[0] != "closed" || got[1] != "committed" {
		t.Errorf("ingest trace outcomes = %v, want [closed committed]", got)
	}
}
