package serve

import (
	"context"
	"fmt"
	"testing"
	"time"

	"flexos"
	"flexos/internal/cli"
)

func rec(i int) cli.Record {
	return cli.Record{
		Key:     fmt.Sprintf("ns\x00key-%d", i),
		Metrics: flexos.Metrics{Throughput: float64(i + 1)},
	}
}

// newLogServer is a daemon without a cache directory, for driving its
// store-sync log (the in-memory store) directly.
func newLogServer(t *testing.T) *Server {
	t.Helper()
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func TestSyncLogIngestDedupAndConflict(t *testing.T) {
	s := newLogServer(t)
	check := func(what string, added, conflicts int64) {
		t.Helper()
		st := s.Stats()
		if st.RecordsIngested != added || st.IngestConflicts != conflicts || st.SyncLogLen != 3 {
			t.Fatalf("%s: ingested=%d conflicts=%d len=%d; want %d, %d, 3",
				what, st.RecordsIngested, st.IngestConflicts, st.SyncLogLen, added, conflicts)
		}
	}
	s.ingest([]cli.Record{rec(0), rec(1), rec(2)})
	check("fresh ingest", 3, 0)

	// Identical duplicates are no-ops.
	s.ingest([]cli.Record{rec(1), rec(2)})
	check("duplicate ingest", 3, 0)

	// A disagreeing duplicate is counted and dropped: local wins.
	bad := rec(1)
	bad.Metrics.Throughput = 999
	s.ingest([]cli.Record{bad})
	check("conflicting ingest", 3, 1)
	if m, ok := s.st.Load(rec(1).Key); !ok || m != rec(1).Metrics {
		t.Fatalf("conflict overwrote the local value: %v %v", m, ok)
	}
}

func TestSyncLogBackingWriteThrough(t *testing.T) {
	s := newLogServer(t)
	s.st.Store("k", flexos.Metrics{Throughput: 7})
	if m, ok := s.st.Load("k"); !ok || m.Throughput != 7 {
		t.Fatalf("load after store: %v %v", m, ok)
	}
	// First value wins, like the persistent store.
	s.st.Store("k", flexos.Metrics{Throughput: 8})
	if m, _ := s.st.Load("k"); m.Throughput != 7 {
		t.Fatalf("second store overwrote: %v", m)
	}
	if pg := s.page("", 0); len(pg.Records) != 1 || pg.Records[0].Metrics.Throughput != 7 {
		t.Fatalf("log after two stores of one key: %+v", pg)
	}
}

func TestSyncLogPageCursorAndGeneration(t *testing.T) {
	s := newLogServer(t)
	for i := 0; i < 5; i++ {
		s.st.Store(rec(i).Key, rec(i).Metrics)
	}

	// A first pull (empty gen) starts at the head.
	pg := s.page("", 3)
	if pg.Gen != s.gen || pg.Cursor != 5 || pg.More || len(pg.Records) != 5 {
		t.Fatalf("first pull: %+v", pg)
	}
	for i, r := range pg.Records {
		if r != rec(i) {
			t.Fatalf("record %d: %+v, want %+v", i, r, rec(i))
		}
	}

	// A matching generation resumes from the cursor.
	s.st.Store("late", flexos.Metrics{Throughput: 100})
	pg2 := s.page(pg.Gen, pg.Cursor)
	if len(pg2.Records) != 1 || pg2.Records[0].Key != "late" || pg2.Cursor != 6 {
		t.Fatalf("incremental pull: %+v", pg2)
	}

	// A stale generation or absurd cursor resets to the head.
	if pg := s.page("stale-gen", 6); pg.Cursor != 6 || len(pg.Records) != 6 {
		t.Fatalf("stale-gen pull did not reset: %+v", pg)
	}
	if pg := s.page(s.gen, 10_000); pg.Cursor != 6 || len(pg.Records) != 6 {
		t.Fatalf("out-of-range cursor did not reset: %+v", pg)
	}
	if pg := s.page(s.gen, -1); pg.Cursor != 6 || len(pg.Records) != 6 {
		t.Fatalf("negative cursor did not reset: %+v", pg)
	}

	// An exhausted cursor yields an empty page, same generation.
	if pg := s.page(s.gen, 6); len(pg.Records) != 0 || pg.More || pg.Cursor != 6 || pg.Gen != s.gen {
		t.Fatalf("exhausted pull: %+v", pg)
	}
}

func TestSyncLogPaginatesLargeLogs(t *testing.T) {
	s := newLogServer(t)
	n := pullPageSize + 3
	for i := 0; i < n; i++ {
		s.st.Store(rec(i).Key, rec(i).Metrics)
	}
	pg := s.page("", 0)
	if len(pg.Records) != pullPageSize || !pg.More || pg.Cursor != pullPageSize {
		t.Fatalf("first page: %d records, more=%v, cursor=%d", len(pg.Records), pg.More, pg.Cursor)
	}
	pg = s.page(pg.Gen, pg.Cursor)
	if len(pg.Records) != 3 || pg.More || pg.Cursor != n {
		t.Fatalf("last page: %d records, more=%v, cursor=%d", len(pg.Records), pg.More, pg.Cursor)
	}
}

// TestStoreSyncBetweenDaemons is the end-to-end store sync: daemon A
// measures, daemon B pulls A's records and then answers the same
// request entirely from its memo — zero fresh measurements.
func TestStoreSyncBetweenDaemons(t *testing.T) {
	_, clientA := newTestServer(t, Config{Workers: 2})
	srvB, clientB := newTestServer(t, Config{Workers: 2})

	req := cli.Request{Scenario: "redis-get90"}
	respA, err := clientA.Explore(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	srvB.StartPull(clientA.BaseURL, 10*time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for srvB.Stats().RecordsIngested == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("B never ingested from A: %+v", srvB.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}

	respB, err := clientB.Explore(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if respB.Report != respA.Report {
		t.Fatalf("synced daemon answers different bytes\n--- B ---\n%s--- A ---\n%s", respB.Report, respA.Report)
	}
	if respB.Stats == nil || respB.Stats.Evaluated != 0 {
		t.Fatalf("B still measured after syncing A's store: %+v", respB.Stats)
	}
}

// TestPullEndpointOverHTTP exercises GET /v1/store/pull the way a
// peer's puller does, including generation reset.
func TestPullEndpointOverHTTP(t *testing.T) {
	srv, client := newTestServer(t, Config{Workers: 2})
	if _, err := client.Explore(context.Background(), cli.Request{Scenario: "redis-get90"}); err != nil {
		t.Fatal(err)
	}
	want := srv.st.Len()
	if want == 0 {
		t.Fatal("sync log empty after a run")
	}

	pg, err := client.Pull(context.Background(), "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pg.Records) != want || pg.Cursor != want || pg.More {
		t.Fatalf("pull: %d records, cursor=%d, more=%v; want %d", len(pg.Records), pg.Cursor, pg.More, want)
	}
	// Resume at the cursor: nothing new.
	pg2, err := client.Pull(context.Background(), pg.Gen, pg.Cursor)
	if err != nil {
		t.Fatal(err)
	}
	if len(pg2.Records) != 0 || pg2.Gen != pg.Gen {
		t.Fatalf("resumed pull: %+v", pg2)
	}
	// A stale generation restarts from the head.
	pg3, err := client.Pull(context.Background(), "gen-of-previous-life", pg.Cursor)
	if err != nil {
		t.Fatal(err)
	}
	if len(pg3.Records) != want {
		t.Fatalf("stale-gen pull: %d records, want %d", len(pg3.Records), want)
	}
}
