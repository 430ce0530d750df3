package serve

import (
	"context"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"flexos"
	"flexos/internal/cli"
	"flexos/internal/store"
)

// The record tier as a peer and an operator see it: what a daemon
// booted on a store pages out, what a read-only daemon answers and
// writes, and what it learns from a peer. Every check goes through
// the daemon's public surface (HTTP, StartPull, Stats) and the store
// directory, never through the tier's internals.

// populate runs req on a read-write daemon over dir, closes it, and
// returns the report it served.
func populate(t *testing.T, dir string, req cli.Request) string {
	t.Helper()
	srv, err := New(Config{Workers: 2, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	resp, err := (&cli.Client{BaseURL: ts.URL, HTTPClient: ts.Client()}).Explore(context.Background(), req)
	ts.Close()
	if cerr := srv.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	return resp.Report
}

// storedRecords reads every record of the store at dir.
func storedRecords(t *testing.T, dir string) map[string]flexos.Metrics {
	t.Helper()
	st, err := store.OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	out := make(map[string]flexos.Metrics)
	for _, key := range st.Keys() {
		m, _ := st.Load(key)
		out[key] = m
	}
	return out
}

// pullAll drains a daemon's log from (gen, cursor), page by page.
func pullAll(t *testing.T, client *cli.Client, gen string, cursor int) (map[string]flexos.Metrics, string, int) {
	t.Helper()
	out := make(map[string]flexos.Metrics)
	for {
		pg, err := client.Pull(context.Background(), gen, cursor)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range pg.Records {
			if _, dup := out[r.Key]; dup {
				t.Fatalf("key %q paged twice", r.Key)
			}
			out[r.Key] = r.Metrics
		}
		gen, cursor = pg.Gen, pg.Cursor
		if !pg.More {
			return out, gen, cursor
		}
	}
}

// listing is a directory's file names and sizes.
func listing(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]int64, len(ents))
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = info.Size()
	}
	return out
}

func sameRecords(t *testing.T, what string, got, want map[string]flexos.Metrics) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", what, len(got), len(want))
	}
	for k, m := range want {
		if g, ok := got[k]; !ok || g != m {
			t.Fatalf("%s: key %q = %v (present %v), want %v", what, k, g, ok, m)
		}
	}
}

// TestBootedStorePagesEveryRecordThenLaterOnes: a daemon booted on a
// populated store offers every stored record on a peer's first pull
// (as a set: the order is node-local), and after that cursor only
// what it measured since.
func TestBootedStorePagesEveryRecordThenLaterOnes(t *testing.T) {
	dir := t.TempDir()
	populate(t, dir, cli.Request{Scenario: "redis-get90"})
	stored := storedRecords(t, dir)
	if len(stored) == 0 {
		t.Fatal("populating run stored nothing")
	}

	_, client := newTestServer(t, Config{Workers: 2, CacheDir: dir})
	first, gen, cursor := pullAll(t, client, "", 0)
	sameRecords(t, "first pull", first, stored)
	if cursor != len(stored) {
		t.Fatalf("first pull ends at cursor %d, want %d", cursor, len(stored))
	}

	resp, err := client.Explore(context.Background(), cli.Request{Scenario: "iperf-stream4"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stats.Evaluated == 0 {
		t.Fatal("the second request measured nothing; the test needs fresh records")
	}
	later, gen2, _ := pullAll(t, client, gen, cursor)
	if gen2 != gen {
		t.Fatalf("generation changed mid-life: %q -> %q", gen, gen2)
	}
	fresh := make(map[string]flexos.Metrics)
	for k, m := range storedRecords(t, dir) {
		if _, old := stored[k]; !old {
			fresh[k] = m
		}
	}
	if len(fresh) == 0 {
		t.Fatal("the second request wrote nothing to the store")
	}
	sameRecords(t, "pull after the cursor", later, fresh)
}

// TestReadOnlyDaemonServesStoreAndNeverWrites: a CacheReadOnly daemon
// answers a stored request byte-identically without measuring, and
// measures a new request without touching its directory.
func TestReadOnlyDaemonServesStoreAndNeverWrites(t *testing.T) {
	dir := t.TempDir()
	stored := cli.Request{Scenario: "redis-get90"}
	want := populate(t, dir, stored)
	before := listing(t, dir)

	srv, err := New(Config{Workers: 2, CacheDir: dir, CacheReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	client := &cli.Client{BaseURL: ts.URL, HTTPClient: ts.Client()}

	resp, err := client.Explore(context.Background(), stored)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Report != want {
		t.Fatalf("read-only daemon answers different bytes\n--- got ---\n%s--- want ---\n%s", resp.Report, want)
	}
	if resp.Stats.Evaluated != 0 {
		t.Fatalf("read-only daemon re-measured %d stored configurations", resp.Stats.Evaluated)
	}

	fresh := cli.Request{Scenario: "iperf-stream4"}
	resp, err = client.Explore(context.Background(), fresh)
	if err != nil {
		t.Fatal(err)
	}
	if o := oracle(t, fresh, nil); resp.Report != o.report {
		t.Fatalf("read-only daemon's fresh report differs from the oracle\n--- got ---\n%s--- want ---\n%s", resp.Report, o.report)
	}
	if resp.Stats.Evaluated == 0 {
		t.Fatal("the fresh request measured nothing")
	}
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if after := listing(t, dir); len(after) != len(before) {
		t.Fatalf("read-only daemon changed its directory: %v -> %v", before, after)
	} else {
		for name, size := range before {
			if after[name] != size {
				t.Fatalf("read-only daemon changed %s: %d -> %d bytes", name, size, after[name])
			}
		}
	}
}

// TestReadOnlyDaemonWarmsFromPeer: a CacheReadOnly daemon pulling a
// peer answers the peer's request from what it ingested — zero fresh
// measurements — and still writes nothing.
func TestReadOnlyDaemonWarmsFromPeer(t *testing.T) {
	_, clientA := newTestServer(t, Config{Workers: 2})
	dir := t.TempDir()
	srvB, clientB := newTestServer(t, Config{Workers: 2, CacheDir: dir, CacheReadOnly: true})

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
		t.Fatalf("read-only puller answers different bytes\n--- B ---\n%s--- A ---\n%s", respB.Report, respA.Report)
	}
	if respB.Stats.Evaluated != 0 {
		t.Fatalf("read-only puller measured %d configurations after syncing", respB.Stats.Evaluated)
	}
	if l := listing(t, dir); len(l) != 0 {
		t.Fatalf("read-only puller wrote to its directory: %v", l)
	}
}
