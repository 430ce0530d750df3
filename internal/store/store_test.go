package store_test

import (
	"context"
	"encoding/json"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"flexos/internal/explore"
	"flexos/internal/scenario"
	"flexos/internal/store"
)

func vec(t float64) scenario.Metrics {
	return scenario.Metrics{Throughput: t, P99us: t / 100, PeakMemBytes: uint64(t) + 7, BootCycles: 11, Cycles: 13, Ops: 3}
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"ns\x00a", "ns\x00b", "other\x00a", strings.Repeat("k", 300)}
	for i, k := range keys {
		s.Store(k, vec(float64(1000*(i+1))))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	st := r.Stats()
	if st.Loaded != len(keys) || st.Segments != 1 || st.QuarantinedFiles != 0 || st.CorruptRecords != 0 {
		t.Fatalf("stats after reload: %+v", st)
	}
	for i, k := range keys {
		m, ok := r.Load(k)
		if !ok {
			t.Fatalf("key %q lost", k)
		}
		if want := vec(float64(1000 * (i + 1))); m != want {
			t.Fatalf("key %q: %+v, want %+v", k, m, want)
		}
	}
	if _, ok := r.Load("ns\x00missing"); ok {
		t.Fatal("phantom key")
	}
	if got := r.Keys(); len(got) != len(keys) || !sortedStrings(got) {
		t.Fatalf("Keys() = %v", got)
	}
}

func sortedStrings(s []string) bool {
	for i := 1; i < len(s); i++ {
		if s[i-1] > s[i] {
			return false
		}
	}
	return true
}

// TestWriteThroughThenColdReloadEqualsInMemoryMemo is the satellite
// property: exploring with a store-backed memo, then reloading the
// store cold into a fresh memo, must reproduce the in-memory run
// byte-identically while measuring nothing fresh.
func TestWriteThroughThenColdReloadEqualsInMemoryMemo(t *testing.T) {
	dir := t.TempDir()
	space := func() []*explore.Config { return explore.Fig6Space([4]string{"app", "libc", "sched", "net"}) }
	measure := func(c *explore.Config) (scenario.Metrics, error) {
		h := fnv.New64a()
		h.Write([]byte(c.Key()))
		return vec(float64(h.Sum64()%100_000) + 1), nil
	}
	req := func(memo *explore.Memo) explore.Request {
		return explore.Request{Space: explore.NewSpace(space()), Measure: measure, Workers: 4, Memo: memo, Workload: "rt"}
	}

	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	inMem, err := (explore.Engine{}).Run(context.Background(), req(explore.NewBackedMemo(s)))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Written != inMem.Evaluated {
		t.Fatalf("wrote %d records, evaluated %d: write-through must cover every fresh measurement",
			s.Stats().Written, inMem.Evaluated)
	}

	cold, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	warm, err := (explore.Engine{}).Run(context.Background(), req(explore.NewBackedMemo(cold)))
	if err != nil {
		t.Fatal(err)
	}
	if warm.Evaluated != 0 {
		t.Fatalf("cold reload re-measured %d configs", warm.Evaluated)
	}
	if warm.MemoHits != inMem.Evaluated+inMem.MemoHits {
		t.Fatalf("warm hits %d, want %d", warm.MemoHits, inMem.Evaluated+inMem.MemoHits)
	}
	if !reflect.DeepEqual(warm.Safest, inMem.Safest) {
		t.Fatalf("safest diverges: %v vs %v", warm.Safest, inMem.Safest)
	}
	for i := range inMem.Measurements {
		a, b := warm.Measurements[i], inMem.Measurements[i]
		if a.Metrics != b.Metrics || a.Perf != b.Perf || a.Evaluated != b.Evaluated || a.Pruned != b.Pruned {
			t.Fatalf("measurement %d diverges: %+v vs %+v", i, a, b)
		}
	}
}

// segmentPath returns the store's single segment file.
func segmentPath(t *testing.T, dir string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
	if err != nil || len(names) != 1 {
		t.Fatalf("want one segment, got %v (%v)", names, err)
	}
	return names[0]
}

// writeStore populates a fresh store with n records keyed k0..k(n-1).
func writeStore(t *testing.T, dir string, n int) {
	t.Helper()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		s.Store(key(i), vec(float64(100+i)))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func key(i int) string { return "ns\x00cfg" + string(rune('a'+i)) }

func TestTruncatedSegmentLoadsPrefixNotFatal(t *testing.T) {
	dir := t.TempDir()
	writeStore(t, dir, 5)
	seg := segmentPath(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Cut mid-way through the last record.
	if err := os.WriteFile(seg, data[:len(data)-25], 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st := s.Stats()
	if st.Loaded != 4 || st.CorruptRecords != 1 || st.QuarantinedFiles != 0 {
		t.Fatalf("stats after truncation: %+v", st)
	}
	if _, ok := s.Load(key(3)); !ok {
		t.Fatal("intact prefix record lost")
	}
	if _, ok := s.Load(key(4)); ok {
		t.Fatal("truncated record must not load")
	}
}

func TestBadChecksumDropsTailNotFatal(t *testing.T) {
	dir := t.TempDir()
	writeStore(t, dir, 4)
	seg := segmentPath(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	// Corrupt record 2 (line index 2: header + record 0 + record 1):
	// bump its throughput without recomputing the checksum.
	lines[2] = strings.Replace(lines[2], `"Throughput":101`, `"Throughput":999`, 1)
	if err := os.WriteFile(seg, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st := s.Stats()
	// The tampered record plus the two after it: CorruptRecords counts
	// every record the dropped tail takes with it.
	if st.Loaded != 1 || st.CorruptRecords != 3 {
		t.Fatalf("stats after checksum flip: %+v", st)
	}
	if m, ok := s.Load(key(0)); !ok || m.Throughput != 100 {
		t.Fatalf("record before the damage must survive intact, got %v %v", m, ok)
	}
	if _, ok := s.Load(key(1)); ok {
		t.Fatal("tampered record must not be trusted")
	}
}

func TestFutureVersionFileQuarantinedNotFatal(t *testing.T) {
	dir := t.TempDir()
	writeStore(t, dir, 2)
	// A second segment from "the future": right format, newer schema.
	hdr, _ := json.Marshal(map[string]any{"format": store.FormatName, "version": store.Version + 1})
	future := string(hdr) + "\n" + `{"addr":"x","key":"ns` + "\x00" + `zz","metrics":{},"sum":"y"}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, "seg-999999.jsonl"), []byte(future), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st := s.Stats()
	if st.QuarantinedFiles != 1 || st.Loaded != 2 || st.Segments != 1 {
		t.Fatalf("stats with future segment: %+v", st)
	}
	if _, ok := s.Load("ns\x00zz"); ok {
		t.Fatal("future-version record must not load")
	}
}

func TestForeignAndEmptyFilesQuarantined(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "seg-000001.jsonl"), []byte("not json at all\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "seg-000002.jsonl"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if st := s.Stats(); st.QuarantinedFiles != 2 || st.Loaded != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestQuarantinedFilesAreNeverDeletedOrOverwritten(t *testing.T) {
	dir := t.TempDir()
	garbage := []byte("precious forensic evidence\n")
	if err := os.WriteFile(filepath.Join(dir, "seg-000001.jsonl"), garbage, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Store(key(0), vec(1))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "seg-000001.jsonl"))
	if err != nil || string(data) != string(garbage) {
		t.Fatalf("quarantined file was touched: %q %v", data, err)
	}
	// The append went to a fresh segment and survives a reload.
	r, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, ok := r.Load(key(0)); !ok {
		t.Fatal("append alongside a quarantined file lost")
	}
}

func TestReadOnlyStoreNeverWrites(t *testing.T) {
	dir := t.TempDir()
	writeStore(t, dir, 3)
	before, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}

	s, err := store.OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Load(key(1)); !ok {
		t.Fatal("read-only store must serve loads")
	}
	s.Store("ns\x00new", vec(9))
	if m, ok := s.Load("ns\x00new"); !ok || m != vec(9) {
		t.Fatalf("read-only Store must index in memory, got %v %v", m, ok)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("read-only open changed the directory: %d -> %d files", len(before), len(after))
	}
}

func TestOpenReadOnlyMissingDirErrors(t *testing.T) {
	if _, err := store.OpenReadOnly(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("want error for a missing read-only store")
	}
}

func TestAppendAcrossHandlesAccumulates(t *testing.T) {
	dir := t.TempDir()
	writeStore(t, dir, 2)
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Store(key(7), vec(777))
	s.Store(key(0), vec(123456)) // duplicate key: first value wins, no rewrite
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if st := r.Stats(); st.Segments != 2 || st.Loaded != 3 {
		t.Fatalf("stats after append: %+v", st)
	}
	if m, _ := r.Load(key(0)); m.Throughput != 100 {
		t.Fatalf("duplicate key overwrote the original: %v", m)
	}
	if m, _ := r.Load(key(7)); m.Throughput != 777 {
		t.Fatalf("appended record lost: %v", m)
	}
}

func TestInsertReportsAddedAndConflict(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if added, conflict := s.Insert(key(0), vec(1)); !added || conflict {
		t.Fatalf("new key: added=%v conflict=%v", added, conflict)
	}
	if added, conflict := s.Insert(key(0), vec(1)); added || conflict {
		t.Fatalf("identical duplicate: added=%v conflict=%v", added, conflict)
	}
	if added, conflict := s.Insert(key(0), vec(2)); added || !conflict {
		t.Fatalf("disagreeing duplicate: added=%v conflict=%v", added, conflict)
	}
	if m, _ := s.Load(key(0)); m != vec(1) {
		t.Fatalf("conflict overwrote the first value: %v", m)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Written != 1 || s.Len() != 1 {
		t.Fatalf("three inserts of one key: written=%d len=%d, want 1 and 1", st.Written, s.Len())
	}
}

// TestInvalidUTF8KeyStaysInMemory: the codec spells an invalid UTF-8
// key byte as U+FFFD, which would reload under another key, fail its
// address check and take the rest of the segment with it. Such a key is
// indexed but never appended, so a valid key after it reloads intact.
func TestInvalidUTF8KeyStaysInMemory(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if added, _ := s.Insert("\xff", vec(1)); !added {
		t.Fatal("invalid UTF-8 key not indexed")
	}
	if m, ok := s.Load("\xff"); !ok || m != vec(1) {
		t.Fatalf("invalid UTF-8 key loads %v %v, want its vector", m, ok)
	}
	s.Store(key(1), vec(2))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Written != 1 {
		t.Fatalf("written=%d, want only the valid key appended", st.Written)
	}

	r, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if m, ok := r.Load(key(1)); !ok || m != vec(2) {
		t.Fatalf("valid key after an invalid one reloads %v %v", m, ok)
	}
	if st := r.Stats(); st.CorruptRecords != 0 || st.Loaded != 1 {
		t.Fatalf("reopen stats %+v, want 1 loaded and 0 corrupt", st)
	}
}

// page drains a store's arrival order from cursor since, limit at a
// time, returning the keys and the final cursor.
func page(t *testing.T, s *store.Store, since, limit int) ([]string, int) {
	t.Helper()
	var keys []string
	for {
		recs, next, more := s.Page(since, limit)
		if len(recs) > limit {
			t.Fatalf("page of %d records over limit %d", len(recs), limit)
		}
		for _, r := range recs {
			if m, _ := s.Load(r.Key); m != r.Metrics {
				t.Fatalf("Page returned %v for %q, the index holds %v", r.Metrics, r.Key, m)
			}
			keys = append(keys, r.Key)
		}
		since = next
		if !more {
			return keys, since
		}
	}
}

// TestPageFollowsArrivalOrder: the arrival order is the keys loaded at
// Open, in segment and file order, then each key newly accepted —
// duplicates never repeat it.
func TestPageFollowsArrivalOrder(t *testing.T) {
	dir := t.TempDir()
	writeStore(t, dir, 3) // seg-000001: key(0), key(1), key(2)
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Store(key(5), vec(5))
	s.Store(key(4), vec(4))
	s.Store(key(1), vec(1)) // already loaded
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := store.Open(dir) // seg-000002: key(5), key(4)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.Store(key(3), vec(3))
	want := []string{key(0), key(1), key(2), key(5), key(4), key(3)}
	for _, limit := range []int{1, 2, 6, 100} {
		if got, end := page(t, r, 0, limit); !reflect.DeepEqual(got, want) || end != len(want) {
			t.Fatalf("limit %d: %q ending at %d, want %q ending at %d", limit, got, end, want, len(want))
		}
	}
	if got, _ := page(t, r, 4, 100); !reflect.DeepEqual(got, want[4:]) {
		t.Fatalf("after cursor 4: %q, want %q", got, want[4:])
	}
	for _, since := range []int{-1, len(want) + 1} {
		if got, _ := page(t, r, since, 100); !reflect.DeepEqual(got, want) {
			t.Fatalf("cursor %d did not restart at the head: %q", since, got)
		}
	}
	if recs, next, more := r.Page(len(want), 100); len(recs) != 0 || next != len(want) || more {
		t.Fatalf("exhausted page: %d records, next=%d more=%v", len(recs), next, more)
	}
}

func TestMemoryStoreIndexesWithoutDirectory(t *testing.T) {
	s := store.Memory()
	s.Store(key(0), vec(1))
	if added, _ := s.Insert(key(1), vec(2)); !added {
		t.Fatal("in-memory insert not added")
	}
	if m, ok := s.Load(key(0)); !ok || m != vec(1) {
		t.Fatalf("in-memory load: %v %v", m, ok)
	}
	if got, _ := page(t, s, 0, 10); !reflect.DeepEqual(got, []string{key(0), key(1)}) {
		t.Fatalf("in-memory arrival order: %q", got)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Written != 0 || s.Dir() != "" {
		t.Fatalf("in-memory store wrote %d records under %q", st.Written, s.Dir())
	}
}
